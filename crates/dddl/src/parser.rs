//! Recursive-descent parser for DDDL.
//!
//! Grammar (EBNF, `//` comments allowed anywhere):
//!
//! ```text
//! scenario     := (object | constraint | problem)*
//! object       := "object" name "{" property* "}"
//! property     := "property" name ":" domain opt* ";"
//! domain       := "interval" "(" num "," num ")"
//!               | "set" "(" num ("," num)* ")"
//!               | "choice" "(" name ("," name)* ")"
//!               | "bool"
//! opt          := "units" string | "levels" "[" name ("," name)* "]"
//!               | "init" num
//! constraint   := ["soft"] "constraint" name ":" expr rel expr [mono] ";"
//! rel          := "<=" | "<" | ">=" | ">" | "=="
//! mono         := "monotonic" monoitem ("," monoitem)*
//! monoitem     := ("increasing" | "decreasing") "in" propref
//! expr         := term (("+" | "-") term)*
//! term         := pow (("*" | "/") pow)*
//! pow          := factor ["^" int]
//! factor       := num | propref | "(" expr ")" | "-" factor
//!               | ("sqrt"|"abs"|"exp"|"ln") "(" expr ")"
//!               | ("min"|"max") "(" expr "," expr ")"
//! propref      := name "." name
//! problem      := "problem" name ["under" name] ["after" name ("," name)*]
//!                 "{" pitem* "}"
//! pitem        := "outputs" ":" propref ("," propref)* ";"
//!               | "inputs" ":" propref ("," propref)* ";"
//!               | "constraints" ":" name ("," name)* ";"
//!               | "designer" num ";"
//! name         := IDENT | STRING
//! ```

use crate::ast::*;
use crate::error::{DddlError, Position};
use crate::token::{tokenize, Spanned, Token};

/// Parses DDDL source text into a [`ScenarioAst`].
///
/// # Errors
///
/// Returns [`DddlError::Lex`] or [`DddlError::Parse`] with a source
/// position when the text is malformed.
///
/// # Examples
///
/// ```
/// use adpm_dddl::parse;
/// let ast = parse(r#"
///     object Filter {
///         property beam-len : interval(5, 20) units "um";
///     }
///     constraint CenterFreq: 1000.0 / Filter.beam-len >= 50.0
///         monotonic decreasing in Filter.beam-len;
/// "#)?;
/// assert_eq!(ast.objects.len(), 1);
/// assert_eq!(ast.constraints.len(), 1);
/// # Ok::<(), adpm_dddl::DddlError>(())
/// ```
pub fn parse(source: &str) -> Result<ScenarioAst, DddlError> {
    let tokens = tokenize(source)?;
    Parser { tokens, pos: 0 }.scenario()
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn scenario(&mut self) -> Result<ScenarioAst, DddlError> {
        let mut ast = ScenarioAst::default();
        while let Some(t) = self.peek() {
            match t {
                Token::Ident(kw) if kw == "object" => ast.objects.push(self.object()?),
                Token::Ident(kw) if kw == "constraint" => {
                    ast.constraints.push(self.constraint(false)?);
                }
                Token::Ident(kw) if kw == "soft" => {
                    self.advance();
                    ast.constraints.push(self.constraint(true)?);
                }
                Token::Ident(kw) if kw == "problem" => ast.problems.push(self.problem()?),
                other => {
                    return Err(self.error(format!(
                        "expected `object`, `constraint`, `soft constraint`, or `problem`, \
                         found `{other}`"
                    )))
                }
            }
        }
        Ok(ast)
    }

    fn object(&mut self) -> Result<ObjectDecl, DddlError> {
        self.expect_keyword("object")?;
        let name = self.name()?;
        self.expect(&Token::LBrace)?;
        let mut properties = Vec::new();
        while !self.eat(&Token::RBrace) {
            properties.push(self.property()?);
        }
        Ok(ObjectDecl { name, properties })
    }

    fn property(&mut self) -> Result<PropertyDecl, DddlError> {
        self.expect_keyword("property")?;
        let name = self.name()?;
        self.expect(&Token::Colon)?;
        let domain = self.domain()?;
        let mut units = None;
        let mut levels = Vec::new();
        let mut init = None;
        loop {
            match self.peek() {
                Some(Token::Ident(kw)) if kw == "units" => {
                    self.advance();
                    units = Some(self.name()?);
                }
                Some(Token::Ident(kw)) if kw == "levels" => {
                    self.advance();
                    self.expect(&Token::LBracket)?;
                    loop {
                        levels.push(self.name()?);
                        if !self.eat(&Token::Comma) {
                            break;
                        }
                    }
                    self.expect(&Token::RBracket)?;
                }
                Some(Token::Ident(kw)) if kw == "init" => {
                    self.advance();
                    init = Some(self.signed_number()?);
                }
                _ => break,
            }
        }
        self.expect(&Token::Semicolon)?;
        Ok(PropertyDecl {
            name,
            domain,
            units,
            levels,
            init,
        })
    }

    fn domain(&mut self) -> Result<DomainDecl, DddlError> {
        let kw = self.name()?;
        match kw.as_str() {
            "interval" => {
                self.expect(&Token::LParen)?;
                let lo = self.signed_number()?;
                self.expect(&Token::Comma)?;
                let hi = self.signed_number()?;
                self.expect(&Token::RParen)?;
                Ok(DomainDecl::Interval(lo, hi))
            }
            "set" => {
                self.expect(&Token::LParen)?;
                let mut values = vec![self.signed_number()?];
                while self.eat(&Token::Comma) {
                    values.push(self.signed_number()?);
                }
                self.expect(&Token::RParen)?;
                Ok(DomainDecl::Set(values))
            }
            "choice" => {
                self.expect(&Token::LParen)?;
                let mut values = vec![self.name()?];
                while self.eat(&Token::Comma) {
                    values.push(self.name()?);
                }
                self.expect(&Token::RParen)?;
                Ok(DomainDecl::Choice(values))
            }
            "bool" => Ok(DomainDecl::Bool),
            other => Err(self.error(format!(
                "expected `interval`, `set`, `choice`, or `bool`, found `{other}`"
            ))),
        }
    }

    fn constraint(&mut self, soft: bool) -> Result<ConstraintDecl, DddlError> {
        self.expect_keyword("constraint")?;
        let name = self.name()?;
        self.expect(&Token::Colon)?;
        let lhs = self.expr()?;
        let rel = self.relop()?;
        let rhs = self.expr()?;
        let mut monotonic = Vec::new();
        if matches!(self.peek(), Some(Token::Ident(kw)) if kw == "monotonic") {
            self.advance();
            loop {
                let dir = self.name()?;
                let increasing = match dir.as_str() {
                    "increasing" => true,
                    "decreasing" => false,
                    other => {
                        return Err(self.error(format!(
                            "expected `increasing` or `decreasing`, found `{other}`"
                        )))
                    }
                };
                self.expect_keyword("in")?;
                let property = self.propref()?;
                monotonic.push(MonoDecl {
                    increasing,
                    property,
                });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        self.expect(&Token::Semicolon)?;
        Ok(ConstraintDecl {
            name,
            soft,
            lhs,
            rel,
            rhs,
            monotonic,
        })
    }

    fn relop(&mut self) -> Result<RelOp, DddlError> {
        let rel = match self.peek() {
            Some(Token::Le) => RelOp::Le,
            Some(Token::Lt) => RelOp::Lt,
            Some(Token::Ge) => RelOp::Ge,
            Some(Token::Gt) => RelOp::Gt,
            Some(Token::EqEq) => RelOp::Eq,
            other => {
                return Err(self.error(format!(
                    "expected a comparison operator, found `{}`",
                    other.map(|t| t.to_string()).unwrap_or_default()
                )))
            }
        };
        self.advance();
        Ok(rel)
    }

    fn expr(&mut self) -> Result<ExprAst, DddlError> {
        let mut lhs = self.term()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.advance();
            let rhs = self.term()?;
            lhs = ExprAst::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn term(&mut self) -> Result<ExprAst, DddlError> {
        let mut lhs = self.pow()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                _ => break,
            };
            self.advance();
            let rhs = self.pow()?;
            lhs = ExprAst::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn pow(&mut self) -> Result<ExprAst, DddlError> {
        let base = self.factor()?;
        if self.eat(&Token::Caret) {
            let n = self.signed_number()?;
            if n.fract() != 0.0 || n < 0.0 || n > i32::MAX as f64 {
                return Err(self.error(format!("exponent must be a non-negative integer, got {n}")));
            }
            Ok(ExprAst::Pow(Box::new(base), n as i32))
        } else {
            Ok(base)
        }
    }

    fn factor(&mut self) -> Result<ExprAst, DddlError> {
        match self.peek().cloned() {
            Some(Token::Number(x)) => {
                self.advance();
                Ok(ExprAst::Num(x))
            }
            Some(Token::Minus) => {
                self.advance();
                // Fold unary minus on a literal so `-3` is the literal -3,
                // keeping ASTs canonical for the pretty-print round-trip.
                Ok(match self.factor()? {
                    ExprAst::Num(x) => ExprAst::Num(-x),
                    other => ExprAst::Neg(Box::new(other)),
                })
            }
            Some(Token::LParen) => {
                self.advance();
                let inner = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(inner)
            }
            Some(Token::Ident(kw))
                if matches!(kw.as_str(), "sqrt" | "abs" | "exp" | "ln")
                    && self.peek_at(1) == Some(&Token::LParen) =>
            {
                self.advance();
                self.expect(&Token::LParen)?;
                let inner = self.expr()?;
                self.expect(&Token::RParen)?;
                let f = match kw.as_str() {
                    "sqrt" => UnaryFn::Sqrt,
                    "abs" => UnaryFn::Abs,
                    "exp" => UnaryFn::Exp,
                    _ => UnaryFn::Ln,
                };
                Ok(ExprAst::Unary(f, Box::new(inner)))
            }
            Some(Token::Ident(kw))
                if matches!(kw.as_str(), "min" | "max")
                    && self.peek_at(1) == Some(&Token::LParen) =>
            {
                self.advance();
                self.expect(&Token::LParen)?;
                let a = self.expr()?;
                self.expect(&Token::Comma)?;
                let b = self.expr()?;
                self.expect(&Token::RParen)?;
                let f = if kw == "min" {
                    Binary2Fn::Min
                } else {
                    Binary2Fn::Max
                };
                Ok(ExprAst::Binary2(f, Box::new(a), Box::new(b)))
            }
            Some(Token::Ident(_)) | Some(Token::Str(_)) => Ok(ExprAst::Ref(self.propref()?)),
            other => Err(self.error(format!(
                "expected an expression, found `{}`",
                other.map(|t| t.to_string()).unwrap_or_default()
            ))),
        }
    }

    fn propref(&mut self) -> Result<PropRef, DddlError> {
        let object = self.name()?;
        self.expect(&Token::Dot)?;
        let property = self.name()?;
        Ok(PropRef { object, property })
    }

    fn problem(&mut self) -> Result<ProblemDecl, DddlError> {
        self.expect_keyword("problem")?;
        let name = self.name()?;
        let parent = if matches!(self.peek(), Some(Token::Ident(kw)) if kw == "under") {
            self.advance();
            Some(self.name()?)
        } else {
            None
        };
        let mut after = Vec::new();
        if matches!(self.peek(), Some(Token::Ident(kw)) if kw == "after") {
            self.advance();
            loop {
                after.push(self.name()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        self.expect(&Token::LBrace)?;
        let mut decl = ProblemDecl {
            name,
            parent,
            after,
            inputs: Vec::new(),
            outputs: Vec::new(),
            constraints: Vec::new(),
            designer: None,
        };
        while !self.eat(&Token::RBrace) {
            let kw = self.name()?;
            match kw.as_str() {
                "outputs" => {
                    self.expect(&Token::Colon)?;
                    loop {
                        decl.outputs.push(self.propref()?);
                        if !self.eat(&Token::Comma) {
                            break;
                        }
                    }
                    self.expect(&Token::Semicolon)?;
                }
                "inputs" => {
                    self.expect(&Token::Colon)?;
                    loop {
                        decl.inputs.push(self.propref()?);
                        if !self.eat(&Token::Comma) {
                            break;
                        }
                    }
                    self.expect(&Token::Semicolon)?;
                }
                "constraints" => {
                    self.expect(&Token::Colon)?;
                    loop {
                        decl.constraints.push(self.name()?);
                        if !self.eat(&Token::Comma) {
                            break;
                        }
                    }
                    self.expect(&Token::Semicolon)?;
                }
                "designer" => {
                    let n = self.signed_number()?;
                    if n.fract() != 0.0 || n < 0.0 {
                        return Err(self.error(format!(
                            "designer index must be a non-negative integer, got {n}"
                        )));
                    }
                    decl.designer = Some(n as u32);
                    self.expect(&Token::Semicolon)?;
                }
                other => {
                    return Err(self.error(format!(
                    "expected `outputs`, `inputs`, `constraints`, or `designer`, found `{other}`"
                )))
                }
            }
        }
        Ok(decl)
    }

    // --- token plumbing -------------------------------------------------

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn peek_at(&self, offset: usize) -> Option<&Token> {
        self.tokens.get(self.pos + offset).map(|s| &s.token)
    }

    fn position(&self) -> Option<Position> {
        self.tokens.get(self.pos).map(|s| s.position)
    }

    fn advance(&mut self) {
        self.pos += 1;
    }

    fn eat(&mut self, token: &Token) -> bool {
        if self.peek() == Some(token) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: &Token) -> Result<(), DddlError> {
        if self.eat(token) {
            Ok(())
        } else {
            Err(self.error(format!(
                "expected `{token}`, found `{}`",
                self.peek().map(|t| t.to_string()).unwrap_or_default()
            )))
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), DddlError> {
        match self.peek() {
            Some(Token::Ident(s)) if s == kw => {
                self.advance();
                Ok(())
            }
            other => Err(self.error(format!(
                "expected `{kw}`, found `{}`",
                other.map(|t| t.to_string()).unwrap_or_default()
            ))),
        }
    }

    /// A name: bare identifier or quoted string.
    fn name(&mut self) -> Result<String, DddlError> {
        match self.peek().cloned() {
            Some(Token::Ident(s)) => {
                self.advance();
                Ok(s)
            }
            Some(Token::Str(s)) => {
                self.advance();
                Ok(s)
            }
            other => Err(self.error(format!(
                "expected a name, found `{}`",
                other.map(|t| t.to_string()).unwrap_or_default()
            ))),
        }
    }

    fn signed_number(&mut self) -> Result<f64, DddlError> {
        let negative = self.eat(&Token::Minus);
        match self.peek().cloned() {
            Some(Token::Number(x)) => {
                self.advance();
                Ok(if negative { -x } else { x })
            }
            other => Err(self.error(format!(
                "expected a number, found `{}`",
                other.map(|t| t.to_string()).unwrap_or_default()
            ))),
        }
    }

    fn error(&self, message: String) -> DddlError {
        DddlError::Parse {
            position: self.position(),
            message,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_object_with_all_property_options() {
        let ast = parse(
            r#"
            object "LNA+Mixer" {
                property Diff-pair-W : interval(0.5, 10) units "um"
                    levels [Transistor, Geometry];
                property n-stages : set(1, 2, 3);
                property level : choice(Transistor, Geometry);
                property shielded : bool;
                property P-max : interval(0, 300) init 200;
            }
            "#,
        )
        .unwrap();
        assert_eq!(ast.objects.len(), 1);
        let obj = &ast.objects[0];
        assert_eq!(obj.name, "LNA+Mixer");
        assert_eq!(obj.properties.len(), 5);
        assert_eq!(obj.properties[0].units.as_deref(), Some("um"));
        assert_eq!(obj.properties[0].levels, vec!["Transistor", "Geometry"]);
        assert_eq!(
            obj.properties[1].domain,
            DomainDecl::Set(vec![1.0, 2.0, 3.0])
        );
        assert_eq!(
            obj.properties[2].domain,
            DomainDecl::Choice(vec!["Transistor".into(), "Geometry".into()])
        );
        assert_eq!(obj.properties[3].domain, DomainDecl::Bool);
        assert_eq!(obj.properties[4].init, Some(200.0));
    }

    #[test]
    fn parses_soft_constraint_modifier() {
        let ast = parse(
            r#"
            object o { property x : interval(0, 1); }
            soft constraint pref: o.x <= 0.5;
            constraint hard: o.x >= 0;
            "#,
        )
        .unwrap();
        assert!(ast.constraints[0].soft);
        assert!(!ast.constraints[1].soft);
        // `soft` must be followed by `constraint`.
        assert!(parse("soft object o { }").is_err());
    }

    #[test]
    fn parses_constraint_with_precedence() {
        let ast = parse(
            r#"
            object o { property x : interval(0, 1); property y : interval(0, 1); }
            constraint c: o.x + o.y * 2 <= 5;
            "#,
        )
        .unwrap();
        let c = &ast.constraints[0];
        // x + (y * 2), not (x + y) * 2
        match &c.lhs {
            ExprAst::Bin(BinOp::Add, _, rhs) => {
                assert!(matches!(rhs.as_ref(), ExprAst::Bin(BinOp::Mul, _, _)));
            }
            other => panic!("unexpected lhs: {other:?}"),
        }
        assert_eq!(c.rel, RelOp::Le);
    }

    #[test]
    fn parses_functions_powers_and_negation() {
        let ast = parse(
            r#"
            object o { property x : interval(0.1, 1); }
            constraint c: sqrt(o.x) + abs(-o.x) + exp(o.x) + ln(o.x)
                          + min(o.x, 1) + max(o.x, 0) + o.x^2 <= 100;
            "#,
        )
        .unwrap();
        assert_eq!(ast.constraints.len(), 1);
    }

    #[test]
    fn parses_monotonic_clauses_like_the_paper() {
        // Mirrors the paper's filter-loss example: decreasing in resonator
        // length, increasing in beam width.
        let ast = parse(
            r#"
            object Filter {
                property res-len : interval(5, 20);
                property beam-w : interval(1, 4);
            }
            constraint FilterLoss: 100 / Filter.res-len - Filter.beam-w <= 10
                monotonic decreasing in Filter.res-len,
                          increasing in Filter.beam-w;
            "#,
        )
        .unwrap();
        let mono = &ast.constraints[0].monotonic;
        assert_eq!(mono.len(), 2);
        assert!(!mono[0].increasing);
        assert_eq!(mono[0].property.property, "res-len");
        assert!(mono[1].increasing);
    }

    #[test]
    fn parses_problem_hierarchy() {
        let ast = parse(
            r#"
            object o { property x : interval(0, 1); property y : interval(0, 1); }
            constraint c: o.x <= o.y;
            problem top { constraints: c; }
            problem analog under top { outputs: o.x; designer 0; }
            problem filter under top { outputs: o.y; inputs: o.x; designer 1; }
            "#,
        )
        .unwrap();
        assert_eq!(ast.problems.len(), 3);
        assert_eq!(ast.problems[0].parent, None);
        assert_eq!(ast.problems[1].parent.as_deref(), Some("top"));
        assert_eq!(ast.problems[1].designer, Some(0));
        assert_eq!(ast.problems[2].inputs.len(), 1);
        assert_eq!(ast.problems[0].constraints, vec!["c"]);
    }

    #[test]
    fn parses_problem_ordering() {
        let ast = parse(
            r#"
            object o { property x : interval(0, 1); property y : interval(0, 1); }
            problem top { }
            problem a under top { outputs: o.x; designer 0; }
            problem b under top after a { outputs: o.y; designer 1; }
            "#,
        )
        .unwrap();
        assert!(ast.problems[1].after.is_empty());
        assert_eq!(ast.problems[2].after, vec!["a"]);
    }

    #[test]
    fn relational_operators_all_parse() {
        for (src, rel) in [
            ("<=", RelOp::Le),
            ("<", RelOp::Lt),
            (">=", RelOp::Ge),
            (">", RelOp::Gt),
            ("==", RelOp::Eq),
        ] {
            let ast = parse(&format!(
                "object o {{ property x : interval(0, 1); }} constraint c: o.x {src} 1;"
            ))
            .unwrap();
            assert_eq!(ast.constraints[0].rel, rel);
        }
    }

    #[test]
    fn error_reports_position() {
        let err = parse("object o { property x }").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("parse error at 1:"), "{msg}");
    }

    #[test]
    fn error_on_bad_exponent() {
        let err = parse("object o { property x : interval(0, 1); } constraint c: o.x ^ 1.5 <= 1;")
            .unwrap_err();
        assert!(err.to_string().contains("exponent"));
    }

    #[test]
    fn error_at_end_of_input() {
        let err = parse("object o {").unwrap_err();
        assert!(err.to_string().contains("end of input"));
    }

    #[test]
    fn empty_source_is_an_empty_scenario() {
        let ast = parse("  // nothing here\n").unwrap();
        assert!(ast.objects.is_empty());
    }
}
