//! Pretty-printer: turns a [`ScenarioAst`] back into DDDL source text.
//!
//! Useful for exporting programmatically built scenarios, normalizing
//! hand-written ones, and (in tests) for the parse → print → parse
//! round-trip property that pins the grammar down.

use crate::ast::*;
use std::fmt::Write as _;

/// Renders a scenario as DDDL source text that [`crate::parse`] accepts
/// and that parses back to an equivalent AST.
pub fn to_source(ast: &ScenarioAst) -> String {
    let mut out = String::new();
    for object in &ast.objects {
        let _ = writeln!(out, "object {} {{", name(&object.name));
        for p in &object.properties {
            let _ = write!(
                out,
                "    property {} : {}",
                name(&p.name),
                domain(&p.domain)
            );
            if let Some(units) = &p.units {
                let _ = write!(out, " units \"{}\"", escape(units));
            }
            if !p.levels.is_empty() {
                let levels: Vec<String> = p.levels.iter().map(|l| name(l)).collect();
                let _ = write!(out, " levels [{}]", levels.join(", "));
            }
            if let Some(init) = p.init {
                let _ = write!(out, " init {}", number(init));
            }
            let _ = writeln!(out, ";");
        }
        let _ = writeln!(out, "}}");
    }
    for c in &ast.constraints {
        let _ = write!(
            out,
            "{}constraint {}: {} {} {}",
            if c.soft { "soft " } else { "" },
            name(&c.name),
            expr(&c.lhs),
            rel(c.rel),
            expr(&c.rhs)
        );
        if !c.monotonic.is_empty() {
            let clauses: Vec<String> = c
                .monotonic
                .iter()
                .map(|m| {
                    format!(
                        "{} in {}.{}",
                        if m.increasing {
                            "increasing"
                        } else {
                            "decreasing"
                        },
                        name(&m.property.object),
                        name(&m.property.property)
                    )
                })
                .collect();
            let _ = write!(out, " monotonic {}", clauses.join(", "));
        }
        let _ = writeln!(out, ";");
    }
    for p in &ast.problems {
        let _ = write!(out, "problem {}", name(&p.name));
        if let Some(parent) = &p.parent {
            let _ = write!(out, " under {}", name(parent));
        }
        if !p.after.is_empty() {
            let names: Vec<String> = p.after.iter().map(|a| name(a)).collect();
            let _ = write!(out, " after {}", names.join(", "));
        }
        let _ = writeln!(out, " {{");
        if !p.outputs.is_empty() {
            let _ = writeln!(out, "    outputs: {};", refs(&p.outputs));
        }
        if !p.inputs.is_empty() {
            let _ = writeln!(out, "    inputs: {};", refs(&p.inputs));
        }
        if !p.constraints.is_empty() {
            let names: Vec<String> = p.constraints.iter().map(|c| name(c)).collect();
            let _ = writeln!(out, "    constraints: {};", names.join(", "));
        }
        if let Some(d) = p.designer {
            let _ = writeln!(out, "    designer {d};");
        }
        let _ = writeln!(out, "}}");
    }
    out
}

fn refs(list: &[PropRef]) -> String {
    list.iter()
        .map(|r| format!("{}.{}", name(&r.object), name(&r.property)))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Quotes a name unless it is a plain identifier the lexer keeps whole.
fn name(s: &str) -> String {
    let plain = !s.is_empty()
        && s.chars()
            .next()
            .map(|c| c.is_ascii_alphabetic() || c == '_')
            == Some(true)
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        && !s.ends_with('-');
    if plain {
        s.to_owned()
    } else {
        format!("\"{}\"", escape(s))
    }
}

fn escape(s: &str) -> String {
    s.replace('"', "\\\"")
}

/// Prints a number so it re-parses exactly (the lexer has no leading `-` in
/// numeric literals inside expressions, so negatives become unary minus).
fn number(x: f64) -> String {
    if x < 0.0 {
        format!("-{}", fmt_f64(-x))
    } else {
        fmt_f64(x)
    }
}

fn fmt_f64(x: f64) -> String {
    // `{:?}` prints enough digits to round-trip f64 exactly.
    let s = format!("{x:?}");
    s.strip_suffix(".0").map(str::to_owned).unwrap_or(s)
}

fn rel(r: RelOp) -> &'static str {
    match r {
        RelOp::Le => "<=",
        RelOp::Lt => "<",
        RelOp::Ge => ">=",
        RelOp::Gt => ">",
        RelOp::Eq => "==",
    }
}

fn domain(d: &DomainDecl) -> String {
    match d {
        DomainDecl::Interval(lo, hi) => format!("interval({}, {})", number(*lo), number(*hi)),
        DomainDecl::Set(values) => format!(
            "set({})",
            values
                .iter()
                .map(|v| number(*v))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        DomainDecl::Choice(values) => format!(
            "choice({})",
            values
                .iter()
                .map(|v| name(v))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        DomainDecl::Bool => "bool".to_owned(),
    }
}

/// Fully parenthesized expression printing: correctness over beauty, and
/// guaranteed precedence-safe round-trips.
fn expr(e: &ExprAst) -> String {
    match e {
        ExprAst::Num(x) => {
            if *x < 0.0 {
                format!("({})", number(*x))
            } else {
                number(*x)
            }
        }
        ExprAst::Ref(r) => format!("{}.{}", name(&r.object), name(&r.property)),
        ExprAst::Neg(inner) => format!("(-{})", expr(inner)),
        ExprAst::Unary(f, inner) => {
            let fname = match f {
                UnaryFn::Sqrt => "sqrt",
                UnaryFn::Abs => "abs",
                UnaryFn::Exp => "exp",
                UnaryFn::Ln => "ln",
            };
            format!("{fname}({})", expr(inner))
        }
        ExprAst::Binary2(f, a, b) => {
            let fname = match f {
                Binary2Fn::Min => "min",
                Binary2Fn::Max => "max",
            };
            format!("{fname}({}, {})", expr(a), expr(b))
        }
        ExprAst::Bin(op, a, b) => {
            let symbol = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
            };
            format!("({} {} {})", expr(a), symbol, expr(b))
        }
        ExprAst::Pow(base, n) => format!("({} ^ {n})", expr(base)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn round_trip(source: &str) -> (ScenarioAst, ScenarioAst) {
        let first = parse(source).expect("valid source");
        let printed = to_source(&first);
        let second = parse(&printed).unwrap_or_else(|e| panic!("re-parse failed: {e}\n{printed}"));
        (first, second)
    }

    #[test]
    fn round_trips_full_feature_scenario() {
        let (a, b) = round_trip(
            r#"
            object "LNA+Mixer" {
                property Diff-pair-W : interval(0.5, 10) units "um"
                    levels [Transistor, Geometry];
                property n-stages : set(1, 2, 3) init 2;
                property mode : choice(fast, "low power");
                property shielded : bool;
            }
            constraint Gain: 20 * sqrt(2 * "LNA+Mixer".Diff-pair-W) >= 48
                monotonic increasing in "LNA+Mixer".Diff-pair-W;
            constraint Mix: min("LNA+Mixer".n-stages, 2)
                + max(abs(-"LNA+Mixer".Diff-pair-W), 1)
                - exp(ln("LNA+Mixer".Diff-pair-W)) / ("LNA+Mixer".n-stages ^ 2) <= 100;
            problem top { constraints: Gain, Mix; designer 0; }
            problem sub under top {
                outputs: "LNA+Mixer".Diff-pair-W, "LNA+Mixer".n-stages;
                inputs: "LNA+Mixer".mode;
                designer 1;
            }
            problem late under top after sub { designer 0; }
            "#,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn round_trips_the_embedded_paper_scenarios() {
        for source in [
            adpm_sources::SENSING,
            adpm_sources::RECEIVER,
            adpm_sources::WALKTHROUGH,
        ] {
            let (a, b) = round_trip(source);
            assert_eq!(a, b);
        }
    }

    /// The scenarios crate depends on this crate, so its DDDL sources are
    /// duplicated here (kept deliberately small) purely as round-trip
    /// fodder; the real sources live in `adpm-scenarios` and are tested
    /// there for semantics.
    mod adpm_sources {
        pub const SENSING: &str = r#"
            object system { property req : interval(0.1, 10) init 1.0; }
            object sensor { property s-area : interval(0.5, 6) units "mm2"; }
            constraint MeetArea: sensor.s-area <= system.req * 8;
            problem sensing-system { constraints: MeetArea; designer 0; }
        "#;
        pub const RECEIVER: &str = r#"
            object lna-mixer { property freq-ind : interval(0.05, 0.5) units "uH"; }
            constraint IndGain: 400 * lna-mixer.freq-ind >= 48
                monotonic increasing in lna-mixer.freq-ind;
            problem rx { outputs: lna-mixer.freq-ind; designer 0; }
        "#;
        pub const WALKTHROUGH: &str = r#"
            object Filter { property beam-len : interval(5, 30); }
            constraint FilterLoss: 32.12 - Filter.beam-len <= 25;
            problem mems { outputs: Filter.beam-len; designer 2; }
        "#;
    }

    #[test]
    fn names_are_quoted_only_when_needed() {
        assert_eq!(name("beam-len"), "beam-len");
        assert_eq!(name("LNA+Mixer"), "\"LNA+Mixer\"");
        assert_eq!(name("3rd"), "\"3rd\"");
        assert_eq!(name("trailing-"), "\"trailing-\"");
        assert_eq!(name("with space"), "\"with space\"");
        assert_eq!(name("with\"quote"), "\"with\\\"quote\"");
    }

    #[test]
    fn numbers_round_trip_exactly() {
        for x in [0.0, 1.5, 0.1234567890123, 1e-9, 2e12, 32.12] {
            let printed = number(x);
            let parsed: f64 = printed.parse().expect("parses");
            assert_eq!(parsed, x, "printed as {printed}");
        }
    }

    #[test]
    fn negative_literals_become_unary_minus() {
        let ast =
            parse("object o { property x : interval(-5, 5) init -2; } constraint c: o.x >= -4;")
                .expect("valid");
        let printed = to_source(&ast);
        let again = parse(&printed).expect("re-parses");
        assert_eq!(ast, again);
    }

    #[test]
    fn empty_scenario_prints_empty() {
        assert_eq!(to_source(&ScenarioAst::default()), "");
    }
}
