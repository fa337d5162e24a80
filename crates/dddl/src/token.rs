//! Lexer for the DDDL design-description language.
//!
//! DDDL (paper §3.1.2, after Sutton & Director's description language) lets
//! a scenario author declare property types, constraints, problems,
//! decompositions, and constraint monotonicity. The token stream carries
//! line/column positions for error reporting.

use crate::error::{DddlError, Position};
use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword (`property`, `Diff_pair_W`, ...).
    Ident(String),
    /// A double-quoted string literal (quotes removed, escapes resolved).
    Str(String),
    /// A numeric literal.
    Number(f64),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `:`
    Colon,
    /// `;`
    Semicolon,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `^`
    Caret,
    /// `<=`
    Le,
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `>`
    Gt,
    /// `==`
    EqEq,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Str(s) => write!(f, "\"{s}\""),
            Token::Number(x) => write!(f, "{x}"),
            Token::LBrace => f.write_str("{"),
            Token::RBrace => f.write_str("}"),
            Token::LParen => f.write_str("("),
            Token::RParen => f.write_str(")"),
            Token::LBracket => f.write_str("["),
            Token::RBracket => f.write_str("]"),
            Token::Colon => f.write_str(":"),
            Token::Semicolon => f.write_str(";"),
            Token::Comma => f.write_str(","),
            Token::Dot => f.write_str("."),
            Token::Plus => f.write_str("+"),
            Token::Minus => f.write_str("-"),
            Token::Star => f.write_str("*"),
            Token::Slash => f.write_str("/"),
            Token::Caret => f.write_str("^"),
            Token::Le => f.write_str("<="),
            Token::Lt => f.write_str("<"),
            Token::Ge => f.write_str(">="),
            Token::Gt => f.write_str(">"),
            Token::EqEq => f.write_str("=="),
        }
    }
}

/// A token with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The token.
    pub token: Token,
    /// Where it begins in the source text.
    pub position: Position,
}

/// Tokenizes DDDL source text.
///
/// Comments run from `//` to end of line. Identifiers may contain ASCII
/// letters, digits, `_` and `-` (but must start with a letter, and a `-`
/// must be followed by an alphanumeric to stay inside the identifier —
/// `beam-len` lexes as one identifier while `a - b` is a subtraction).
///
/// # Errors
///
/// Returns [`DddlError::Lex`] on unterminated strings, malformed numbers,
/// or unexpected characters.
///
/// # Examples
///
/// ```
/// use adpm_dddl::token::{tokenize, Token};
/// let tokens = tokenize("property beam-len : interval(5, 20);")?;
/// assert_eq!(tokens[1].token, Token::Ident("beam-len".into()));
/// # Ok::<(), adpm_dddl::DddlError>(())
/// ```
pub fn tokenize(source: &str) -> Result<Vec<Spanned>, DddlError> {
    let mut tokens = Vec::new();
    let chars: Vec<char> = source.chars().collect();
    let mut i = 0;
    let mut line = 1u32;
    let mut col = 1u32;

    let advance = |i: &mut usize, line: &mut u32, col: &mut u32, c: char| {
        *i += 1;
        if c == '\n' {
            *line += 1;
            *col = 1;
        } else {
            *col += 1;
        }
    };

    while i < chars.len() {
        let c = chars[i];
        let position = Position { line, column: col };
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                advance(&mut i, &mut line, &mut col, c);
            }
            '/' if chars.get(i + 1) == Some(&'/') => {
                while i < chars.len() && chars[i] != '\n' {
                    let ch = chars[i];
                    advance(&mut i, &mut line, &mut col, ch);
                }
            }
            '"' => {
                advance(&mut i, &mut line, &mut col, c);
                let mut s = String::new();
                loop {
                    match chars.get(i) {
                        None | Some('\n') => {
                            return Err(DddlError::Lex {
                                position,
                                message: "unterminated string literal".into(),
                            })
                        }
                        Some('"') => {
                            advance(&mut i, &mut line, &mut col, '"');
                            break;
                        }
                        Some('\\') if chars.get(i + 1) == Some(&'"') => {
                            s.push('"');
                            advance(&mut i, &mut line, &mut col, '\\');
                            advance(&mut i, &mut line, &mut col, '"');
                        }
                        Some(&ch) => {
                            s.push(ch);
                            advance(&mut i, &mut line, &mut col, ch);
                        }
                    }
                }
                tokens.push(Spanned {
                    token: Token::Str(s),
                    position,
                });
            }
            c if c.is_ascii_digit() => {
                let mut s = String::new();
                while let Some(&ch) = chars.get(i) {
                    if ch.is_ascii_digit() || ch == '.' {
                        s.push(ch);
                        advance(&mut i, &mut line, &mut col, ch);
                    } else if (ch == 'e' || ch == 'E')
                        && chars
                            .get(i + 1)
                            .map(|n| n.is_ascii_digit() || *n == '-' || *n == '+')
                            .unwrap_or(false)
                    {
                        s.push(ch);
                        advance(&mut i, &mut line, &mut col, ch);
                        let sign = chars[i];
                        if sign == '-' || sign == '+' {
                            s.push(sign);
                            advance(&mut i, &mut line, &mut col, sign);
                        }
                    } else {
                        break;
                    }
                }
                let value: f64 = s.parse().map_err(|_| DddlError::Lex {
                    position,
                    message: format!("malformed number `{s}`"),
                })?;
                tokens.push(Spanned {
                    token: Token::Number(value),
                    position,
                });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&ch) = chars.get(i) {
                    let keep = ch.is_ascii_alphanumeric()
                        || ch == '_'
                        || (ch == '-'
                            && chars
                                .get(i + 1)
                                .map(|n| n.is_ascii_alphanumeric() || *n == '_')
                                .unwrap_or(false));
                    if keep {
                        s.push(ch);
                        advance(&mut i, &mut line, &mut col, ch);
                    } else {
                        break;
                    }
                }
                tokens.push(Spanned {
                    token: Token::Ident(s),
                    position,
                });
            }
            '<' => {
                advance(&mut i, &mut line, &mut col, c);
                if chars.get(i) == Some(&'=') {
                    advance(&mut i, &mut line, &mut col, '=');
                    tokens.push(Spanned {
                        token: Token::Le,
                        position,
                    });
                } else {
                    tokens.push(Spanned {
                        token: Token::Lt,
                        position,
                    });
                }
            }
            '>' => {
                advance(&mut i, &mut line, &mut col, c);
                if chars.get(i) == Some(&'=') {
                    advance(&mut i, &mut line, &mut col, '=');
                    tokens.push(Spanned {
                        token: Token::Ge,
                        position,
                    });
                } else {
                    tokens.push(Spanned {
                        token: Token::Gt,
                        position,
                    });
                }
            }
            '=' if chars.get(i + 1) == Some(&'=') => {
                advance(&mut i, &mut line, &mut col, '=');
                advance(&mut i, &mut line, &mut col, '=');
                tokens.push(Spanned {
                    token: Token::EqEq,
                    position,
                });
            }
            _ => {
                let token = match c {
                    '{' => Token::LBrace,
                    '}' => Token::RBrace,
                    '(' => Token::LParen,
                    ')' => Token::RParen,
                    '[' => Token::LBracket,
                    ']' => Token::RBracket,
                    ':' => Token::Colon,
                    ';' => Token::Semicolon,
                    ',' => Token::Comma,
                    '.' => Token::Dot,
                    '+' => Token::Plus,
                    '-' => Token::Minus,
                    '*' => Token::Star,
                    '/' => Token::Slash,
                    '^' => Token::Caret,
                    other => {
                        return Err(DddlError::Lex {
                            position,
                            message: format!("unexpected character `{other}`"),
                        })
                    }
                };
                advance(&mut i, &mut line, &mut col, c);
                tokens.push(Spanned { token, position });
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Token> {
        tokenize(src)
            .unwrap()
            .into_iter()
            .map(|s| s.token)
            .collect()
    }

    #[test]
    fn lexes_punctuation_and_operators() {
        assert_eq!(
            kinds("{ } ( ) [ ] : ; , . + - * / ^"),
            vec![
                Token::LBrace,
                Token::RBrace,
                Token::LParen,
                Token::RParen,
                Token::LBracket,
                Token::RBracket,
                Token::Colon,
                Token::Semicolon,
                Token::Comma,
                Token::Dot,
                Token::Plus,
                Token::Minus,
                Token::Star,
                Token::Slash,
                Token::Caret,
            ]
        );
    }

    #[test]
    fn lexes_comparison_operators() {
        assert_eq!(
            kinds("<= < >= > =="),
            vec![Token::Le, Token::Lt, Token::Ge, Token::Gt, Token::EqEq]
        );
    }

    #[test]
    fn identifiers_may_contain_dashes_but_subtraction_survives() {
        assert_eq!(kinds("beam-len"), vec![Token::Ident("beam-len".into())]);
        assert_eq!(
            kinds("a - b"),
            vec![
                Token::Ident("a".into()),
                Token::Minus,
                Token::Ident("b".into()),
            ]
        );
        // A dash glued to the left operand but followed by space stays a minus.
        assert_eq!(
            kinds("a- b"),
            vec![
                Token::Ident("a".into()),
                Token::Minus,
                Token::Ident("b".into()),
            ]
        );
    }

    #[test]
    fn numbers_with_decimals_and_exponents() {
        assert_eq!(kinds("0.5"), vec![Token::Number(0.5)]);
        assert_eq!(kinds("2e3"), vec![Token::Number(2000.0)]);
        assert_eq!(kinds("1.5e-2"), vec![Token::Number(0.015)]);
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            kinds(r#""LNA+Mixer" "say \"hi\"""#),
            vec![
                Token::Str("LNA+Mixer".into()),
                Token::Str("say \"hi\"".into()),
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("a // comment with ; tokens\nb"),
            vec![Token::Ident("a".into()), Token::Ident("b".into())]
        );
    }

    #[test]
    fn positions_track_lines_and_columns() {
        let tokens = tokenize("a\n  b").unwrap();
        assert_eq!(tokens[0].position, Position { line: 1, column: 1 });
        assert_eq!(tokens[1].position, Position { line: 2, column: 3 });
    }

    #[test]
    fn unterminated_string_is_an_error() {
        let err = tokenize("\"oops").unwrap_err();
        assert!(err.to_string().contains("unterminated"));
    }

    #[test]
    fn unexpected_character_is_an_error() {
        let err = tokenize("@").unwrap_err();
        assert!(err.to_string().contains("unexpected character"));
    }
}
