//! The lexer: source text → token stream.
//!
//! Newlines are significant (statement separators); `!` starts a comment
//! running to end of line; identifiers and keywords are case-insensitive
//! (normalized to lower case) as in FORTRAN.

use crate::FrontendError;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword (lower-cased).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Real literal.
    Real(f64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `=`
    Assign,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `.and.`
    And,
    /// `.or.`
    Or,
    /// `.not.`
    Not,
    /// `->` (unused in the surface language but reserved)
    Arrow,
    /// One or more newlines.
    Newline,
}

/// A token plus its 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The token.
    pub tok: Tok,
    /// 1-based line number.
    pub line: usize,
}

/// Tokenize `source`.
///
/// # Errors
/// Returns a [`FrontendError`] on malformed numbers or stray characters.
pub fn lex(source: &str) -> Result<Vec<Spanned>, FrontendError> {
    let mut out: Vec<Spanned> = Vec::new();
    let bytes = source.as_bytes();
    let mut i = 0;
    let mut line = 1;
    let n = bytes.len();

    let err = |line: usize, m: String| FrontendError { line, message: m };

    while i < n {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' => i += 1,
            '!' => {
                // `!=` is the not-equal operator; a lone `!` starts a
                // comment running to end of line.
                if i + 1 < n && bytes[i + 1] == b'=' {
                    out.push(Spanned { tok: Tok::Ne, line });
                    i += 2;
                } else {
                    while i < n && bytes[i] != b'\n' {
                        i += 1;
                    }
                }
            }
            '\n' => {
                if !matches!(out.last(), Some(Spanned { tok: Tok::Newline, .. }) | None) {
                    out.push(Spanned { tok: Tok::Newline, line });
                }
                line += 1;
                i += 1;
            }
            '(' => {
                out.push(Spanned { tok: Tok::LParen, line });
                i += 1;
            }
            ')' => {
                out.push(Spanned { tok: Tok::RParen, line });
                i += 1;
            }
            ',' => {
                out.push(Spanned { tok: Tok::Comma, line });
                i += 1;
            }
            '+' => {
                out.push(Spanned { tok: Tok::Plus, line });
                i += 1;
            }
            '*' => {
                out.push(Spanned { tok: Tok::Star, line });
                i += 1;
            }
            '/' => {
                out.push(Spanned { tok: Tok::Slash, line });
                i += 1;
            }
            '-' => {
                if i + 1 < n && bytes[i + 1] == b'>' {
                    out.push(Spanned { tok: Tok::Arrow, line });
                    i += 2;
                } else {
                    out.push(Spanned { tok: Tok::Minus, line });
                    i += 1;
                }
            }
            '=' => {
                if i + 1 < n && bytes[i + 1] == b'=' {
                    out.push(Spanned { tok: Tok::Eq, line });
                    i += 2;
                } else {
                    out.push(Spanned { tok: Tok::Assign, line });
                    i += 1;
                }
            }
            '<' => {
                if i + 1 < n && bytes[i + 1] == b'=' {
                    out.push(Spanned { tok: Tok::Le, line });
                    i += 2;
                } else {
                    out.push(Spanned { tok: Tok::Lt, line });
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < n && bytes[i + 1] == b'=' {
                    out.push(Spanned { tok: Tok::Ge, line });
                    i += 2;
                } else {
                    out.push(Spanned { tok: Tok::Gt, line });
                    i += 1;
                }
            }
            '.' => {
                // Either a dotted operator (.and. / .or. / .not.) or the
                // start of a real literal like `.5`.
                let rest = &source[i..];
                let lower = rest.to_ascii_lowercase();
                if lower.starts_with(".and.") {
                    out.push(Spanned { tok: Tok::And, line });
                    i += 5;
                } else if lower.starts_with(".or.") {
                    out.push(Spanned { tok: Tok::Or, line });
                    i += 4;
                } else if lower.starts_with(".not.") {
                    out.push(Spanned { tok: Tok::Not, line });
                    i += 5;
                } else if i + 1 < n && bytes[i + 1].is_ascii_digit() {
                    let (tok, len) = lex_number(&source[i..], line)?;
                    out.push(Spanned { tok, line });
                    i += len;
                } else {
                    return Err(err(line, format!("unexpected character `{c}`")));
                }
            }
            '0'..='9' => {
                let (tok, len) = lex_number(&source[i..], line)?;
                out.push(Spanned { tok, line });
                i += len;
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < n && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = source[start..i].to_ascii_lowercase();
                out.push(Spanned { tok: Tok::Ident(word), line });
            }
            _ => return Err(err(line, format!("unexpected character `{c}`"))),
        }
    }
    out.push(Spanned { tok: Tok::Newline, line });
    Ok(out)
}

/// Lex a number starting at the head of `s`; returns the token and its
/// byte length. Accepts `123`, `1.5`, `.5`, `1e-3`, `2.5e+4`, `1d0`
/// (FORTRAN double exponent `d` treated as `e`).
fn lex_number(s: &str, line: usize) -> Result<(Tok, usize), FrontendError> {
    let bytes = s.as_bytes();
    let mut i = 0;
    let n = bytes.len();
    let mut is_real = false;
    while i < n && bytes[i].is_ascii_digit() {
        i += 1;
    }
    if i < n && bytes[i] == b'.' {
        // Not a dotted operator: require a digit or end after the dot.
        let after = &s[i + 1..].to_ascii_lowercase();
        if !(after.starts_with("and.") || after.starts_with("or.") || after.starts_with("not.")) {
            is_real = true;
            i += 1;
            while i < n && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
    }
    if i < n && matches!(bytes[i], b'e' | b'E' | b'd' | b'D') {
        let mut j = i + 1;
        if j < n && matches!(bytes[j], b'+' | b'-') {
            j += 1;
        }
        if j < n && bytes[j].is_ascii_digit() {
            is_real = true;
            i = j;
            while i < n && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
    }
    let text = s[..i].to_ascii_lowercase().replace('d', "e");
    if is_real {
        text.parse::<f64>()
            .map(|v| (Tok::Real(v), i))
            .map_err(|_| FrontendError { line, message: format!("bad real literal `{text}`") })
    } else {
        text.parse::<i64>()
            .map(|v| (Tok::Int(v), i))
            .map_err(|_| FrontendError { line, message: format!("bad integer literal `{text}`") })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn keywords_and_idents_lowercase() {
        assert_eq!(
            toks("Function FOO"),
            vec![Tok::Ident("function".into()), Tok::Ident("foo".into()), Tok::Newline]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(toks("42"), vec![Tok::Int(42), Tok::Newline]);
        assert_eq!(toks("1.5"), vec![Tok::Real(1.5), Tok::Newline]);
        assert_eq!(toks(".25"), vec![Tok::Real(0.25), Tok::Newline]);
        assert_eq!(toks("1e3"), vec![Tok::Real(1000.0), Tok::Newline]);
        assert_eq!(toks("2.5e-1"), vec![Tok::Real(0.25), Tok::Newline]);
        assert_eq!(toks("1d0"), vec![Tok::Real(1.0), Tok::Newline]);
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("a <= b == c != d"),
            vec![
                Tok::Ident("a".into()),
                Tok::Le,
                Tok::Ident("b".into()),
                Tok::Eq,
                Tok::Ident("c".into()),
                Tok::Ne,
                Tok::Ident("d".into()),
                Tok::Newline
            ]
        );
    }

    #[test]
    fn dotted_operators_and_real_after_int() {
        assert_eq!(
            toks("a .and. b .or. .not. c"),
            vec![
                Tok::Ident("a".into()),
                Tok::And,
                Tok::Ident("b".into()),
                Tok::Or,
                Tok::Not,
                Tok::Ident("c".into()),
                Tok::Newline
            ]
        );
        // `1.and.2` lexes as Int(1) And Int(2), like FORTRAN.
        assert_eq!(toks("1.and.2"), vec![Tok::Int(1), Tok::And, Tok::Int(2), Tok::Newline]);
    }

    #[test]
    fn comments_and_newlines_collapse() {
        let t = toks("a ! comment\n\n\nb");
        assert_eq!(
            t,
            vec![Tok::Ident("a".into()), Tok::Newline, Tok::Ident("b".into()), Tok::Newline]
        );
    }

    #[test]
    fn line_numbers_track() {
        let s = lex("a\nb\n  c").unwrap();
        let find = |name: &str| s.iter().find(|t| t.tok == Tok::Ident(name.into())).unwrap().line;
        assert_eq!(find("a"), 1);
        assert_eq!(find("b"), 2);
        assert_eq!(find("c"), 3);
    }

    #[test]
    fn rejects_garbage() {
        assert!(lex("a # b").is_err());
        assert!(lex("@").is_err());
    }
}
