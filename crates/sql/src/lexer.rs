//! Hand-rolled SQL tokenizer.
//!
//! Zero dependencies, char-at-a-time, tracks 1-based line/column for every
//! token so parse and bind errors can point at the source. Keywords are not
//! distinguished here — the parser matches `Word` tokens case-insensitively
//! and keeps a reserved-word list, which keeps the lexer trivially total:
//! any ASCII word lexes, only structure can be wrong.

use crate::error::{SqlError, SqlErrorKind};

#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Identifier or keyword (case preserved; parser matches uppercase).
    Word(String),
    /// Integer literal. Stored unsigned; unary minus is applied by the parser.
    Int(u64),
    /// Floating-point literal.
    Float(f64),
    /// Single-quoted string literal, quotes stripped, `''` unescaped.
    Str(String),
    /// `$n` parameter placeholder (0-based slot index, as in the engine).
    Param(u32),
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Plus,
    Minus,
    Star,
    Slash,
    LParen,
    RParen,
    Comma,
    Dot,
    /// End of input. Always the final token; simplifies the parser.
    Eof,
}

impl TokenKind {
    /// Human-readable description used in "expected X, found {desc}" errors.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Word(w) => format!("`{w}`"),
            TokenKind::Int(v) => format!("number `{v}`"),
            TokenKind::Float(v) => format!("number `{v}`"),
            TokenKind::Str(s) => format!("string '{s}'"),
            TokenKind::Param(n) => format!("parameter `${n}`"),
            TokenKind::Eq => "`=`".into(),
            TokenKind::NotEq => "`!=`".into(),
            TokenKind::Lt => "`<`".into(),
            TokenKind::LtEq => "`<=`".into(),
            TokenKind::Gt => "`>`".into(),
            TokenKind::GtEq => "`>=`".into(),
            TokenKind::Plus => "`+`".into(),
            TokenKind::Minus => "`-`".into(),
            TokenKind::Star => "`*`".into(),
            TokenKind::Slash => "`/`".into(),
            TokenKind::LParen => "`(`".into(),
            TokenKind::RParen => "`)`".into(),
            TokenKind::Comma => "`,`".into(),
            TokenKind::Dot => "`.`".into(),
            TokenKind::Eof => "end of statement".into(),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    pub line: u32,
    pub col: u32,
}

struct Lexer<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            chars: src.chars().peekable(),
            line: 1,
            col: 1,
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next()?;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn err(&self, line: u32, col: u32, msg: impl Into<String>) -> SqlError {
        SqlError::new(SqlErrorKind::Lex, line, col, msg)
    }
}

/// Tokenize `src` into a token vector terminated by `Eof`.
///
/// Supports `-- line comments`, single-quoted strings with `''` escapes,
/// integer / float literals (with optional exponent), `$n` parameters, and
/// the operator set of the grammar (`= != <> < <= > >= + - * / ( ) , .`).
pub fn tokenize(src: &str) -> Result<Vec<Token>, SqlError> {
    let mut lx = Lexer::new(src);
    let mut out = Vec::new();
    loop {
        // Skip whitespace and `--` comments.
        loop {
            match lx.peek() {
                Some(c) if c.is_whitespace() => {
                    lx.bump();
                }
                Some('-') => {
                    // Lookahead for a second '-' without consuming on miss:
                    // clone the iterator (cheap — it's a &str cursor).
                    let mut ahead = lx.chars.clone();
                    ahead.next();
                    if ahead.next() == Some('-') {
                        while let Some(c) = lx.peek() {
                            lx.bump();
                            if c == '\n' {
                                break;
                            }
                        }
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
        let (line, col) = (lx.line, lx.col);
        let Some(c) = lx.peek() else {
            out.push(Token {
                kind: TokenKind::Eof,
                line,
                col,
            });
            return Ok(out);
        };
        let kind = match c {
            'a'..='z' | 'A'..='Z' | '_' => {
                let mut w = String::new();
                while let Some(c) = lx.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' {
                        w.push(c);
                        lx.bump();
                    } else {
                        break;
                    }
                }
                TokenKind::Word(w)
            }
            '0'..='9' => lex_number(&mut lx, line, col)?,
            '\'' => {
                lx.bump();
                let mut s = String::new();
                loop {
                    match lx.bump() {
                        Some('\'') => {
                            if lx.peek() == Some('\'') {
                                lx.bump();
                                s.push('\'');
                            } else {
                                break;
                            }
                        }
                        Some(c) => s.push(c),
                        None => {
                            return Err(lx.err(line, col, "unterminated string literal"));
                        }
                    }
                }
                TokenKind::Str(s)
            }
            '$' => {
                lx.bump();
                let mut digits = String::new();
                while let Some(c) = lx.peek() {
                    if c.is_ascii_digit() {
                        digits.push(c);
                        lx.bump();
                    } else {
                        break;
                    }
                }
                if digits.is_empty() {
                    return Err(lx.err(line, col, "expected a slot number after `$`"));
                }
                let n: u32 = digits.parse().map_err(|_| {
                    lx.err(line, col, format!("parameter `${digits}` is out of range"))
                })?;
                TokenKind::Param(n)
            }
            '=' => {
                lx.bump();
                TokenKind::Eq
            }
            '!' => {
                lx.bump();
                if lx.peek() == Some('=') {
                    lx.bump();
                    TokenKind::NotEq
                } else {
                    return Err(lx.err(line, col, "unexpected character `!` (did you mean `!=`?)"));
                }
            }
            '<' => {
                lx.bump();
                match lx.peek() {
                    Some('=') => {
                        lx.bump();
                        TokenKind::LtEq
                    }
                    Some('>') => {
                        lx.bump();
                        TokenKind::NotEq
                    }
                    _ => TokenKind::Lt,
                }
            }
            '>' => {
                lx.bump();
                if lx.peek() == Some('=') {
                    lx.bump();
                    TokenKind::GtEq
                } else {
                    TokenKind::Gt
                }
            }
            '+' => {
                lx.bump();
                TokenKind::Plus
            }
            '-' => {
                lx.bump();
                TokenKind::Minus
            }
            '*' => {
                lx.bump();
                TokenKind::Star
            }
            '/' => {
                lx.bump();
                TokenKind::Slash
            }
            '(' => {
                lx.bump();
                TokenKind::LParen
            }
            ')' => {
                lx.bump();
                TokenKind::RParen
            }
            ',' => {
                lx.bump();
                TokenKind::Comma
            }
            '.' => {
                lx.bump();
                TokenKind::Dot
            }
            ';' => {
                // A single trailing semicolon is tolerated; anything after it
                // is rejected by the parser (which expects Eof next).
                lx.bump();
                continue;
            }
            other => {
                return Err(lx.err(line, col, format!("unexpected character `{other}`")));
            }
        };
        out.push(Token { kind, line, col });
    }
}

fn lex_number(lx: &mut Lexer<'_>, line: u32, col: u32) -> Result<TokenKind, SqlError> {
    let mut text = String::new();
    let mut is_float = false;
    while let Some(c) = lx.peek() {
        if c.is_ascii_digit() {
            text.push(c);
            lx.bump();
        } else {
            break;
        }
    }
    if lx.peek() == Some('.') {
        // `1.max` style method calls don't exist in this grammar, but
        // `t.col` after an integer can't appear either, so a dot directly
        // after digits is always a decimal point when followed by a digit.
        let mut ahead = lx.chars.clone();
        ahead.next();
        if matches!(ahead.next(), Some(d) if d.is_ascii_digit()) {
            is_float = true;
            text.push('.');
            lx.bump();
            while let Some(c) = lx.peek() {
                if c.is_ascii_digit() {
                    text.push(c);
                    lx.bump();
                } else {
                    break;
                }
            }
        }
    }
    if matches!(lx.peek(), Some('e') | Some('E')) {
        let mut ahead = lx.chars.clone();
        ahead.next();
        let next = ahead.next();
        let next2 = ahead.next();
        let exp_ok = matches!(next, Some(d) if d.is_ascii_digit())
            || (matches!(next, Some('+') | Some('-'))
                && matches!(next2, Some(d) if d.is_ascii_digit()));
        if exp_ok {
            is_float = true;
            text.push('e');
            lx.bump();
            if matches!(lx.peek(), Some('+') | Some('-')) {
                text.push(lx.peek().unwrap());
                lx.bump();
            }
            while let Some(c) = lx.peek() {
                if c.is_ascii_digit() {
                    text.push(c);
                    lx.bump();
                } else {
                    break;
                }
            }
        }
    }
    if is_float {
        let v: f64 = text
            .parse()
            .map_err(|_| lx.err(line, col, format!("malformed number `{text}`")))?;
        Ok(TokenKind::Float(v))
    } else {
        let v: u64 = text
            .parse()
            .map_err(|_| lx.err(line, col, format!("integer `{text}` is out of range")))?;
        Ok(TokenKind::Int(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn words_numbers_strings_params() {
        assert_eq!(
            kinds("SELECT x1 FROM t WHERE a = 'it''s' AND b >= 1.5e3 OR c != $2"),
            vec![
                TokenKind::Word("SELECT".into()),
                TokenKind::Word("x1".into()),
                TokenKind::Word("FROM".into()),
                TokenKind::Word("t".into()),
                TokenKind::Word("WHERE".into()),
                TokenKind::Word("a".into()),
                TokenKind::Eq,
                TokenKind::Str("it's".into()),
                TokenKind::Word("AND".into()),
                TokenKind::Word("b".into()),
                TokenKind::GtEq,
                TokenKind::Float(1500.0),
                TokenKind::Word("OR".into()),
                TokenKind::Word("c".into()),
                TokenKind::NotEq,
                TokenKind::Param(2),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn line_and_column_tracking() {
        let toks = tokenize("SELECT *\nFROM t").unwrap();
        let from = &toks[2];
        assert_eq!(from.kind, TokenKind::Word("FROM".into()));
        assert_eq!((from.line, from.col), (2, 1));
        let t = &toks[3];
        assert_eq!((t.line, t.col), (2, 6));
    }

    #[test]
    fn comments_and_semicolon() {
        assert_eq!(
            kinds("SELECT 1 -- trailing comment\n;"),
            vec![
                TokenKind::Word("SELECT".into()),
                TokenKind::Int(1),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn dotted_names_stay_tokens() {
        assert_eq!(
            kinds("cx.queries"),
            vec![
                TokenKind::Word("cx".into()),
                TokenKind::Dot,
                TokenKind::Word("queries".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lex_errors_have_positions() {
        let e = tokenize("SELECT 'open").unwrap_err();
        assert_eq!((e.line, e.col), (1, 8));
        assert!(e.to_string().contains("unterminated string"));
        let e = tokenize("a # b").unwrap_err();
        assert_eq!((e.line, e.col), (1, 3));
    }
}
