//! Typed SQL errors with source positions.
//!
//! Every failure in the front-end — lexing, parsing, binding — carries the
//! 1-based line/column of the offending token so callers can point at the
//! exact spot in the statement. The `Display` form is golden-tested in
//! `tests/property.rs`; change the wording deliberately.

use std::fmt;

/// Which stage of the front-end rejected the statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlErrorKind {
    /// Tokenizer failure (bad character, unterminated string, malformed number).
    Lex,
    /// Grammar failure (unexpected token).
    Parse,
    /// Name/semantic resolution failure (unknown table, ambiguous column, ...).
    Bind,
}

impl SqlErrorKind {
    fn label(self) -> &'static str {
        match self {
            SqlErrorKind::Lex => "lex",
            SqlErrorKind::Parse => "parse",
            SqlErrorKind::Bind => "bind",
        }
    }
}

/// A front-end error, pinned to a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlError {
    pub kind: SqlErrorKind,
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column (in characters) of the offending token.
    pub col: u32,
    pub message: String,
}

impl SqlError {
    pub fn new(kind: SqlErrorKind, line: u32, col: u32, message: impl Into<String>) -> Self {
        SqlError {
            kind,
            line,
            col,
            message: message.into(),
        }
    }
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} error at line {}, column {}: {}",
            self.kind.label(),
            self.line,
            self.col,
            self.message
        )
    }
}

impl std::error::Error for SqlError {}
