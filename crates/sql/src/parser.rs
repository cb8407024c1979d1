//! Recursive-descent parser over the token stream.
//!
//! Keywords are matched case-insensitively; a fixed reserved-word list keeps
//! identifiers unambiguous (a column may not be named `select`). The parser
//! never panics on any token stream — the fuzz suite feeds it mutated
//! streams and asserts every outcome is `Ok` or a positioned `SqlError`.

use crate::ast::*;
use crate::error::{SqlError, SqlErrorKind};
use crate::lexer::{tokenize, Token, TokenKind};

/// Words that cannot be used as bare identifiers (tables, columns, aliases).
const RESERVED: &[&str] = &[
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "LIMIT", "JOIN", "INNER",
    "LEFT", "SEMI", "ANTI", "CROSS", "ON", "AND", "OR", "NOT", "IS", "NULL", "TRUE", "FALSE", "AS",
    "SEMANTIC", "LIKE", "USING", "SIM", "UNION", "ALL", "PREPARE", "EXECUTE", "EXPLAIN", "ANALYZE",
    "ASC", "DESC", "SCORE", "COUNT", "SUM", "MIN", "MAX", "AVG",
];

/// Parse one statement (an optional trailing `;` is tolerated by the lexer).
pub fn parse(sql: &str) -> Result<Statement, SqlError> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.expect_eof()?;
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        // The token vector always ends with Eof; pos never passes it.
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err_at(&self, tok: &Token, msg: impl Into<String>) -> SqlError {
        SqlError::new(SqlErrorKind::Parse, tok.line, tok.col, msg)
    }

    fn err_expected(&self, what: &str) -> SqlError {
        let tok = self.peek();
        self.err_at(
            tok,
            format!("expected {what}, found {}", tok.kind.describe()),
        )
    }

    /// Uppercased keyword text of the current token, if it is a word.
    fn peek_word(&self) -> Option<String> {
        match &self.peek().kind {
            TokenKind::Word(w) => Some(w.to_ascii_uppercase()),
            _ => None,
        }
    }

    fn at_word(&self, kw: &str) -> bool {
        self.peek_word().as_deref() == Some(kw)
    }

    /// Consume `kw` if present; report whether it was.
    fn eat_word(&mut self, kw: &str) -> bool {
        if self.at_word(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_word(&mut self, kw: &str) -> Result<Token, SqlError> {
        if self.at_word(kw) {
            Ok(self.bump())
        } else {
            Err(self.err_expected(&format!("`{kw}`")))
        }
    }

    fn expect_kind(&mut self, kind: TokenKind, what: &str) -> Result<Token, SqlError> {
        if self.peek().kind == kind {
            Ok(self.bump())
        } else {
            Err(self.err_expected(what))
        }
    }

    fn expect_eof(&mut self) -> Result<(), SqlError> {
        if self.peek().kind == TokenKind::Eof {
            Ok(())
        } else {
            Err(self.err_expected("end of statement"))
        }
    }

    /// A bare (non-reserved) identifier. Case is preserved.
    fn ident(&mut self, what: &str) -> Result<(String, Span), SqlError> {
        match &self.peek().kind {
            TokenKind::Word(w) => {
                if RESERVED.contains(&w.to_ascii_uppercase().as_str()) {
                    let tok = self.peek();
                    Err(self.err_at(tok, format!("expected {what}, found reserved word `{w}`")))
                } else {
                    let t = self.bump();
                    let TokenKind::Word(w) = t.kind else {
                        unreachable!()
                    };
                    Ok((
                        w,
                        Span {
                            line: t.line,
                            col: t.col,
                        },
                    ))
                }
            }
            _ => Err(self.err_expected(what)),
        }
    }

    /// A dotted name (`t`, `cx.queries`), returned joined with `.`.
    fn dotted_name(&mut self, what: &str) -> Result<(String, Span), SqlError> {
        let (mut name, span) = self.ident(what)?;
        while self.peek().kind == TokenKind::Dot {
            self.bump();
            let (part, _) = self.ident(what)?;
            name.push('.');
            name.push_str(&part);
        }
        Ok((name, span))
    }

    /// A column reference: everything before the last dot is the qualifier.
    fn column_ref(&mut self) -> Result<ColumnRef, SqlError> {
        let (dotted, span) = self.dotted_name("a column name")?;
        match dotted.rfind('.') {
            Some(i) => Ok(ColumnRef {
                qualifier: Some(dotted[..i].to_string()),
                name: dotted[i + 1..].to_string(),
                span,
            }),
            None => Ok(ColumnRef {
                qualifier: None,
                name: dotted,
                span,
            }),
        }
    }

    // ---- statements ------------------------------------------------------

    fn statement(&mut self) -> Result<Statement, SqlError> {
        match self.peek_word().as_deref() {
            Some("SELECT") => Ok(Statement::Query(self.query_expr()?)),
            Some("EXPLAIN") => {
                self.bump();
                let analyze = self.eat_word("ANALYZE");
                Ok(Statement::Explain {
                    analyze,
                    query: self.query_expr()?,
                })
            }
            Some("PREPARE") => {
                let t = self.bump();
                let span = Span {
                    line: t.line,
                    col: t.col,
                };
                let (name, _) = self.ident("a statement name")?;
                self.expect_word("AS")?;
                Ok(Statement::Prepare {
                    name,
                    query: self.query_expr()?,
                    span,
                })
            }
            Some("EXECUTE") => {
                let t = self.bump();
                let span = Span {
                    line: t.line,
                    col: t.col,
                };
                let (name, _) = self.ident("a statement name")?;
                let mut args = Vec::new();
                if self.peek().kind == TokenKind::LParen {
                    self.bump();
                    if self.peek().kind != TokenKind::RParen {
                        loop {
                            args.push(self.literal_expr()?);
                            if self.peek().kind == TokenKind::Comma {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect_kind(TokenKind::RParen, "`)` to close the argument list")?;
                }
                Ok(Statement::Execute { name, args, span })
            }
            _ => Err(self.err_expected("`SELECT`, `EXPLAIN`, `PREPARE`, or `EXECUTE`")),
        }
    }

    fn query_expr(&mut self) -> Result<QueryExpr, SqlError> {
        let mut selects = vec![self.select()?];
        while self.at_word("UNION") {
            let union_tok = self.bump();
            if !self.eat_word("ALL") {
                return Err(self.err_at(
                    &union_tok,
                    "plain `UNION` is not supported; use `UNION ALL` \
                     (add DISTINCT in an outer query to deduplicate)",
                ));
            }
            selects.push(self.select()?);
        }
        Ok(QueryExpr { selects })
    }

    fn select(&mut self) -> Result<Select, SqlError> {
        let t = self.expect_word("SELECT")?;
        let span = Span {
            line: t.line,
            col: t.col,
        };
        let distinct = self.eat_word("DISTINCT");
        let mut items = vec![self.select_item()?];
        while self.peek().kind == TokenKind::Comma {
            self.bump();
            items.push(self.select_item()?);
        }
        self.expect_word("FROM")?;
        let from = self.table_ref()?;
        let mut joins = Vec::new();
        while let Some(j) = self.join_step()? {
            joins.push(j);
        }
        let selection = if self.eat_word("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let group_by = if self.at_word("GROUP") {
            self.bump();
            self.expect_word("BY")?;
            Some(self.group_by()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.at_word("ORDER") {
            self.bump();
            self.expect_word("BY")?;
            loop {
                let column = self.column_ref()?;
                let ascending = if self.eat_word("DESC") {
                    false
                } else {
                    self.eat_word("ASC");
                    true
                };
                order_by.push(OrderKey { column, ascending });
                if self.peek().kind == TokenKind::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        let limit = if self.eat_word("LIMIT") {
            match self.peek().kind.clone() {
                TokenKind::Int(n) => {
                    self.bump();
                    Some(LimitClause::Fixed(n))
                }
                TokenKind::Param(slot) => {
                    let t = self.bump();
                    Some(LimitClause::Param {
                        slot,
                        span: Span {
                            line: t.line,
                            col: t.col,
                        },
                    })
                }
                _ => return Err(self.err_expected("a row count or `$n` after `LIMIT`")),
            }
        } else {
            None
        };
        Ok(Select {
            distinct,
            items,
            from,
            joins,
            selection,
            group_by,
            order_by,
            limit,
            span,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem, SqlError> {
        if self.peek().kind == TokenKind::Star {
            self.bump();
            return Ok(SelectItem::Star);
        }
        if let Some(w) = self.peek_word() {
            let func = match w.as_str() {
                "COUNT" => Some(AggFunc::Count),
                "SUM" => Some(AggFunc::Sum),
                "MIN" => Some(AggFunc::Min),
                "MAX" => Some(AggFunc::Max),
                "AVG" => Some(AggFunc::Avg),
                _ => None,
            };
            if let Some(func) = func {
                let t = self.bump();
                let span = Span {
                    line: t.line,
                    col: t.col,
                };
                self.expect_kind(TokenKind::LParen, "`(` after the aggregate function")?;
                let (func, column) =
                    if func == AggFunc::Count && self.peek().kind == TokenKind::Star {
                        self.bump();
                        (AggFunc::CountStar, None)
                    } else {
                        (func, Some(self.column_ref()?))
                    };
                self.expect_kind(TokenKind::RParen, "`)` to close the aggregate")?;
                let alias = if self.eat_word("AS") {
                    Some(self.ident("an alias after `AS`")?.0)
                } else {
                    None
                };
                return Ok(SelectItem::Agg {
                    func,
                    column,
                    alias,
                    span,
                });
            }
        }
        let expr = self.expr()?;
        let alias = if self.eat_word("AS") {
            Some(self.ident("an alias after `AS`")?.0)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef, SqlError> {
        let (name, span) = self.dotted_name("a table name")?;
        let alias = if self.eat_word("AS") {
            Some(self.ident("an alias after `AS`")?.0)
        } else if let Some(w) = self.peek_word() {
            // Bare alias: any non-reserved word directly after the table.
            if RESERVED.contains(&w.as_str()) {
                None
            } else {
                Some(self.ident("an alias")?.0)
            }
        } else {
            None
        };
        Ok(TableRef { name, alias, span })
    }

    /// One join clause, or `None` when the next token starts another clause.
    fn join_step(&mut self) -> Result<Option<Join>, SqlError> {
        let join_type = match self.peek_word().as_deref() {
            Some("JOIN") => Some(JoinType::Inner),
            Some("INNER") => Some(JoinType::Inner),
            Some("LEFT") => Some(JoinType::Left),
            Some("SEMI") => Some(JoinType::LeftSemi),
            Some("ANTI") => Some(JoinType::LeftAnti),
            Some("CROSS") => {
                self.bump();
                self.expect_word("JOIN")?;
                let table = self.table_ref()?;
                return Ok(Some(Join::Cross { table }));
            }
            Some("SEMANTIC") => {
                // Disambiguate from a future clause starting with SEMANTIC:
                // here it can only be SEMANTIC JOIN.
                let t = self.bump();
                let span = Span {
                    line: t.line,
                    col: t.col,
                };
                self.expect_word("JOIN")?;
                let table = self.table_ref()?;
                let model = if self.eat_word("USING") {
                    Some(self.ident("a model name")?.0)
                } else {
                    None
                };
                self.expect_word("ON")?;
                self.expect_word("SIM")?;
                self.expect_kind(TokenKind::LParen, "`(` after `SIM`")?;
                let left = self.column_ref()?;
                self.expect_kind(TokenKind::Comma, "`,` between the SIM columns")?;
                let right = self.column_ref()?;
                self.expect_kind(TokenKind::RParen, "`)` to close `SIM(...)`")?;
                let strict = match self.peek().kind {
                    TokenKind::Gt => {
                        self.bump();
                        true
                    }
                    TokenKind::GtEq => {
                        self.bump();
                        false
                    }
                    _ => return Err(self.err_expected("`>` or `>=` after `SIM(...)`")),
                };
                let threshold = self.number("a similarity threshold")?;
                let score = if self.eat_word("SCORE") {
                    Some(self.ident("a score column name")?.0)
                } else {
                    None
                };
                return Ok(Some(Join::Semantic {
                    table,
                    model,
                    left,
                    right,
                    strict,
                    threshold,
                    score,
                    span,
                }));
            }
            _ => None,
        };
        let Some(join_type) = join_type else {
            return Ok(None);
        };
        if !self.eat_word("JOIN") {
            self.bump(); // INNER / LEFT / SEMI / ANTI
            self.expect_word("JOIN")?;
        }
        let table = self.table_ref()?;
        self.expect_word("ON")?;
        let mut on = Vec::new();
        loop {
            let l = self.column_ref()?;
            self.expect_kind(TokenKind::Eq, "`=` in the join condition")?;
            let r = self.column_ref()?;
            on.push((l, r));
            if !self.eat_word("AND") {
                break;
            }
        }
        Ok(Some(Join::Relational {
            join_type,
            table,
            on,
        }))
    }

    fn group_by(&mut self) -> Result<GroupBy, SqlError> {
        if self.at_word("SEMANTIC") {
            let t = self.bump();
            let span = Span {
                line: t.line,
                col: t.col,
            };
            let column = self.column_ref()?;
            let model = if self.eat_word("USING") {
                Some(self.ident("a model name")?.0)
            } else {
                None
            };
            self.expect_kind(TokenKind::LParen, "`(` before the cluster threshold")?;
            let threshold = self.number("a cluster threshold")?;
            self.expect_kind(TokenKind::RParen, "`)` after the cluster threshold")?;
            return Ok(GroupBy::Semantic {
                column,
                model,
                threshold,
                span,
            });
        }
        let mut cols = vec![self.column_ref()?];
        while self.peek().kind == TokenKind::Comma {
            self.bump();
            cols.push(self.column_ref()?);
        }
        Ok(GroupBy::Columns(cols))
    }

    /// A literal (with optional unary minus) — `EXECUTE` arguments.
    fn literal_expr(&mut self) -> Result<AstExpr, SqlError> {
        let tok = self.peek().clone();
        let expr = self.primary()?;
        match &expr {
            AstExpr::Literal { .. } => Ok(expr),
            _ => Err(self.err_at(&tok, "EXECUTE arguments must be literals")),
        }
    }

    fn number(&mut self, what: &str) -> Result<f64, SqlError> {
        let neg = if self.peek().kind == TokenKind::Minus {
            self.bump();
            true
        } else {
            false
        };
        let v = match self.peek().kind.clone() {
            TokenKind::Int(n) => {
                self.bump();
                n as f64
            }
            TokenKind::Float(x) => {
                self.bump();
                x
            }
            _ => return Err(self.err_expected(what)),
        };
        Ok(if neg { -v } else { v })
    }

    // ---- expressions -----------------------------------------------------

    fn expr(&mut self) -> Result<AstExpr, SqlError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<AstExpr, SqlError> {
        let mut left = self.and_expr()?;
        while self.eat_word("OR") {
            let right = self.and_expr()?;
            left = AstExpr::Binary {
                op: BinOp::Or,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<AstExpr, SqlError> {
        let mut left = self.not_expr()?;
        while self.eat_word("AND") {
            let right = self.not_expr()?;
            left = AstExpr::Binary {
                op: BinOp::And,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<AstExpr, SqlError> {
        if self.eat_word("NOT") {
            Ok(AstExpr::Not(Box::new(self.not_expr()?)))
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<AstExpr, SqlError> {
        let left = self.additive()?;
        let op = match self.peek().kind {
            TokenKind::Eq => Some(BinOp::Eq),
            TokenKind::NotEq => Some(BinOp::NotEq),
            TokenKind::Lt => Some(BinOp::Lt),
            TokenKind::LtEq => Some(BinOp::LtEq),
            TokenKind::Gt => Some(BinOp::Gt),
            TokenKind::GtEq => Some(BinOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let right = self.additive()?;
            return Ok(AstExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            });
        }
        if self.at_word("IS") {
            self.bump();
            let negated = self.eat_word("NOT");
            self.expect_word("NULL")?;
            return Ok(AstExpr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        if self.at_word("SEMANTIC") {
            let t = self.bump();
            let span = Span {
                line: t.line,
                col: t.col,
            };
            self.expect_word("LIKE")?;
            let AstExpr::Column(column) = left else {
                return Err(
                    self.err_at(&t, "the left side of SEMANTIC LIKE must be a plain column")
                );
            };
            let probe = match self.peek().kind.clone() {
                TokenKind::Str(s) => {
                    self.bump();
                    Probe::Text(s)
                }
                TokenKind::Param(slot) => {
                    self.bump();
                    Probe::Param(slot)
                }
                _ => return Err(self.err_expected("a probe string or `$n` after `SEMANTIC LIKE`")),
            };
            let model = if self.eat_word("USING") {
                Some(self.ident("a model name")?.0)
            } else {
                None
            };
            self.expect_kind(TokenKind::LParen, "`(` before the SEMANTIC LIKE threshold")?;
            let first = self.number("a match count or threshold")?;
            let (k, threshold) = if self.peek().kind == TokenKind::Comma {
                self.bump();
                if first < 0.0 || first.fract() != 0.0 {
                    return Err(self.err_at(
                        &t,
                        format!("match count k must be a non-negative integer, got {first}"),
                    ));
                }
                (Some(first as u64), self.number("a similarity threshold")?)
            } else {
                (None, first)
            };
            self.expect_kind(TokenKind::RParen, "`)` to close the SEMANTIC LIKE clause")?;
            return Ok(AstExpr::SemanticLike {
                column,
                probe,
                model,
                k,
                threshold,
                span,
            });
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<AstExpr, SqlError> {
        let mut left = self.term()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let right = self.term()?;
            left = AstExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn term(&mut self) -> Result<AstExpr, SqlError> {
        let mut left = self.primary()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                _ => break,
            };
            self.bump();
            let right = self.primary()?;
            left = AstExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn primary(&mut self) -> Result<AstExpr, SqlError> {
        let tok = self.peek().clone();
        let span = Span {
            line: tok.line,
            col: tok.col,
        };
        match tok.kind {
            TokenKind::Minus => {
                self.bump();
                // Unary minus folds into the literal, so `-5` is one AST
                // node and round-trips exactly.
                let inner = self.peek().clone();
                match inner.kind {
                    TokenKind::Int(n) => {
                        self.bump();
                        // i64::MIN's magnitude exceeds i64::MAX by one.
                        if n > i64::MAX as u64 + 1 {
                            return Err(
                                self.err_at(&inner, format!("integer `-{n}` is out of range"))
                            );
                        }
                        Ok(AstExpr::Literal {
                            value: Literal::Int((n as i128).wrapping_neg() as i64),
                            span,
                        })
                    }
                    TokenKind::Float(x) => {
                        self.bump();
                        Ok(AstExpr::Literal {
                            value: Literal::Float(-x),
                            span,
                        })
                    }
                    _ => Err(self.err_expected("a number after unary `-`")),
                }
            }
            TokenKind::Int(n) => {
                self.bump();
                if n > i64::MAX as u64 {
                    return Err(self.err_at(&tok, format!("integer `{n}` is out of range")));
                }
                Ok(AstExpr::Literal {
                    value: Literal::Int(n as i64),
                    span,
                })
            }
            TokenKind::Float(x) => {
                self.bump();
                Ok(AstExpr::Literal {
                    value: Literal::Float(x),
                    span,
                })
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(AstExpr::Literal {
                    value: Literal::Str(s),
                    span,
                })
            }
            TokenKind::Param(slot) => {
                self.bump();
                Ok(AstExpr::Param { slot, span })
            }
            TokenKind::LParen => {
                self.bump();
                let inner = self.expr()?;
                self.expect_kind(
                    TokenKind::RParen,
                    "`)` to close the parenthesized expression",
                )?;
                Ok(inner)
            }
            TokenKind::Word(ref w) => match w.to_ascii_uppercase().as_str() {
                "TRUE" => {
                    self.bump();
                    Ok(AstExpr::Literal {
                        value: Literal::Bool(true),
                        span,
                    })
                }
                "FALSE" => {
                    self.bump();
                    Ok(AstExpr::Literal {
                        value: Literal::Bool(false),
                        span,
                    })
                }
                "NULL" => {
                    self.bump();
                    Ok(AstExpr::Literal {
                        value: Literal::Null,
                        span,
                    })
                }
                _ => Ok(AstExpr::Column(self.column_ref()?)),
            },
            _ => Err(self.err_expected("an expression")),
        }
    }
}
