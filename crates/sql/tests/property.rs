//! Property and fuzz tests for the SQL front-end:
//!
//! * **round-trip** — a seeded grammar generator produces random valid
//!   statements; `parse → print → parse` must yield an identical AST
//!   (the canonical printing is the fixed point of the grammar),
//! * **fuzz** — token/byte mutations of valid statements must never
//!   panic the lexer, parser, or binder: every failure is a typed
//!   [`SqlError`] with a line/column position,
//! * **golden errors** — the ten most common mistakes produce exactly
//!   the messages we document.
//!
//! The fuzz budget honors `SQL_FUZZ_MS` (milliseconds; CI sets 30000),
//! with a floor of 2000 iterations so a fast clock still exercises the
//! corpus.

use cx_sql::{bind, parse, SchemaProvider, SqlError};
use cx_storage::{DataType, Field, Schema};
use std::time::{Duration, Instant};

/// xorshift64*: deterministic, seedable, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.below(options.len())]
    }
}

struct Fixture;

impl SchemaProvider for Fixture {
    fn table_schema(&self, name: &str) -> Option<Schema> {
        match name {
            "products" => Some(Schema::new(vec![
                Field::new("product_id", DataType::Int64),
                Field::new("name", DataType::Utf8),
                Field::new("price", DataType::Float64),
            ])),
            "labels" => Some(Schema::new(vec![
                Field::new("label_id", DataType::Int64),
                Field::new("label", DataType::Utf8),
            ])),
            _ => None,
        }
    }

    fn model_names(&self) -> Vec<String> {
        vec!["m".to_string()]
    }
}

const COLUMNS: [&str; 3] = ["product_id", "name", "price"];
const PROBES: [&str; 4] = ["shoes", "winter boots", "it''s warm", "pets"];
const THRESHOLDS: [&str; 4] = ["0.25", "0.5", "0.75", "0.9"];

fn gen_scalar_expr(rng: &mut Rng, depth: usize) -> String {
    if depth == 0 {
        return match rng.below(7) {
            0 => rng.pick(&COLUMNS).to_string(),
            1 => format!("{}", rng.below(200) as i64 - 100),
            2 => format!("{}.{}", rng.below(90), rng.below(10)),
            3 => format!("'{}'", rng.pick(&PROBES)),
            4 => rng.pick(&["TRUE", "FALSE", "NULL"]).to_string(),
            5 => format!("${}", rng.below(3)),
            _ => format!("products.{}", rng.pick(&COLUMNS)),
        };
    }
    let left = gen_scalar_expr(rng, depth - 1);
    let right = gen_scalar_expr(rng, depth - 1);
    let op = rng.pick(&["+", "-", "*", "/"]);
    format!("({left} {op} {right})")
}

fn gen_predicate(rng: &mut Rng, depth: usize) -> String {
    if depth == 0 {
        return match rng.below(4) {
            0 => {
                let l = gen_scalar_expr(rng, 1);
                let r = gen_scalar_expr(rng, 1);
                let op = rng.pick(&["=", "!=", "<", "<=", ">", ">="]);
                format!("{l} {op} {r}")
            }
            1 => format!("{} IS {}NULL", rng.pick(&COLUMNS), rng.pick(&["", "NOT "]),),
            2 => {
                let col = rng.pick(&COLUMNS);
                let probe = rng.pick(&PROBES);
                let using = if rng.below(2) == 0 { " USING m" } else { "" };
                let t = rng.pick(&THRESHOLDS);
                if rng.below(2) == 0 {
                    format!("{col} SEMANTIC LIKE '{probe}'{using} ({t})")
                } else {
                    format!(
                        "{col} SEMANTIC LIKE '{probe}'{using} ({}, {t})",
                        rng.below(9) + 1
                    )
                }
            }
            _ => format!("NOT ({})", gen_predicate(rng, 0)),
        };
    }
    let l = gen_predicate(rng, depth - 1);
    let r = gen_predicate(rng, depth - 1);
    format!("({l} {} {r})", rng.pick(&["AND", "OR"]))
}

fn gen_select(rng: &mut Rng) -> String {
    let mut sql = String::from("SELECT ");
    let group_by = rng.below(4) == 0;
    if group_by {
        // Keep the select list consistent with the grammar: key + aggs.
        let key = rng.pick(&COLUMNS);
        sql.push_str(key);
        match rng.below(3) {
            0 => sql.push_str(", COUNT(*)"),
            1 => sql.push_str(", SUM(price) AS total"),
            _ => sql.push_str(", COUNT(*), AVG(price) AS mean"),
        }
        sql.push_str(" FROM products GROUP BY ");
        if rng.below(3) == 0 {
            sql.push_str(&format!("SEMANTIC {key} ({})", rng.pick(&THRESHOLDS)));
        } else {
            sql.push_str(key);
        }
    } else {
        match rng.below(3) {
            0 => sql.push('*'),
            1 => sql.push_str(rng.pick(&COLUMNS)),
            _ => {
                let depth = rng.below(2) + 1;
                let e = gen_scalar_expr(rng, depth);
                sql.push_str(&format!("{e} AS v, name"));
            }
        }
        if rng.below(3) == 0 {
            sql.push_str(" FROM products AS p");
        } else {
            sql.push_str(" FROM products");
        }
        match rng.below(5) {
            0 => sql.push_str(&format!(
                " {} JOIN labels ON product_id = label_id",
                rng.pick(&["INNER", "LEFT", "SEMI", "ANTI"]),
            )),
            1 => sql.push_str(" CROSS JOIN labels"),
            2 => sql.push_str(&format!(
                " SEMANTIC JOIN labels ON SIM(name, label) {} {}{}",
                rng.pick(&[">", ">="]),
                rng.pick(&THRESHOLDS),
                rng.pick(&["", " SCORE closeness"]),
            )),
            _ => {}
        }
        if rng.below(2) == 0 {
            let depth = rng.below(3);
            sql.push_str(&format!(" WHERE {}", gen_predicate(rng, depth)));
        }
    }
    if rng.below(3) == 0 {
        sql.push_str(&format!(
            " ORDER BY {} {}",
            rng.pick(&COLUMNS),
            rng.pick(&["ASC", "DESC"]),
        ));
    }
    if rng.below(3) == 0 {
        sql.push_str(&format!(" LIMIT {}", rng.below(20)));
    }
    sql
}

fn gen_statement(rng: &mut Rng) -> String {
    match rng.below(8) {
        0 => format!("EXPLAIN {}", gen_select(rng)),
        1 => format!("EXPLAIN ANALYZE {}", gen_select(rng)),
        2 => format!("PREPARE stmt_{} AS {}", rng.below(10), gen_select(rng)),
        3 => format!(
            "EXECUTE stmt_{} ({}, '{}', {}.5)",
            rng.below(10),
            rng.below(100),
            rng.pick(&PROBES),
            rng.below(10),
        ),
        4 => format!("{} UNION ALL {}", gen_select(rng), gen_select(rng)),
        _ => gen_select(rng),
    }
}

#[test]
fn parse_print_parse_is_identity() {
    let mut rng = Rng(0x5eed_cafe_f00d_0001);
    for i in 0..1500 {
        let sql = gen_statement(&mut rng);
        let ast1 = match parse(&sql) {
            Ok(ast) => ast,
            Err(e) => panic!("generator produced invalid SQL (iteration {i}): {sql}\n  {e}"),
        };
        let printed = ast1.to_string();
        let ast2 = match parse(&printed) {
            Ok(ast) => ast,
            Err(e) => panic!("canonical print does not reparse (iteration {i}):\n  original: {sql}\n  printed: {printed}\n  {e}"),
        };
        assert_eq!(
            ast1, ast2,
            "round-trip changed the AST (iteration {i}):\n  original: {sql}\n  printed: {printed}"
        );
        // And the printing is a fixed point: print(parse(print(x))) == print(x).
        assert_eq!(
            printed,
            ast2.to_string(),
            "printing is not canonical (iteration {i})"
        );
    }
}

/// Mutate a valid statement at the byte level: deletions, duplications,
/// splices, and injected metacharacters.
fn mutate(rng: &mut Rng, sql: &str) -> String {
    let mut bytes: Vec<u8> = sql.bytes().collect();
    for _ in 0..(rng.below(4) + 1) {
        if bytes.is_empty() {
            break;
        }
        match rng.below(5) {
            0 => {
                let at = rng.below(bytes.len());
                bytes.remove(at);
            }
            1 => {
                let at = rng.below(bytes.len());
                let junk = b"'()$,.<>=!*;--\x00\xff\xc3";
                bytes.insert(at, junk[rng.below(junk.len())]);
            }
            2 => {
                let a = rng.below(bytes.len());
                let b = rng.below(bytes.len());
                bytes.swap(a, b);
            }
            3 => {
                let at = rng.below(bytes.len());
                let len = (rng.below(8) + 1).min(bytes.len() - at);
                let slice: Vec<u8> = bytes[at..at + len].to_vec();
                bytes.splice(at..at, slice);
            }
            _ => {
                let at = rng.below(bytes.len());
                let cut = (rng.below(12) + 1).min(bytes.len() - at);
                bytes.drain(at..at + cut);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn fuzz_never_panics_only_typed_errors() {
    let budget_ms: u64 = std::env::var("SQL_FUZZ_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(250);
    let deadline = Duration::from_millis(budget_ms);
    let start = Instant::now();
    let mut rng = Rng(0xf022_0000_0000_0001_u64 ^ 0x9e37_79b9);
    let mut iterations = 0u64;
    let mut parse_errors = 0u64;
    let mut bind_errors = 0u64;
    while iterations < 2000 || start.elapsed() < deadline {
        let valid = gen_statement(&mut rng);
        let mutated = mutate(&mut rng, &valid);
        // Any panic below fails the test; errors must be typed SqlErrors
        // carrying a 1-based position.
        match parse(&mutated) {
            Ok(stmt) => match bind(&stmt, &Fixture) {
                Ok(_) => {}
                Err(e) => {
                    bind_errors += 1;
                    check_error(&e, &mutated);
                }
            },
            Err(e) => {
                parse_errors += 1;
                check_error(&e, &mutated);
            }
        }
        iterations += 1;
    }
    // The mutator must actually be producing garbage, not no-ops.
    assert!(
        parse_errors > iterations / 10,
        "{parse_errors}/{iterations} parse errors"
    );
    assert!(bind_errors > 0, "no bind errors in {iterations} iterations");
}

fn check_error(e: &SqlError, input: &str) {
    assert!(
        e.line >= 1 && e.col >= 1,
        "unpositioned error for {input:?}: {e}"
    );
    let msg = e.to_string();
    assert!(
        msg.contains("error at line"),
        "error display lost its position for {input:?}: {msg}"
    );
}

/// The most common mistakes, golden-tested: these exact messages are
/// part of the front-end's contract.
#[test]
fn golden_error_messages() {
    let cases: [(&str, &str); 11] = [
        (
            "SELEC * FROM products",
            "parse error at line 1, column 1: expected `SELECT`, `EXPLAIN`, `PREPARE`, or \
             `EXECUTE`, found `SELEC`",
        ),
        (
            "SELECT * FROM",
            "parse error at line 1, column 14: expected a table name, found end of statement",
        ),
        (
            "SELECT * FROM products WHERE name = 'boo",
            "lex error at line 1, column 37: unterminated string literal",
        ),
        (
            "SELECT name FROM products UNION SELECT label FROM labels",
            "parse error at line 1, column 27: plain `UNION` is not supported; use `UNION ALL` \
             (add DISTINCT in an outer query to deduplicate)",
        ),
        (
            "SELECT nope FROM products",
            "bind error at line 1, column 8: unknown column `nope`",
        ),
        (
            "SELECT * FROM nope",
            "bind error at line 1, column 15: unknown table `nope`",
        ),
        (
            "SELECT product_id FROM products AS a CROSS JOIN products AS b",
            "bind error at line 1, column 8: column `product_id` is ambiguous (appears in `a` \
             and `b`); qualify it",
        ),
        (
            "SELECT * FROM products WHERE price ! 3",
            "lex error at line 1, column 36: unexpected character `!` (did you mean `!=`?)",
        ),
        (
            "SELECT * FROM products WHERE price > 1 OR name SEMANTIC LIKE 'x' (0.5)",
            "bind error at line 1, column 48: SEMANTIC LIKE must be a top-level AND conjunct of \
             the WHERE clause",
        ),
        (
            "SELECT * FROM products WHERE price > $1",
            "bind error at line 1, column 38: parameter slots must be contiguous starting at \
             $0; missing $0",
        ),
        (
            // Found by the fuzzer below at iteration 16206, which only a
            // fast unloaded host reaches inside its time budget.
            "SELECT name, name, COUNT(*) FROM products GROUP BY SEMANTIC name (0.75)",
            "bind error at line 1, column 1: duplicate output column `name`; alias one of them \
             (`AS name`)",
        ),
    ];
    for (sql, want) in cases {
        let got = first_error(sql);
        assert_eq!(got.to_string(), want, "golden mismatch for {sql:?}");
    }
}

fn first_error(sql: &str) -> SqlError {
    match parse(sql) {
        Err(e) => e,
        Ok(stmt) => match bind(&stmt, &Fixture) {
            Err(e) => e,
            Ok(_) => panic!("expected an error for {sql:?}"),
        },
    }
}
