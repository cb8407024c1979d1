//! Regression gate over the checked-in benchmark baselines.
//!
//! Compares the headline scalar of every `BENCH_*.json` in the current
//! tree against `bench/baselines/` and exits non-zero when any of them
//! regressed by more than the allowed ratio. Direction-aware: QPS and
//! goodput ratios must not *drop*, nanoseconds-per-pair must not *rise*.
//!
//! Current files that do not exist are skipped (the gate only judges
//! benches that were actually re-run); baselines are required — a
//! missing baseline for a known bench is an error so the gate cannot
//! silently go dark.
//!
//! Environment:
//! - `BENCH_DIFF_RATIO` — allowed relative regression (default `0.25`;
//!   CI loosens this on noisy shared runners).
//! - `BENCH_BASELINE_DIR` / `BENCH_CURRENT_DIR` — override the default
//!   repo-root-relative locations.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// A minimal JSON value: just enough to read benchmark reports. The
/// in-tree serde shim serializes but does not parse, and the reports are
/// machine-written, so a small recursive-descent parser is the whole
/// dependency.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Walks a dotted path of object keys (`"serve.qps"`).
    fn path(&self, dotted: &str) -> Option<&Json> {
        dotted.split('.').try_fold(self, |v, key| v.get(key))
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn parse(text: &'a str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes.get(self.pos).copied().ok_or_else(|| "unexpected end of input".into())
    }

    fn eat(&mut self, want: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != want {
            return Err(format!("expected {:?} at offset {}, got {:?}", want as char, self.pos, got as char));
        }
        self.pos += 1;
        Ok(())
    }

    fn lit(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            map.insert(key, self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                other => return Err(format!("expected ',' or '}}', got {:?}", other as char)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', got {:?}", other as char)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("bad \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                _ => {
                    // Benchmark reports are ASCII, but pass UTF-8 through
                    // byte-faithfully anyway.
                    let start = self.pos - 1;
                    while self.bytes.get(self.pos).is_some_and(|&c| c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number {text:?} at offset {start}"))
    }
}

/// Whether larger is better for a headline scalar.
#[derive(Clone, Copy, PartialEq)]
enum Direction {
    HigherIsBetter,
    LowerIsBetter,
}

/// One comparison: a named scalar extracted from baseline and current.
struct Check {
    label: String,
    baseline: f64,
    current: f64,
    direction: Direction,
}

impl Check {
    /// Relative regression: positive when the current value is worse.
    fn regression(&self) -> f64 {
        if self.baseline == 0.0 {
            return 0.0;
        }
        match self.direction {
            Direction::HigherIsBetter => (self.baseline - self.current) / self.baseline,
            Direction::LowerIsBetter => (self.current - self.baseline) / self.baseline,
        }
    }
}

/// The headline scalars per report. `fig4` and `block_kernels` contribute
/// one check per entry in their `results` array (matched by `rung` / `id`);
/// the rest contribute a single dotted-path scalar.
const SCALAR_BENCHES: &[(&str, &str, Direction)] = &[
    ("BENCH_chaos.json", "goodput_ratio", Direction::HigherIsBetter),
];

const PER_RESULT_BENCHES: &[(&str, &str, &str, Direction)] = &[
    ("BENCH_fig4.json", "rung", "ns_per_pair", Direction::LowerIsBetter),
    ("BENCH_block_kernels.json", "id", "ns_per_pair", Direction::LowerIsBetter),
];

fn load(dir: &str, file: &str) -> Result<Option<Json>, String> {
    let path = format!("{dir}/{file}");
    match std::fs::read_to_string(&path) {
        Ok(text) => Parser::parse(&text).map(Some).map_err(|e| format!("{path}: {e}")),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("{path}: {e}")),
    }
}

fn collect_checks(baseline_dir: &str, current_dir: &str) -> Result<Vec<Check>, String> {
    let mut checks = Vec::new();
    for &(file, path, direction) in SCALAR_BENCHES {
        let Some(current) = load(current_dir, file)? else {
            println!("skip   {file}: not present in current tree");
            continue;
        };
        let baseline = load(baseline_dir, file)?
            .ok_or_else(|| format!("{file}: present in current tree but missing from {baseline_dir}"))?;
        let read = |v: &Json, which: &str| {
            v.path(path).and_then(Json::num).ok_or(format!("{file}: no numeric {path} in {which}"))
        };
        checks.push(Check {
            label: format!("{file} {path}"),
            baseline: read(&baseline, "baseline")?,
            current: read(&current, "current")?,
            direction,
        });
    }
    for &(file, key, metric, direction) in PER_RESULT_BENCHES {
        let Some(current) = load(current_dir, file)? else {
            println!("skip   {file}: not present in current tree");
            continue;
        };
        let baseline = load(baseline_dir, file)?
            .ok_or_else(|| format!("{file}: present in current tree but missing from {baseline_dir}"))?;
        let rows = |v: &Json, which: &str| -> Result<BTreeMap<String, f64>, String> {
            let items = v
                .get("results")
                .and_then(Json::arr)
                .ok_or(format!("{file}: no results array in {which}"))?;
            let mut out = BTreeMap::new();
            for item in items {
                let name = item
                    .get(key)
                    .and_then(Json::str)
                    .ok_or(format!("{file}: result without {key:?} in {which}"))?;
                let value = item
                    .get(metric)
                    .and_then(Json::num)
                    .ok_or(format!("{file}: {name}: no numeric {metric} in {which}"))?;
                out.insert(name.to_string(), value);
            }
            Ok(out)
        };
        let base_rows = rows(&baseline, "baseline")?;
        for (name, current_value) in rows(&current, "current")? {
            // New rungs/kernels have no baseline yet: report, don't gate.
            let Some(&baseline_value) = base_rows.get(&name) else {
                println!("new    {file} {name}: {current_value:.4} (no baseline)");
                continue;
            };
            checks.push(Check {
                label: format!("{file} {name} {metric}"),
                baseline: baseline_value,
                current: current_value,
                direction,
            });
        }
    }
    Ok(checks)
}

fn main() -> ExitCode {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let baseline_dir = std::env::var("BENCH_BASELINE_DIR")
        .unwrap_or_else(|_| format!("{root}/bench/baselines"));
    let current_dir = std::env::var("BENCH_CURRENT_DIR").unwrap_or_else(|_| root.to_string());
    let ratio: f64 = match std::env::var("BENCH_DIFF_RATIO") {
        Ok(raw) => match raw.parse() {
            Ok(r) => r,
            Err(_) => {
                eprintln!("bench_diff: BENCH_DIFF_RATIO {raw:?} is not a number");
                return ExitCode::FAILURE;
            }
        },
        Err(_) => 0.25,
    };

    println!("bench_diff: baselines {baseline_dir}, current {current_dir}, allowed {:.0}%", ratio * 100.0);
    let checks = match collect_checks(&baseline_dir, &current_dir) {
        Ok(checks) => checks,
        Err(e) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    if checks.is_empty() {
        println!("bench_diff: nothing to compare (no current BENCH_*.json files)");
        return ExitCode::SUCCESS;
    }

    let mut failed = 0usize;
    for check in &checks {
        let regression = check.regression();
        let verdict = if regression > ratio {
            failed += 1;
            "FAIL"
        } else {
            "ok"
        };
        let arrow = match check.direction {
            Direction::HigherIsBetter => "higher-is-better",
            Direction::LowerIsBetter => "lower-is-better",
        };
        println!(
            "{verdict:<6} {label}: baseline {baseline:.4} -> current {current:.4} ({delta:+.1}% {arrow})",
            label = check.label,
            baseline = check.baseline,
            current = check.current,
            delta = -regression * 100.0,
        );
    }
    if failed > 0 {
        eprintln!("bench_diff: {failed} of {} headline scalars regressed more than {:.0}%", checks.len(), ratio * 100.0);
        return ExitCode::FAILURE;
    }
    println!("bench_diff: all {} headline scalars within {:.0}%", checks.len(), ratio * 100.0);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_report_shapes() {
        let v = Parser::parse(
            r#"{"bench": "x", "serve": {"qps": 8533.21}, "results": [{"id": "a/64", "ns_per_pair": 9.95}], "neg": -1.5e-3, "flag": true, "none": null, "esc": "a\"b\\cA"}"#,
        )
        .unwrap();
        assert_eq!(v.path("serve.qps").and_then(Json::num), Some(8533.21));
        assert_eq!(v.get("results").and_then(Json::arr).map(<[Json]>::len), Some(1));
        assert_eq!(v.get("neg").and_then(Json::num), Some(-1.5e-3));
        assert_eq!(v.get("flag"), Some(&Json::Bool(true)));
        assert_eq!(v.get("none"), Some(&Json::Null));
        assert_eq!(v.get("esc").and_then(Json::str), Some("a\"b\\cA"));
        assert!(Parser::parse("{\"a\": 1} junk").is_err());
        assert!(Parser::parse("{\"a\":").is_err());
    }

    #[test]
    fn regressions_are_direction_aware() {
        let qps_drop = Check {
            label: String::new(),
            baseline: 100.0,
            current: 70.0,
            direction: Direction::HigherIsBetter,
        };
        assert!((qps_drop.regression() - 0.30).abs() < 1e-9);
        let ns_rise = Check {
            label: String::new(),
            baseline: 10.0,
            current: 13.0,
            direction: Direction::LowerIsBetter,
        };
        assert!((ns_rise.regression() - 0.30).abs() < 1e-9);
        let ns_improved = Check {
            label: String::new(),
            baseline: 10.0,
            current: 7.0,
            direction: Direction::LowerIsBetter,
        };
        assert!(ns_improved.regression() < 0.0);
    }
}
