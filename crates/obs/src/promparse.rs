//! In-tree Prometheus text exposition format parser.
//!
//! Used as a lint: benches and CI render a [`crate::MetricsSnapshot`] to
//! text, parse it back with [`parse`], and fail loudly on any syntax the
//! real Prometheus scraper would reject — metric/label name charset,
//! label escaping, numeric values, `# TYPE` consistency.

use std::collections::HashSet;

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name.
    pub name: String,
    /// Label pairs in appearance order (including `quantile`).
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

/// A parsed exposition document.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    /// All sample lines, in order.
    pub samples: Vec<Sample>,
    /// Families declared with `# TYPE`.
    pub types: Vec<(String, String)>,
}

impl Exposition {
    /// The value of the sample matching `name` and all of `labels`.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| {
                s.name == name
                    && labels
                        .iter()
                        .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
            })
            .map(|s| s.value)
    }

    /// All distinct sample names.
    pub fn names(&self) -> HashSet<&str> {
        self.samples.iter().map(|s| s.name.as_str()).collect()
    }

    /// True when a sample named `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.samples.iter().any(|s| s.name == name)
    }
}

fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_value(s: &str) -> Option<f64> {
    match s {
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        _ => s.parse().ok(),
    }
}

/// Parses a label body like `a="x",b="y\"z"` (no surrounding braces).
fn parse_labels(body: &str, line_no: usize) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {line_no}: label without '='"))?;
        let name = rest[..eq].trim();
        if !valid_label_name(name) {
            return Err(format!("line {line_no}: invalid label name `{name}`"));
        }
        rest = rest[eq + 1..].trim_start();
        if !rest.starts_with('"') {
            return Err(format!("line {line_no}: label value must be quoted"));
        }
        rest = &rest[1..];
        let mut value = String::new();
        let mut escaped = false;
        let mut closed = false;
        let mut consumed = 0;
        for (i, c) in rest.char_indices() {
            if escaped {
                match c {
                    'n' => value.push('\n'),
                    '\\' => value.push('\\'),
                    '"' => value.push('"'),
                    other => {
                        return Err(format!(
                            "line {line_no}: bad escape `\\{other}` in label value"
                        ))
                    }
                }
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                consumed = i + 1;
                closed = true;
                break;
            } else {
                value.push(c);
            }
        }
        if !closed {
            return Err(format!("line {line_no}: unterminated label value"));
        }
        labels.push((name.to_string(), value));
        rest = rest[consumed..].trim_start();
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped.trim_start();
        } else if !rest.is_empty() {
            return Err(format!("line {line_no}: expected ',' between labels"));
        }
    }
    Ok(labels)
}

/// Parses (and thereby lints) a Prometheus text exposition document.
/// Returns every sample, or a description of the first syntax error with
/// its line number.
pub fn parse(text: &str) -> Result<Exposition, String> {
    const TYPES: &[&str] = &["counter", "gauge", "summary", "histogram", "untyped"];
    let mut exp = Exposition::default();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut parts = rest.splitn(2, ' ');
                let name = parts.next().unwrap_or_default();
                let kind = parts.next().unwrap_or_default().trim();
                if !valid_metric_name(name) {
                    return Err(format!("line {line_no}: invalid TYPE metric name `{name}`"));
                }
                if !TYPES.contains(&kind) {
                    return Err(format!("line {line_no}: unknown metric type `{kind}`"));
                }
                if exp.types.iter().any(|(n, _)| n == name) {
                    return Err(format!("line {line_no}: duplicate TYPE for `{name}`"));
                }
                exp.types.push((name.to_string(), kind.to_string()));
            } else if let Some(rest) = comment.strip_prefix("HELP ") {
                let name = rest.split(' ').next().unwrap_or_default();
                if !valid_metric_name(name) {
                    return Err(format!("line {line_no}: invalid HELP metric name `{name}`"));
                }
            }
            // Other comments are ignored.
            continue;
        }
        // Sample line: name[{labels}] value [timestamp]
        let (name_part, after) = match line.find(['{', ' ']) {
            Some(pos) => (&line[..pos], &line[pos..]),
            None => {
                return Err(format!("line {line_no}: sample without value: `{line}`"));
            }
        };
        if !valid_metric_name(name_part) {
            return Err(format!("line {line_no}: invalid metric name `{name_part}`"));
        }
        let (labels, value_part) = if let Some(rest) = after.strip_prefix('{') {
            let close = rest
                .rfind('}')
                .ok_or_else(|| format!("line {line_no}: unterminated label set"))?;
            (
                parse_labels(&rest[..close], line_no)?,
                rest[close + 1..].trim(),
            )
        } else {
            (Vec::new(), after.trim())
        };
        let mut fields = value_part.split_whitespace();
        let value_str = fields
            .next()
            .ok_or_else(|| format!("line {line_no}: missing sample value"))?;
        let value = parse_value(value_str)
            .ok_or_else(|| format!("line {line_no}: invalid value `{value_str}`"))?;
        if let Some(ts) = fields.next() {
            ts.parse::<i64>()
                .map_err(|_| format!("line {line_no}: invalid timestamp `{ts}`"))?;
        }
        if fields.next().is_some() {
            return Err(format!("line {line_no}: trailing garbage after sample"));
        }
        exp.samples.push(Sample {
            name: name_part.to_string(),
            labels,
            value,
        });
    }
    // Lint: every declared TYPE must have at least one sample in its
    // family (name, or name_sum/name_count/name{quantile} for summaries).
    for (name, _) in &exp.types {
        let has = exp.samples.iter().any(|s| {
            s.name == *name
                || s.name == format!("{name}_sum")
                || s.name == format!("{name}_count")
                || s.name == format!("{name}_bucket")
        });
        if !has {
            return Err(format!("TYPE `{name}` declared but no samples present"));
        }
    }
    Ok(exp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_document() {
        let text = "\
# HELP up Whether the target is up
# TYPE up gauge
up 1
# TYPE reqs counter
reqs{method=\"get\",code=\"200\"} 1027 1395066363000
reqs{method=\"post\"} 3
";
        let exp = parse(text).unwrap();
        assert_eq!(exp.samples.len(), 3);
        assert_eq!(exp.value("up", &[]), Some(1.0));
        assert_eq!(
            exp.value("reqs", &[("method", "get"), ("code", "200")]),
            Some(1027.0)
        );
        assert_eq!(exp.types.len(), 2);
    }

    #[test]
    fn parses_special_values_and_escapes() {
        let text = "g{k=\"a\\\"b\\\\c\\nd\"} +Inf\nn NaN\nm -Inf\n";
        let exp = parse(text).unwrap();
        assert_eq!(exp.samples[0].labels[0].1, "a\"b\\c\nd");
        assert!(exp.samples[0].value.is_infinite());
        assert!(exp.samples[1].value.is_nan());
    }

    #[test]
    fn rejects_bad_names_values_and_types() {
        assert!(parse("9bad 1\n").is_err());
        assert!(parse("ok{9bad=\"v\"} 1\n").is_err());
        assert!(parse("ok 1.2.3\n").is_err());
        assert!(parse("ok{k=\"v} 1\n").is_err());
        assert!(parse("# TYPE m flavor\nm 1\n").is_err());
        assert!(parse("# TYPE m counter\n").is_err(), "TYPE without samples");
        assert!(parse("ok\n").is_err(), "sample without value");
    }

    #[test]
    fn summary_family_satisfies_type_lint() {
        let text = "\
# TYPE lat summary
lat{quantile=\"0.5\"} 10
lat_sum 100
lat_count 7
";
        let exp = parse(text).unwrap();
        assert_eq!(exp.value("lat_count", &[]), Some(7.0));
        assert_eq!(exp.value("lat", &[("quantile", "0.5")]), Some(10.0));
    }
}
