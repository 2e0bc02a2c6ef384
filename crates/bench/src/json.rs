//! Minimal JSON parsing and schema checking for the `BENCH_*.json`
//! snapshots.
//!
//! The bench binaries hand-write their JSON (the workspace deliberately
//! has no serde), which means a formatting bug could silently ship an
//! empty or truncated snapshot and CI would still go green. This module
//! closes that hole: a small, dependency-free recursive-descent JSON
//! parser plus dotted-path schema checks, used by the `check_bench_json`
//! binary that CI runs on every smoke emitter output.
//!
//! The parser accepts exactly RFC 8259 JSON (objects, arrays, strings
//! with the standard escapes, numbers, booleans, null) and rejects
//! trailing garbage. It is **not** a performance-critical path — files
//! are a few KB — so clarity wins over speed everywhere.
//!
//! On top of key-presence checks ([`missing_paths`]) this module layers
//! two stronger gates the CI checker runs:
//!
//! * [`check_bounds`] — numeric **range assertions** on dotted paths
//!   (with a `[*]` wildcard over arrays), so a snapshot that is
//!   schema-valid but numerically nonsense (`reject_rate: 7.3`, a
//!   zero throughput) fails the gate;
//! * [`compare_throughput`] — a small **regression comparator**: given a
//!   committed baseline snapshot and a fresh candidate of the same bench
//!   family, it ratios designated throughput metrics and flags any that
//!   dropped by more than an allowed fraction.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved as written.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Dotted-path lookup: `path("graph.nodes")` ≡
    /// `get("graph")?.get("nodes")`.
    pub fn path(&self, dotted: &str) -> Option<&Json> {
        let mut cur = self;
        for part in dotted.split('.') {
            cur = cur.get(part)?;
        }
        Some(cur)
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(x) => write!(f, "{x}"),
            Json::Str(s) => write!(f, "{s:?}"),
            Json::Arr(items) => write!(f, "[…{} items]", items.len()),
            Json::Obj(fields) => write!(f, "{{…{} fields}}", fields.len()),
        }
    }
}

/// Parses a complete JSON document. Errors carry a byte offset and a
/// short description.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the JSON document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("JSON error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by our own
                            // emitters; map lone surrogates to U+FFFD
                            // rather than failing the whole check.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is &str, so
                    // boundaries are valid by construction).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let ch = rest.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("invalid number '{text}'")))
    }
}

/// Checks that every dotted path exists in `json`, returning the list of
/// missing paths (empty = schema satisfied).
pub fn missing_paths<'a>(json: &Json, paths: &[&'a str]) -> Vec<&'a str> {
    paths
        .iter()
        .copied()
        .filter(|p| json.path(p).is_none())
        .collect()
}

/// Resolves a dotted path that may contain `name[*]` wildcard segments,
/// returning **every** value the path reaches (empty when any segment is
/// missing or a `[*]` lands on a non-array).
///
/// `collect_path(doc, "sweep[*].k")` returns the `k` of every `sweep`
/// element; a plain dotted path returns zero or one value. Order follows
/// document order, so two documents with equally-shaped arrays can be
/// compared element by element.
pub fn collect_path<'a>(json: &'a Json, path: &str) -> Vec<&'a Json> {
    fn walk<'a>(node: &'a Json, segments: &[&str], out: &mut Vec<&'a Json>) {
        let Some((seg, rest)) = segments.split_first() else {
            out.push(node);
            return;
        };
        if let Some(field) = seg.strip_suffix("[*]") {
            let Some(items) = node.get(field).and_then(Json::as_array) else {
                return;
            };
            for item in items {
                walk(item, rest, out);
            }
        } else if let Some(next) = node.get(seg) {
            walk(next, rest, out);
        }
    }
    let segments: Vec<&str> = path.split('.').collect();
    let mut out = Vec::new();
    walk(json, &segments, &mut out);
    out
}

/// A numeric range assertion on a (possibly `[*]`-wildcarded) dotted path.
///
/// The path must resolve to at least one value and every value it reaches
/// must be a number within `[min, max]` (either bound optional).
#[derive(Debug, Clone, Copy)]
pub struct Bound {
    /// Dotted path, `[*]` wildcards allowed (see [`collect_path`]).
    pub path: &'static str,
    /// Inclusive lower bound, if any.
    pub min: Option<f64>,
    /// Inclusive upper bound, if any.
    pub max: Option<f64>,
}

impl Bound {
    /// `path >= min`.
    pub const fn at_least(path: &'static str, min: f64) -> Self {
        Self {
            path,
            min: Some(min),
            max: None,
        }
    }

    /// `path <= max`.
    pub const fn at_most(path: &'static str, max: f64) -> Self {
        Self {
            path,
            min: None,
            max: Some(max),
        }
    }

    /// `min <= path <= max`.
    pub const fn between(path: &'static str, min: f64, max: f64) -> Self {
        Self {
            path,
            min: Some(min),
            max: Some(max),
        }
    }
}

/// Applies every [`Bound`] to `json`, returning one human-readable
/// violation message per failure (empty = all bounds hold). A path that
/// resolves to nothing, or to a non-number, is itself a violation —
/// bounds double as presence checks.
pub fn check_bounds(json: &Json, bounds: &[Bound]) -> Vec<String> {
    let mut violations = Vec::new();
    for bound in bounds {
        let values = collect_path(json, bound.path);
        if values.is_empty() {
            violations.push(format!("{}: path resolves to no values", bound.path));
            continue;
        }
        for (i, value) in values.iter().enumerate() {
            let at = if values.len() == 1 {
                bound.path.to_owned()
            } else {
                format!("{} (match {i})", bound.path)
            };
            let Some(x) = value.as_f64() else {
                violations.push(format!("{at}: expected a number, got {value}"));
                continue;
            };
            if !x.is_finite() {
                violations.push(format!("{at}: {x} is not finite"));
                continue;
            }
            if let Some(min) = bound.min {
                if x < min {
                    violations.push(format!("{at}: {x} < required minimum {min}"));
                }
            }
            if let Some(max) = bound.max {
                if x > max {
                    violations.push(format!("{at}: {x} > allowed maximum {max}"));
                }
            }
        }
    }
    violations
}

/// One metric's baseline-vs-candidate comparison from
/// [`compare_throughput`].
#[derive(Debug, Clone)]
pub struct CompareRow {
    /// The metric path (wildcard paths expand to one row per element).
    pub metric: String,
    /// Value in the baseline document.
    pub baseline: f64,
    /// Value in the candidate document.
    pub candidate: f64,
    /// `candidate / baseline` (`f64::INFINITY` when the baseline is 0).
    pub ratio: f64,
    /// True when the candidate dropped below `(1 − max_drop) × baseline`.
    pub regressed: bool,
}

/// Compares designated higher-is-better throughput metrics between a
/// `baseline` and a `candidate` snapshot of the same bench family.
///
/// Every path in `paths` (wildcards allowed) must resolve to the same
/// number of numeric values in both documents — array shape is part of
/// the schema. A metric regresses when
/// `candidate < (1 − max_drop) × baseline`; e.g. `max_drop = 0.30` allows
/// up to a 30 % drop. Returns one row per compared value, or a message
/// describing why the comparison itself is impossible (missing path,
/// shape mismatch, non-number).
pub fn compare_throughput(
    baseline: &Json,
    candidate: &Json,
    paths: &[&str],
    max_drop: f64,
) -> Result<Vec<CompareRow>, String> {
    assert!((0.0..1.0).contains(&max_drop), "max_drop must be in [0, 1)");
    let mut rows = Vec::new();
    for path in paths {
        let base_values = collect_path(baseline, path);
        let cand_values = collect_path(candidate, path);
        if base_values.is_empty() {
            return Err(format!("baseline is missing metric \"{path}\""));
        }
        if base_values.len() != cand_values.len() {
            return Err(format!(
                "metric \"{path}\": baseline has {} values, candidate has {}",
                base_values.len(),
                cand_values.len()
            ));
        }
        for (i, (bv, cv)) in base_values.iter().zip(&cand_values).enumerate() {
            let metric = if base_values.len() == 1 {
                (*path).to_owned()
            } else {
                format!("{path}[{i}]")
            };
            let (Some(b), Some(c)) = (bv.as_f64(), cv.as_f64()) else {
                return Err(format!("metric \"{metric}\" is not numeric in both files"));
            };
            let ratio = if b == 0.0 { f64::INFINITY } else { c / b };
            rows.push(CompareRow {
                metric,
                baseline: b,
                candidate: c,
                ratio,
                regressed: c < (1.0 - max_drop) * b,
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let doc = parse(r#"{"a": 1.5, "b": [true, null, "x\n"], "c": {"d": -2e3}}"#).unwrap();
        assert_eq!(doc.path("a").and_then(Json::as_f64), Some(1.5));
        assert_eq!(doc.path("c.d").and_then(Json::as_f64), Some(-2000.0));
        let arr = doc.get("b").and_then(Json::as_array).unwrap();
        assert_eq!(arr[0].as_bool(), Some(true));
        assert_eq!(arr[1], Json::Null);
        assert_eq!(arr[2].as_str(), Some("x\n"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "[1, 2",
            "{\"a\": 1} trailing",
            "{\"a\" 1}",
            "\"unterminated",
            "nul",
            "{\"a\": 1,}",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input: {bad:?}");
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        let doc = parse(r#"{"s": "Aé"}"#).unwrap();
        assert_eq!(doc.path("s").and_then(Json::as_str), Some("Aé"));
    }

    #[test]
    fn missing_paths_reports_exactly_the_gaps() {
        let doc = parse(r#"{"bench": "x", "sweep": [{"k": 1}]}"#).unwrap();
        let missing = missing_paths(&doc, &["bench", "sweep", "graph.nodes", "bench.nope"]);
        assert_eq!(missing, vec!["graph.nodes", "bench.nope"]);
    }

    #[test]
    fn collect_path_expands_wildcards_in_document_order() {
        let doc =
            parse(r#"{"sweep": [{"k": 1, "qps": 10.0}, {"k": 2, "qps": 20.0}], "top": {"x": 5}}"#)
                .unwrap();
        let ks: Vec<f64> = collect_path(&doc, "sweep[*].k")
            .iter()
            .filter_map(|v| v.as_f64())
            .collect();
        assert_eq!(ks, vec![1.0, 2.0]);
        assert_eq!(collect_path(&doc, "top.x").len(), 1);
        assert!(collect_path(&doc, "top.y").is_empty());
        assert!(
            collect_path(&doc, "top[*].x").is_empty(),
            "wildcard on a non-array resolves to nothing"
        );
        assert!(collect_path(&doc, "nope[*].k").is_empty());
    }

    #[test]
    fn bounds_catch_out_of_range_missing_and_non_numeric() {
        let doc =
            parse(r#"{"rate": 1.5, "name": "x", "sweep": [{"r": 0.0}, {"r": 0.9}, {"r": 1.2}]}"#)
                .unwrap();
        let violations = check_bounds(
            &doc,
            &[
                Bound::between("rate", 0.0, 1.0),       // 1.5 > 1.0 → violation
                Bound::at_least("rate", 0.0),           // ok
                Bound::between("sweep[*].r", 0.0, 1.0), // element 2 violates
                Bound::at_most("name", 1.0),            // not a number
                Bound::at_least("absent", 0.0),         // missing path
            ],
        );
        assert_eq!(violations.len(), 4, "{violations:?}");
        assert!(violations[0].contains("1.5"));
        assert!(violations[1].contains("match 2"));
        assert!(violations[2].contains("expected a number"));
        assert!(violations[3].contains("no values"));
        assert!(check_bounds(&doc, &[Bound::between("sweep[*].r", 0.0, 1.2)]).is_empty());
    }

    #[test]
    fn comparator_flags_drops_beyond_the_allowance() {
        let baseline =
            parse(r#"{"a": {"qps": 100.0}, "sweep": [{"u": 50.0}, {"u": 80.0}]}"#).unwrap();
        let candidate =
            parse(r#"{"a": {"qps": 75.0}, "sweep": [{"u": 20.0}, {"u": 120.0}]}"#).unwrap();
        let rows =
            compare_throughput(&baseline, &candidate, &["a.qps", "sweep[*].u"], 0.30).unwrap();
        assert_eq!(rows.len(), 3);
        // 75/100 = a 25% drop: inside the 30% allowance.
        assert!(!rows[0].regressed);
        assert!((rows[0].ratio - 0.75).abs() < 1e-12);
        // 20/50 = a 60% drop: regression.
        assert!(rows[1].regressed);
        assert_eq!(rows[1].metric, "sweep[*].u[0]");
        // 120/80: an improvement never regresses.
        assert!(!rows[2].regressed);
    }

    #[test]
    fn comparator_rejects_shape_mismatches_and_missing_metrics() {
        let baseline = parse(r#"{"sweep": [{"u": 1.0}, {"u": 2.0}]}"#).unwrap();
        let shorter = parse(r#"{"sweep": [{"u": 1.0}]}"#).unwrap();
        assert!(
            compare_throughput(&baseline, &shorter, &["sweep[*].u"], 0.3)
                .unwrap_err()
                .contains("baseline has 2 values, candidate has 1")
        );
        let empty = parse("{}").unwrap();
        assert!(compare_throughput(&empty, &baseline, &["sweep[*].u"], 0.3)
            .unwrap_err()
            .contains("baseline is missing"));
        // Zero baseline: any positive candidate is an infinite improvement,
        // never a regression.
        let zero = parse(r#"{"q": 0.0}"#).unwrap();
        let some = parse(r#"{"q": 5.0}"#).unwrap();
        let rows = compare_throughput(&zero, &some, &["q"], 0.3).unwrap();
        assert!(rows[0].ratio.is_infinite() && !rows[0].regressed);
    }

    #[test]
    fn round_trips_a_real_emitter_shape() {
        // The exact shape scenario_serve writes, shrunk.
        let doc = parse(
            "{\n  \"bench\": \"scenario_serve\",\n  \"smoke\": true,\n  \"graph\": { \"nodes\": 400 },\n  \"calibration\": {\n    \"mean_service_ns\": 12345,\n    \"capacity_qps\": 630.5\n  }\n}\n",
        )
        .unwrap();
        assert_eq!(
            doc.path("bench").and_then(Json::as_str),
            Some("scenario_serve")
        );
        assert_eq!(doc.path("smoke").and_then(Json::as_bool), Some(true));
        assert_eq!(
            doc.path("calibration.capacity_qps").and_then(Json::as_f64),
            Some(630.5)
        );
    }
}
