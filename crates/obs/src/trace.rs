//! Trace tooling: schema validation, summarization and determinism
//! diffs over JSONL trace documents.
//!
//! This is the library behind `netpart trace
//! <summarize|validate|diff>`. It carries its own minimal JSON reader
//! ([`parse_json`]) because the trace schema is *order-sensitive* — the
//! determinism contract pins the exact top-level key sequence (`scope`,
//! `event`, `level`, kind keys, `fields`, then `timing` **last**) — and
//! a conventional map-based parser would erase exactly the property we
//! must check.
//!
//! [`scan_trace`] walks a document once, producing both a
//! [`TraceSummary`] (per-event counts, counter totals, span time
//! aggregates) and every schema violation found:
//!
//! * malformed JSON, wrong key order, unknown or duplicate keys;
//! * bad `level`/`kind` values or kind payload types;
//! * non-flat `fields`/`timing` sub-objects;
//! * unbalanced spans — normal-scope spans must nest LIFO across the
//!   whole trace, [`TIMING_SCOPE`](crate::TIMING_SCOPE) spans (which
//!   interleave across workers) must count-balance per label and never
//!   exit before entering.
//!
//! [`diff_stripped`] applies [`strip_timing`](crate::strip_timing) to
//! two documents and reports the first divergence — the native
//! replacement for piping through `scripts/strip_timing.sh` and `diff`.

use std::collections::BTreeMap;

/// A parsed JSON value with object key order preserved.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Object lookup by key (first occurrence).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if exact.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn new(s: &'a str) -> Self {
        JsonParser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_lit("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat_lit("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.eat_lit("null").map(|()| Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let end = self.pos.checked_add(4).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u16::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                self.eat_lit("\\u")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("bad surrogate pair"));
                                }
                                let cp = 0x10000
                                    + ((u32::from(hi) - 0xD800) << 10)
                                    + (u32::from(lo) - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("bad surrogate"))?
                            } else {
                                char::from_u32(u32::from(hi))
                                    .ok_or_else(|| self.err("lone surrogate"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf8"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

/// Parses one JSON document, preserving object key order. Trailing
/// whitespace is allowed; trailing garbage is an error.
///
/// # Errors
///
/// A message naming the failure and its byte offset.
pub fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = JsonParser::new(s);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

/// Aggregated per-span statistics from `span.exit` timing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanAgg {
    /// Completed span instances.
    pub count: u64,
    /// Total inclusive time, microseconds (from `elapsed_us`, falling
    /// back to `elapsed_ms`).
    pub total_us: u64,
}

/// What a trace contains, as discovered by [`scan_trace`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// Total event lines.
    pub lines: u64,
    /// `scope.event` → occurrence count.
    pub events: BTreeMap<String, u64>,
    /// Level name → count.
    pub levels: BTreeMap<String, u64>,
    /// `scope.event` → summed counter deltas.
    pub counters: BTreeMap<String, u64>,
    /// `scope/span` → completed-span aggregate.
    pub spans: BTreeMap<String, SpanAgg>,
}

/// The result of one validating walk over a trace document.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceScan {
    /// Counts and aggregates (populated even when errors exist, from
    /// the lines that did parse).
    pub summary: TraceSummary,
    /// Every schema violation, formatted `line N: message`.
    pub errors: Vec<String>,
}

impl TraceScan {
    /// Whether the document is schema-clean.
    pub fn is_valid(&self) -> bool {
        self.errors.is_empty()
    }
}

const LEVELS: [&str; 3] = ["info", "debug", "trace"];

fn is_flat_value(v: &Json) -> bool {
    match v {
        Json::Null | Json::Bool(_) | Json::Num(_) | Json::Str(_) => true,
        Json::Arr(items) => items.iter().all(|i| i.as_u64().is_some()),
        Json::Obj(_) => false,
    }
}

fn check_flat(pairs: &[(String, Json)], what: &str, errors: &mut Vec<String>, ln: usize) {
    let mut seen = std::collections::BTreeSet::new();
    for (k, v) in pairs {
        if !seen.insert(k.as_str()) {
            errors.push(format!("line {ln}: duplicate key {k:?} in {what}"));
        }
        if !is_flat_value(v) {
            errors.push(format!("line {ln}: {what} value for {k:?} is not flat"));
        }
    }
}

/// Validates and summarizes one event line (already parsed). Returns
/// `(scope, event, span_field)` when the line is structurally usable.
fn check_line(
    obj: &[(String, Json)],
    ln: usize,
    errors: &mut Vec<String>,
) -> Option<(String, String, Option<String>)> {
    let key = |i: usize| obj.get(i).map(|(k, _)| k.as_str());
    macro_rules! bad {
        ($($t:tt)*) => {
            errors.push(format!("line {}: {}", ln, format!($($t)*)))
        };
    }

    let mut idx = 0;
    let mut need = |name: &str| -> Option<Json> {
        let got = obj.get(idx);
        idx += 1;
        match got {
            Some((k, v)) if k == name => Some(v.clone()),
            _ => None,
        }
    };
    let Some(scope) = need("scope").and_then(|v| v.as_str().map(String::from)) else {
        bad!("key 1 must be a string `scope`");
        return None;
    };
    let Some(event) = need("event").and_then(|v| v.as_str().map(String::from)) else {
        bad!("key 2 must be a string `event`");
        return None;
    };
    let Some(level) = need("level").and_then(|v| v.as_str().map(String::from)) else {
        bad!("key 3 must be a string `level`");
        return None;
    };
    if scope.is_empty() || event.is_empty() {
        bad!("empty scope or event name");
    }
    if !LEVELS.contains(&level.as_str()) {
        bad!("unknown level {level:?}");
    }

    if key(idx) == Some("kind") {
        let kind = obj[idx].1.as_str().unwrap_or("").to_string();
        idx += 1;
        match kind.as_str() {
            "counter" => {
                if key(idx) == Some("value") && obj[idx].1.as_u64().is_some() {
                    idx += 1;
                } else {
                    bad!("counter needs a non-negative integer `value`");
                    return None;
                }
            }
            "gauge" => {
                if key(idx) == Some("value") && matches!(obj[idx].1, Json::Num(_) | Json::Null) {
                    idx += 1;
                } else {
                    bad!("gauge needs a numeric (or null) `value`");
                    return None;
                }
            }
            "hist" => {
                if key(idx) == Some("bins")
                    && matches!(&obj[idx].1, Json::Arr(items)
                        if items.iter().all(|i| i.as_u64().is_some()))
                {
                    idx += 1;
                } else {
                    bad!("hist needs a `bins` array of non-negative integers");
                    return None;
                }
            }
            other => {
                bad!("unknown kind {other:?}");
                return None;
            }
        }
    }

    let mut span_field = None;
    for section in ["fields", "timing"] {
        if key(idx) == Some(section) {
            match &obj[idx].1 {
                Json::Obj(pairs) => {
                    check_flat(pairs, section, errors, ln);
                    if section == "fields" {
                        span_field = pairs
                            .iter()
                            .find(|(k, _)| k == "span")
                            .and_then(|(_, v)| v.as_str().map(String::from));
                    }
                }
                _ => errors.push(format!("line {ln}: `{section}` must be an object")),
            }
            idx += 1;
        }
    }
    if idx != obj.len() {
        let extra: Vec<&str> = obj[idx..].iter().map(|(k, _)| k.as_str()).collect();
        bad!("unexpected or out-of-order trailing keys {extra:?} (timing must come last)");
    }
    Some((scope, event, span_field))
}

fn timing_us(obj: &Json) -> u64 {
    let t = obj.get("timing");
    let us = t.and_then(|t| t.get("elapsed_us")).and_then(Json::as_u64);
    us.unwrap_or_else(|| {
        t.and_then(|t| t.get("elapsed_ms"))
            .and_then(Json::as_u64)
            .map_or(0, |ms| ms * 1000)
    })
}

/// Walks a JSONL trace document once, validating every line against the
/// documented schema and aggregating a [`TraceSummary`]. Blank lines
/// are ignored. See the module docs for the rules enforced.
pub fn scan_trace(text: &str) -> TraceScan {
    let mut scan = TraceScan::default();
    // Normal-scope spans nest LIFO globally; timing-scope spans only
    // count-balance per label (they interleave across workers).
    let mut stack: Vec<(String, String)> = Vec::new();
    let mut timing_open: BTreeMap<String, i64> = BTreeMap::new();

    for (i, line) in text.lines().enumerate() {
        let ln = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        scan.summary.lines += 1;
        let obj = match parse_json(line) {
            Ok(Json::Obj(pairs)) => pairs,
            Ok(_) => {
                scan.errors.push(format!("line {ln}: not a JSON object"));
                continue;
            }
            Err(e) => {
                scan.errors.push(format!("line {ln}: {e}"));
                continue;
            }
        };
        let Some((scope, event, span_field)) = check_line(&obj, ln, &mut scan.errors) else {
            continue;
        };
        let obj = Json::Obj(obj);

        let id = format!("{scope}.{event}");
        *scan.summary.events.entry(id.clone()).or_insert(0) += 1;
        if let Some(level) = obj.get("level").and_then(Json::as_str) {
            *scan.summary.levels.entry(level.to_string()).or_insert(0) += 1;
        }
        if obj.get("kind").and_then(Json::as_str) == Some("counter") {
            if let Some(v) = obj.get("value").and_then(Json::as_u64) {
                *scan.summary.counters.entry(id).or_insert(0) += v;
            }
        }

        if event != "span.enter" && event != "span.exit" {
            continue;
        }
        let Some(label) = span_field else {
            scan.errors
                .push(format!("line {ln}: {event} without a string `span` field"));
            continue;
        };
        let span_id = format!("{scope}/{label}");
        let timing_scoped = scope == crate::event::TIMING_SCOPE;
        match (event.as_str(), timing_scoped) {
            ("span.enter", true) => *timing_open.entry(span_id).or_insert(0) += 1,
            ("span.exit", true) => {
                let open = timing_open.entry(span_id.clone()).or_insert(0);
                *open -= 1;
                if *open < 0 {
                    scan.errors.push(format!(
                        "line {ln}: span.exit for {span_id} before its enter"
                    ));
                }
                let agg = scan.summary.spans.entry(span_id).or_default();
                agg.count += 1;
                agg.total_us += timing_us(&obj);
            }
            ("span.enter", false) => stack.push((span_id, label)),
            ("span.exit", false) => match stack.pop() {
                Some((top_id, _)) if top_id == span_id => {
                    let agg = scan.summary.spans.entry(span_id).or_default();
                    agg.count += 1;
                    agg.total_us += timing_us(&obj);
                }
                Some((top_id, _)) => {
                    scan.errors.push(format!(
                        "line {ln}: span.exit for {span_id} but innermost open span is {top_id}"
                    ));
                }
                None => {
                    scan.errors.push(format!(
                        "line {ln}: span.exit for {span_id} with no open span"
                    ));
                }
            },
            _ => unreachable!("event name was matched above"),
        }
    }
    for (id, _) in stack {
        scan.errors
            .push(format!("end of trace: span {id} never exited"));
    }
    for (id, open) in timing_open {
        if open > 0 {
            scan.errors
                .push(format!("end of trace: {open} {id} span(s) never exited"));
        }
    }
    scan
}

/// The first divergence between two stripped traces.
#[derive(Clone, Debug, PartialEq)]
pub struct StripDiff {
    /// 1-based line number (in the stripped documents) of the first
    /// difference.
    pub line: usize,
    /// The left document's line (`None` past its end).
    pub left: Option<String>,
    /// The right document's line (`None` past its end).
    pub right: Option<String>,
}

/// Applies the determinism strip ([`strip_timing`](crate::strip_timing))
/// to both documents and returns the first differing line, or `None`
/// when they are byte-identical after stripping — the check CI runs
/// across `--jobs` levels.
pub fn diff_stripped(a: &str, b: &str) -> Option<StripDiff> {
    let (a, b) = (crate::jsonl::strip_timing(a), crate::jsonl::strip_timing(b));
    if a == b {
        return None;
    }
    let mut left = a.lines();
    let mut right = b.lines();
    let mut line = 0;
    loop {
        line += 1;
        match (left.next(), right.next()) {
            (Some(l), Some(r)) if l == r => continue,
            (None, None) => {
                // Same lines, different document (e.g. trailing bytes).
                return Some(StripDiff {
                    line,
                    left: None,
                    right: None,
                });
            }
            (l, r) => {
                return Some(StripDiff {
                    line,
                    left: l.map(String::from),
                    right: r.map(String::from),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Level, TIMING_SCOPE};
    use crate::jsonl::to_jsonl;
    use crate::recorder::{BufferRecorder, Span};

    #[test]
    fn parser_roundtrips_real_lines() {
        let j = parse_json(
            r#"{"scope":"fm","event":"pass","level":"debug","fields":{"pass":1,"s":"a\"b\\c\nd\u0001"},"timing":{"wall_ms":7}}"#,
        )
        .expect("parse");
        assert_eq!(j.get("scope").and_then(Json::as_str), Some("fm"));
        assert_eq!(
            j.get("fields")
                .and_then(|f| f.get("s"))
                .and_then(Json::as_str),
            Some("a\"b\\c\nd\u{1}")
        );
        assert_eq!(
            j.get("timing")
                .and_then(|t| t.get("wall_ms"))
                .and_then(Json::as_u64),
            Some(7)
        );
        // Numbers, escapes, nesting.
        let j = parse_json(r#"[1, -2.5, 1e3, "🦀", [0], {"a":null}]"#).expect("parse");
        match j {
            Json::Arr(items) => {
                assert_eq!(items[1], Json::Num(-2.5));
                assert_eq!(items[2], Json::Num(1000.0));
                assert_eq!(items[3].as_str(), Some("🦀"));
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert!(parse_json(r#"{"a":1} junk"#).is_err());
        assert!(parse_json(r#"{"a":}"#).is_err());
        assert!(parse_json(r#""unterminated"#).is_err());
    }

    #[test]
    fn clean_trace_scans_valid_with_summary() {
        let buf = BufferRecorder::new();
        {
            let _outer = Span::enter(&buf, "engine", "bipartition");
            let _inner = Span::enter(&buf, "ml", "level");
        }
        let events = [
            Event::new("fm", "pass", Level::Trace).field("pass", 1u64),
            Event::counter("fm", "moves", 12),
            Event::counter("fm", "moves", 3),
        ];
        let mut text = to_jsonl(&buf.take());
        text.push_str(&to_jsonl(&events));
        let scan = scan_trace(&text);
        assert!(scan.is_valid(), "errors: {:?}", scan.errors);
        assert_eq!(scan.summary.lines, 7);
        assert_eq!(scan.summary.events["fm.pass"], 1);
        assert_eq!(scan.summary.counters["fm.moves"], 15);
        assert_eq!(scan.summary.spans["engine/bipartition"].count, 1);
        assert_eq!(scan.summary.levels["debug"], 4);
    }

    #[test]
    fn schema_violations_are_reported() {
        let cases = [
            (r#"{"event":"x","scope":"a","level":"info"}"#, "key 1"),
            (
                r#"{"scope":"a","event":"x","level":"loud"}"#,
                "unknown level",
            ),
            (
                r#"{"scope":"a","event":"x","level":"info","kind":"counter","value":-1}"#,
                "non-negative",
            ),
            (
                r#"{"scope":"a","event":"x","level":"info","kind":"tally","value":1}"#,
                "unknown kind",
            ),
            (
                r#"{"scope":"a","event":"x","level":"info","timing":{"t":1},"fields":{"a":1}}"#,
                "timing must come last",
            ),
            (
                r#"{"scope":"a","event":"x","level":"info","fields":{"a":{"nested":1}}}"#,
                "not flat",
            ),
            (
                r#"{"scope":"a","event":"x","level":"info","fields":{"a":1,"a":2}}"#,
                "duplicate key",
            ),
            (
                r#"{"scope":"a","event":"x","level":"info","extra":1}"#,
                "trailing keys",
            ),
            (r#"[1,2]"#, "not a JSON object"),
            (
                r#"{"scope":"a","event":"span.exit","level":"debug"}"#,
                "`span` field",
            ),
            (
                r#"{"scope":"a","event":"span.exit","level":"debug","fields":{"span":"x"}}"#,
                "no open span",
            ),
            (
                r#"{"scope":"a","event":"span.enter","level":"debug","fields":{"nope":1}}"#,
                "`span` field",
            ),
        ];
        for (line, expect) in cases {
            let scan = scan_trace(line);
            assert!(
                scan.errors.iter().any(|e| e.contains(expect)),
                "{line} should report {expect:?}, got {:?}",
                scan.errors
            );
        }
    }

    #[test]
    fn span_nesting_is_enforced() {
        let a = Event::new("a", "span.enter", Level::Debug).field("span", "outer");
        let b = Event::new("b", "span.enter", Level::Debug).field("span", "inner");
        let a_exit = Event::new("a", "span.exit", Level::Debug).field("span", "outer");
        let b_exit = Event::new("b", "span.exit", Level::Debug).field("span", "inner");
        // Crossed exits.
        let scan = scan_trace(&to_jsonl(&[
            a.clone(),
            b.clone(),
            a_exit.clone(),
            b_exit.clone(),
        ]));
        assert!(scan
            .errors
            .iter()
            .any(|e| e.contains("innermost open span")));
        // Never closed.
        let scan = scan_trace(&to_jsonl(&[a.clone(), b.clone(), b_exit.clone()]));
        assert!(scan.errors.iter().any(|e| e.contains("never exited")));
        // Properly nested.
        let scan = scan_trace(&to_jsonl(&[a, b, b_exit, a_exit]));
        assert!(scan.is_valid(), "errors: {:?}", scan.errors);
    }

    #[test]
    fn timing_scope_spans_balance_by_count_not_order() {
        let enter =
            |_w: u64| Event::new(TIMING_SCOPE, "span.enter", Level::Debug).field("span", "worker");
        let exit = |_w: u64| {
            Event::new(TIMING_SCOPE, "span.exit", Level::Debug)
                .field("span", "worker")
                .timing("elapsed_us", 500u64)
        };
        // Interleaved enters/exits from two workers: fine.
        let scan = scan_trace(&to_jsonl(&[enter(0), enter(1), exit(0), exit(1)]));
        assert!(scan.is_valid(), "errors: {:?}", scan.errors);
        assert_eq!(
            scan.summary.spans["timing/worker"],
            SpanAgg {
                count: 2,
                total_us: 1000
            }
        );
        // Exit before any enter: error.
        let scan = scan_trace(&to_jsonl(&[exit(0)]));
        assert!(scan.errors.iter().any(|e| e.contains("before its enter")));
        // Enter never exited: error at end of trace.
        let scan = scan_trace(&to_jsonl(&[enter(0)]));
        assert!(scan.errors.iter().any(|e| e.contains("never exited")));
    }

    #[test]
    fn diff_stripped_ignores_timing_and_finds_real_divergence() {
        let base = [
            Event::new("fm", "pass", Level::Debug)
                .field("cut", 10u64)
                .timing("wall_ms", 5u64),
            Event::new("fm", "done", Level::Info).field("cut", 8u64),
        ];
        let mut noisy = base.to_vec();
        noisy[0].timing = vec![("wall_ms", crate::event::Value::U64(900))];
        noisy.insert(
            1,
            Event::new(TIMING_SCOPE, "claim", Level::Debug).field("worker", 3u64),
        );
        assert_eq!(diff_stripped(&to_jsonl(&base), &to_jsonl(&noisy)), None);

        let mut diverged = base.to_vec();
        diverged[1] = Event::new("fm", "done", Level::Info).field("cut", 9u64);
        let d = diff_stripped(&to_jsonl(&base), &to_jsonl(&diverged)).expect("differs");
        assert_eq!(d.line, 2);
        assert!(d.left.expect("left line").contains("\"cut\":8"));
        assert!(d.right.expect("right line").contains("\"cut\":9"));

        let d = diff_stripped(&to_jsonl(&base), &to_jsonl(&base[..1])).expect("length diff");
        assert_eq!(d.line, 2);
        assert_eq!(d.right, None);
    }
}
