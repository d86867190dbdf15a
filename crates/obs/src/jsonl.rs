//! The JSONL trace sink and its determinism contract.
//!
//! Every event becomes exactly one JSON object on its own line:
//!
//! ```json
//! {"scope":"fm","event":"pass","level":"debug","fields":{"pass":1,"cut":42}}
//! {"scope":"portfolio","event":"start","level":"info","fields":{"index":0,"cut":40},"timing":{"worker":2,"wall_ms":7}}
//! {"scope":"timing","event":"worker.claim","level":"debug","fields":{"worker":1,"start":3}}
//! ```
//!
//! Key order is fixed (`scope`, `event`, `level`, then kind-specific
//! keys, then `fields`, then `timing` **last**), and field order inside
//! the sub-objects is the deterministic insertion order of the emitting
//! site. The determinism contract: after [`strip_timing`] — drop lines
//! whose scope is [`TIMING_SCOPE`](crate::TIMING_SCOPE), remove the
//! trailing `"timing"` sub-object from the rest — a fixed-seed trace is
//! byte-identical at every `--jobs` level (`scripts/strip_timing.sh` is
//! the shell mirror used by CI).

use crate::event::{Event, Kind, Level, Value};
use crate::recorder::Recorder;
use std::io::Write;
use std::sync::Mutex;

/// Appends a JSON string literal (quoted, escaped) to `out`.
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a JSON rendering of `v` to `out`. Non-finite floats become
/// `null` (JSON has no NaN/Inf); finite floats use Rust's
/// shortest-roundtrip `Display`, which is deterministic for a given
/// value.
fn push_json_value(out: &mut String, v: &Value) {
    use std::fmt::Write as _;
    match v {
        Value::I64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::U64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::F64(x) if x.is_finite() => {
            let _ = write!(out, "{x}");
        }
        Value::F64(_) => out.push_str("null"),
        Value::Bool(x) => {
            let _ = write!(out, "{x}");
        }
        Value::Str(x) => push_json_str(out, x),
        Value::UList(xs) => {
            out.push('[');
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{x}");
            }
            out.push(']');
        }
    }
}

fn push_pairs(out: &mut String, pairs: &[(&'static str, Value)]) {
    out.push('{');
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, k);
        out.push(':');
        push_json_value(out, v);
    }
    out.push('}');
}

/// Renders one event as its JSONL line (no trailing newline).
pub fn to_json_line(event: &Event) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"scope\":");
    push_json_str(&mut out, event.scope);
    out.push_str(",\"event\":");
    push_json_str(&mut out, event.name);
    out.push_str(",\"level\":");
    push_json_str(&mut out, event.level.as_str());
    match &event.kind {
        Kind::Point => {}
        Kind::Counter(n) => {
            use std::fmt::Write as _;
            let _ = write!(out, ",\"kind\":\"counter\",\"value\":{n}");
        }
        Kind::Gauge(v) => {
            out.push_str(",\"kind\":\"gauge\",\"value\":");
            push_json_value(&mut out, &Value::F64(*v));
        }
        Kind::Hist(bins) => {
            out.push_str(",\"kind\":\"hist\",\"bins\":");
            push_json_value(&mut out, &Value::UList(bins.clone()));
        }
    }
    if !event.fields.is_empty() {
        out.push_str(",\"fields\":");
        push_pairs(&mut out, &event.fields);
    }
    // The timing sub-object is always last so determinism tooling can
    // strip it with a tail match.
    if !event.timing.is_empty() {
        out.push_str(",\"timing\":");
        push_pairs(&mut out, &event.timing);
    }
    out.push('}');
    out
}

/// Renders a slice of events as a JSONL document (one line each).
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&to_json_line(e));
        out.push('\n');
    }
    out
}

/// Applies the determinism strip to a JSONL trace document: drops
/// timing-scoped lines and removes the trailing `"timing"` sub-object
/// from the rest. Two fixed-seed traces taken at different `--jobs`
/// levels must be byte-identical after this (the contract CI enforces
/// via `scripts/strip_timing.sh`, which performs the same rewrite).
pub fn strip_timing(trace: &str) -> String {
    let mut out = String::with_capacity(trace.len());
    for line in trace.lines() {
        if line.contains("\"scope\":\"timing\"") {
            continue;
        }
        match line.rfind(",\"timing\":{") {
            Some(i) if line.ends_with("}}") => {
                out.push_str(&line[..i]);
                out.push('}');
            }
            _ => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// A [`Recorder`] writing JSONL to any `Write` sink (typically a
/// buffered trace file opened by [`JsonlRecorder::create_atomic`]).
/// Records every level by default.
pub struct JsonlRecorder {
    max: Level,
    out: Mutex<Box<dyn Write + Send>>,
    /// `(temp path, final path)` when opened by
    /// [`JsonlRecorder::create_atomic`]: events stream into the temp
    /// file and only [`JsonlRecorder::commit`] publishes it.
    atomic: Option<(std::path::PathBuf, std::path::PathBuf)>,
    committed: std::sync::atomic::AtomicBool,
}

impl std::fmt::Debug for JsonlRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlRecorder")
            .field("max", &self.max)
            .finish_non_exhaustive()
    }
}

impl JsonlRecorder {
    /// Wraps an arbitrary writer.
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        JsonlRecorder {
            max: Level::Trace,
            out: Mutex::new(out),
            atomic: None,
            committed: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Creates (truncating) a trace file at `path`, buffered.
    ///
    /// The file appears at `path` immediately and grows as events
    /// stream in, so an interrupted run leaves a readable prefix.
    /// Artifact consumers that must never observe a truncated trace
    /// should use [`JsonlRecorder::create_atomic`] instead.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`std::io::Error`] if the file cannot
    /// be created.
    pub fn create(path: &str) -> std::io::Result<Self> {
        let f = std::fs::File::create(path)?;
        Ok(Self::new(Box::new(std::io::BufWriter::new(f))))
    }

    /// Creates a trace that streams into `<path>.tmp` and only appears
    /// at `path` when [`JsonlRecorder::commit`] renames it into place.
    ///
    /// A run killed mid-write therefore never leaves a truncated
    /// artifact at `path` — at worst a stale `<path>.tmp` remains,
    /// which no consumer treats as a trace. Dropping the recorder
    /// without committing removes the temp file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`std::io::Error`] if the temp file
    /// cannot be created.
    pub fn create_atomic(path: &str) -> std::io::Result<Self> {
        let final_path = std::path::PathBuf::from(path);
        let tmp = std::path::PathBuf::from(format!("{path}.tmp"));
        let f = std::fs::File::create(&tmp)?;
        let mut r = Self::new(Box::new(std::io::BufWriter::new(f)));
        r.atomic = Some((tmp, final_path));
        Ok(r)
    }

    /// Flushes, syncs and atomically publishes an
    /// [atomic](JsonlRecorder::create_atomic) trace at its final path;
    /// a no-op for plain writers and on a second call. Events recorded
    /// after a commit are discarded.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`std::io::Error`] of the flush, sync
    /// or rename.
    pub fn commit(&self) -> std::io::Result<()> {
        self.flush()?;
        let Some((tmp, final_path)) = &self.atomic else {
            return Ok(());
        };
        if self
            .committed
            .swap(true, std::sync::atomic::Ordering::SeqCst)
        {
            return Ok(());
        }
        // Route post-commit records into the void rather than a file
        // that has been renamed away.
        *self
            .out
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Box::new(std::io::sink());
        std::fs::File::open(tmp)?.sync_all()?;
        std::fs::rename(tmp, final_path)
    }

    /// Caps the recorded level (default: everything).
    #[must_use]
    pub fn with_max_level(mut self, max: Level) -> Self {
        self.max = max;
        self
    }

    /// Flushes the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`std::io::Error`].
    pub fn flush(&self) -> std::io::Result<()> {
        self.out
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .flush()
    }
}

impl Drop for JsonlRecorder {
    fn drop(&mut self) {
        let _ = self.flush();
        // An uncommitted atomic trace is an unwanted partial artifact.
        if let Some((tmp, _)) = &self.atomic {
            if !self.committed.load(std::sync::atomic::Ordering::SeqCst) {
                let _ = std::fs::remove_file(tmp);
            }
        }
    }
}

impl Recorder for JsonlRecorder {
    fn enabled(&self, level: Level) -> bool {
        level <= self.max
    }

    fn record(&self, event: &Event) {
        if !self.enabled(event.level) {
            return;
        }
        let mut line = to_json_line(event);
        line.push('\n');
        // Telemetry never propagates I/O errors into the run.
        let _ = self
            .out
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .write_all(line.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_shape_and_key_order() {
        let e = Event::new("fm", "pass", Level::Debug)
            .field("pass", 1u64)
            .field("cut", 42u64)
            .timing("wall_ms", 7u64);
        assert_eq!(
            to_json_line(&e),
            r#"{"scope":"fm","event":"pass","level":"debug","fields":{"pass":1,"cut":42},"timing":{"wall_ms":7}}"#
        );
    }

    #[test]
    fn metric_kinds_serialize() {
        assert_eq!(
            to_json_line(&Event::counter("portfolio", "starts", 5)),
            r#"{"scope":"portfolio","event":"starts","level":"info","kind":"counter","value":5}"#
        );
        assert_eq!(
            to_json_line(&Event::gauge("paper", "kbar", 0.25)),
            r#"{"scope":"paper","event":"kbar","level":"info","kind":"gauge","value":0.25}"#
        );
        assert_eq!(
            to_json_line(&Event::hist("paper", "devices", vec![1, 0, 2])),
            r#"{"scope":"paper","event":"devices","level":"info","kind":"hist","bins":[1,0,2]}"#
        );
    }

    #[test]
    fn strings_are_escaped() {
        let e = Event::new("x", "y", Level::Info).field("s", "a\"b\\c\nd\u{1}");
        let line = to_json_line(&e);
        assert!(line.contains(r#""s":"a\"b\\c\nd\u0001""#), "line: {line}");
        assert_eq!(
            to_json_line(&Event::new("x", "nan", Level::Info).field("v", f64::NAN)),
            r#"{"scope":"x","event":"nan","level":"info","fields":{"v":null}}"#
        );
    }

    #[test]
    fn strip_removes_timing_and_timing_scope() {
        let events = vec![
            Event::new("fm", "pass", Level::Debug).field("cut", 3u64),
            Event::new("timing", "worker.claim", Level::Debug).field("worker", 1u64),
            Event::new("portfolio", "start", Level::Info)
                .field("index", 0u64)
                .timing("worker", 1u64)
                .timing("wall_ms", 9u64),
        ];
        let stripped = strip_timing(&to_jsonl(&events));
        assert_eq!(
            stripped,
            "{\"scope\":\"fm\",\"event\":\"pass\",\"level\":\"debug\",\"fields\":{\"cut\":3}}\n\
             {\"scope\":\"portfolio\",\"event\":\"start\",\"level\":\"info\",\"fields\":{\"index\":0}}\n"
        );
    }

    #[test]
    fn strip_agrees_with_skeleton() {
        // The string-level strip and the event-level skeleton are the
        // same contract expressed twice; keep them in lockstep.
        let events = vec![
            Event::new("kway", "done", Level::Info)
                .field("cost", 750u64)
                .timing("wall_ms", 3u64),
            Event::new("timing", "drain", Level::Debug),
        ];
        let via_strings = strip_timing(&to_jsonl(&events));
        let via_skeleton: Vec<Event> = events
            .iter()
            .filter_map(Event::deterministic_skeleton)
            .collect();
        assert_eq!(via_strings, to_jsonl(&via_skeleton));
    }

    #[test]
    fn atomic_recorder_publishes_only_on_commit() {
        let dir = std::env::temp_dir().join(format!("netpart-obs-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("trace.jsonl");
        let path_s = path.to_str().expect("utf8 path");
        {
            let r = JsonlRecorder::create_atomic(path_s).expect("create");
            r.record(&Event::new("a", "b", Level::Info));
            r.flush().expect("flush");
            assert!(!path.exists(), "final path must not exist before commit");
            assert!(path.with_extension("jsonl.tmp").exists());
            r.commit().expect("commit");
            r.commit().expect("second commit is a no-op");
            assert!(path.exists());
            assert!(!path.with_extension("jsonl.tmp").exists());
        }
        let text = std::fs::read_to_string(&path).expect("read");
        assert_eq!(text.lines().count(), 1);

        // Dropping without commit removes the temp file and never
        // touches the final path.
        let path2 = dir.join("dropped.jsonl");
        {
            let r = JsonlRecorder::create_atomic(path2.to_str().expect("utf8")).expect("create");
            r.record(&Event::new("a", "b", Level::Info));
        }
        assert!(!path2.exists());
        assert!(!path2.with_extension("jsonl.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recorder_writes_lines_and_respects_max_level() {
        let buf: std::sync::Arc<Mutex<Vec<u8>>> = std::sync::Arc::default();
        struct Shared(std::sync::Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let r = JsonlRecorder::new(Box::new(Shared(buf.clone()))).with_max_level(Level::Debug);
        assert!(r.enabled(Level::Debug));
        assert!(!r.enabled(Level::Trace));
        r.record(&Event::new("a", "kept", Level::Info));
        r.record(&Event::new("a", "dropped", Level::Trace));
        r.flush().expect("in-memory flush");
        let text = String::from_utf8(
            buf.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .clone(),
        )
        .expect("utf8");
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"kept\""));
    }
}
