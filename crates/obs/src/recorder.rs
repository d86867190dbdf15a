//! The [`Recorder`] trait and its composable implementations.
//!
//! Instrumentation sites hold a `&dyn Recorder` and follow the
//! guard-then-emit discipline:
//!
//! ```
//! use netpart_obs::{Event, Level, Recorder, NOOP};
//!
//! fn hot_path(recorder: &dyn Recorder, cut: usize) {
//!     // The guard is one virtual call returning a bool; with the
//!     // no-op recorder nothing below it ever allocates.
//!     if recorder.enabled(Level::Debug) {
//!         recorder.record(&Event::new("fm", "pass", Level::Debug).field("cut", cut));
//!     }
//! }
//! hot_path(&NOOP, 42);
//! ```

use crate::event::{Event, Level, Value};
use std::io::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// A telemetry sink. Implementations must be cheap to probe
/// ([`Recorder::enabled`]) and thread-safe to feed ([`Recorder::record`]
/// takes `&self`).
pub trait Recorder: Send + Sync + std::fmt::Debug {
    /// Whether events at `level` are worth constructing at all.
    /// Instrumentation sites call this before building an [`Event`], so
    /// a `false` here is what makes disabled recording near-free.
    fn enabled(&self, level: Level) -> bool;

    /// Records one event. Implementations may still drop events whose
    /// level they do not record.
    fn record(&self, event: &Event);
}

/// The no-op recorder: records nothing, enables nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self, _level: Level) -> bool {
        false
    }

    fn record(&self, _event: &Event) {}
}

/// A borrowable no-op recorder, for default-parameter positions.
pub static NOOP: NoopRecorder = NoopRecorder;

/// Renders events as human-readable lines on stderr (`-v` / `-vv`).
///
/// The format is `scope.name key=value …`, with the timing fields
/// appended in square brackets so the deterministic and
/// scheduling-dependent parts stay visually separate.
#[derive(Clone, Copy, Debug)]
pub struct StderrRecorder {
    max: Level,
}

impl StderrRecorder {
    /// A stderr recorder showing events up to and including `max`.
    pub fn new(max: Level) -> Self {
        StderrRecorder { max }
    }

    /// Formats one event as a single human-readable line (no newline).
    pub fn format(event: &Event) -> String {
        use std::fmt::Write as _;
        let mut line = format!("{}.{}", event.scope, event.name);
        match &event.kind {
            crate::event::Kind::Point => {}
            crate::event::Kind::Counter(n) => {
                let _ = write!(line, " +{n}");
            }
            crate::event::Kind::Gauge(v) => {
                let _ = write!(line, " = {v}");
            }
            crate::event::Kind::Hist(bins) => {
                let _ = write!(line, " = {bins:?}");
            }
        }
        for (k, v) in &event.fields {
            let _ = write!(line, " {k}={}", display_value(v));
        }
        if !event.timing.is_empty() {
            line.push_str(" [");
            for (i, (k, v)) in event.timing.iter().enumerate() {
                if i > 0 {
                    line.push(' ');
                }
                let _ = write!(line, "{k}={}", display_value(v));
            }
            line.push(']');
        }
        line
    }
}

fn display_value(v: &crate::event::Value) -> String {
    use crate::event::Value;
    match v {
        Value::I64(x) => x.to_string(),
        Value::U64(x) => x.to_string(),
        Value::F64(x) => format!("{x:.4}"),
        Value::Bool(x) => x.to_string(),
        Value::Str(x) => x.clone(),
        Value::UList(x) => format!("{x:?}"),
    }
}

impl Recorder for StderrRecorder {
    fn enabled(&self, level: Level) -> bool {
        level <= self.max
    }

    fn record(&self, event: &Event) {
        if !self.enabled(event.level) {
            return;
        }
        let mut line = Self::format(event);
        line.push('\n');
        // A failed stderr write is not worth propagating from telemetry.
        let _ = std::io::stderr().lock().write_all(line.as_bytes());
    }
}

/// Fans every event out to several sinks (trace file + stderr +
/// metrics aggregation, say). Enabled whenever any sink is.
#[derive(Clone, Debug, Default)]
pub struct Tee {
    sinks: Vec<std::sync::Arc<dyn Recorder>>,
}

impl Tee {
    /// An empty tee (equivalent to [`NoopRecorder`]).
    pub fn new() -> Self {
        Tee::default()
    }

    /// Adds a sink.
    #[must_use]
    pub fn with(mut self, sink: std::sync::Arc<dyn Recorder>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// The number of attached sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Whether no sinks are attached.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl Recorder for Tee {
    fn enabled(&self, level: Level) -> bool {
        self.sinks.iter().any(|s| s.enabled(level))
    }

    fn record(&self, event: &Event) {
        for s in &self.sinks {
            if s.enabled(event.level) {
                s.record(event);
            }
        }
    }
}

/// Captures events in memory, in emission order.
///
/// This is the determinism workhorse: a parallel portfolio gives every
/// start its own buffer, then replays the buffers of *recorded* starts
/// into the real sink in fixed seed order after the join — so the trace
/// stream is independent of thread interleaving even though the work
/// was not.
#[derive(Debug, Default)]
pub struct BufferRecorder {
    max: Option<Level>,
    events: Mutex<Vec<Event>>,
}

impl BufferRecorder {
    /// A buffer capturing every level.
    pub fn new() -> Self {
        BufferRecorder {
            max: Some(Level::Trace),
            events: Mutex::new(Vec::new()),
        }
    }

    /// A buffer that mirrors the enablement of `downstream`, so
    /// buffering adds no work the final sink would not do.
    pub fn mirroring(downstream: &dyn Recorder) -> Self {
        let max = [Level::Trace, Level::Debug, Level::Info]
            .into_iter()
            .find(|&l| downstream.enabled(l));
        BufferRecorder {
            max,
            events: Mutex::new(Vec::new()),
        }
    }

    /// Drains the captured events.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(
            &mut self
                .events
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// The number of captured events.
    pub fn len(&self) -> usize {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Whether no events are captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Recorder for BufferRecorder {
    fn enabled(&self, level: Level) -> bool {
        self.max.is_some_and(|m| level <= m)
    }

    fn record(&self, event: &Event) {
        if !self.enabled(event.level) {
            return;
        }
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(event.clone());
    }
}

/// A hierarchical span: emits `span.enter` on creation and `span.exit`
/// (with the elapsed time in the timing sub-object, both in
/// milliseconds and — for the profiler's precision — microseconds)
/// when dropped. Nesting is expressed by emission order: an exit
/// always pairs with the nearest unmatched enter of the same
/// scope/label, and the whole stream is LIFO-balanced outside the
/// reserved [`TIMING_SCOPE`](crate::TIMING_SCOPE) (guards cannot
/// overlap; parallel emitters replay their buffers sequentially).
///
/// The enter/exit events themselves are deterministic — only the
/// elapsed measurements ride in the stripped `timing` sub-object — so
/// span-bearing traces keep the byte-identical-across-`--jobs`
/// contract. Spans whose *presence* depends on scheduling must use
/// [`TIMING_SCOPE`](crate::TIMING_SCOPE) as their scope like any other
/// timeline event.
#[derive(Debug)]
pub struct Span<'a> {
    recorder: &'a dyn Recorder,
    scope: &'static str,
    label: &'static str,
    detail: Option<(&'static str, Value)>,
    t0: Instant,
}

impl<'a> Span<'a> {
    /// Enters a span (emits `span.enter` at [`Level::Debug`]).
    pub fn enter(recorder: &'a dyn Recorder, scope: &'static str, label: &'static str) -> Self {
        Self::build(recorder, scope, label, None)
    }

    /// Enters a span carrying one deterministic detail field (a
    /// multilevel rung number, a job id) that discriminates otherwise
    /// identically labelled spans; the field is echoed on both the
    /// enter and the exit event, and the profiler keys tree nodes by
    /// it (`scope/label#detail`).
    pub fn enter_with(
        recorder: &'a dyn Recorder,
        scope: &'static str,
        label: &'static str,
        key: &'static str,
        value: impl Into<Value>,
    ) -> Self {
        Self::build(recorder, scope, label, Some((key, value.into())))
    }

    fn build(
        recorder: &'a dyn Recorder,
        scope: &'static str,
        label: &'static str,
        detail: Option<(&'static str, Value)>,
    ) -> Self {
        if recorder.enabled(Level::Debug) {
            let mut e = Event::new(scope, "span.enter", Level::Debug).field("span", label);
            if let Some((k, v)) = &detail {
                e = e.field(k, v.clone());
            }
            recorder.record(&e);
        }
        Span {
            recorder,
            scope,
            label,
            detail,
            t0: Instant::now(),
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if self.recorder.enabled(Level::Debug) {
            let elapsed = self.t0.elapsed();
            let mut e = Event::new(self.scope, "span.exit", Level::Debug).field("span", self.label);
            if let Some((k, v)) = &self.detail {
                e = e.field(k, v.clone());
            }
            self.recorder.record(
                &e.timing("elapsed_ms", elapsed.as_millis() as u64)
                    .timing("elapsed_us", elapsed.as_micros() as u64),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn noop_is_disabled_at_every_level() {
        assert!(!NOOP.enabled(Level::Info));
        assert!(!NOOP.enabled(Level::Trace));
        NOOP.record(&Event::new("x", "y", Level::Info)); // must not panic
    }

    #[test]
    fn buffer_captures_in_order_and_drains() {
        let b = BufferRecorder::new();
        assert!(b.is_empty());
        b.record(&Event::new("a", "first", Level::Info));
        b.record(&Event::new("a", "second", Level::Trace));
        assert_eq!(b.len(), 2);
        let evs = b.take();
        assert_eq!(evs[0].name, "first");
        assert_eq!(evs[1].name, "second");
        assert!(b.is_empty());
    }

    #[test]
    fn mirroring_buffer_respects_downstream_levels() {
        let shallow = StderrRecorder::new(Level::Info);
        let b = BufferRecorder::mirroring(&shallow);
        assert!(b.enabled(Level::Info));
        assert!(!b.enabled(Level::Debug));
        b.record(&Event::new("a", "dropped", Level::Debug));
        assert!(b.is_empty());
        let none = BufferRecorder::mirroring(&NOOP);
        assert!(!none.enabled(Level::Info));
    }

    #[test]
    fn tee_fans_out_by_level() {
        let b1 = Arc::new(BufferRecorder::new());
        let b2 = Arc::new(BufferRecorder::mirroring(&StderrRecorder::new(Level::Info)));
        let tee = Tee::new().with(b1.clone()).with(b2.clone());
        assert_eq!(tee.len(), 2);
        assert!(!tee.is_empty());
        assert!(tee.enabled(Level::Trace), "widest sink wins");
        tee.record(&Event::new("a", "deep", Level::Trace));
        tee.record(&Event::new("a", "headline", Level::Info));
        assert_eq!(b1.len(), 2);
        assert_eq!(b2.len(), 1, "shallow sink sees only the headline");
    }

    #[test]
    fn span_emits_enter_and_exit() {
        let b = BufferRecorder::new();
        {
            let _outer = Span::enter(&b, "engine", "portfolio");
            let _inner = Span::enter(&b, "engine", "phase_a");
        }
        let evs = b.take();
        let names: Vec<(&str, &str)> = evs
            .iter()
            .map(|e| {
                let label = match &e.fields[0].1 {
                    crate::event::Value::Str(s) => s.as_str(),
                    _ => "?",
                };
                (e.name, label)
            })
            .collect();
        assert_eq!(
            names,
            vec![
                ("span.enter", "portfolio"),
                ("span.enter", "phase_a"),
                ("span.exit", "phase_a"),
                ("span.exit", "portfolio"),
            ]
        );
        // Exit carries elapsed time in the timing sub-object only.
        assert!(evs[2].timing.iter().any(|(k, _)| *k == "elapsed_ms"));
        assert!(evs[2].timing.iter().any(|(k, _)| *k == "elapsed_us"));
        assert!(evs[2].fields.iter().all(|(k, _)| *k != "elapsed_ms"));
    }

    #[test]
    fn span_detail_rides_both_enter_and_exit() {
        let b = BufferRecorder::new();
        {
            let _s = Span::enter_with(&b, "ml", "level", "level", 3u64);
        }
        let evs = b.take();
        assert_eq!(evs.len(), 2);
        for e in &evs {
            assert_eq!(
                e.fields[0],
                ("span", crate::event::Value::Str("level".into()))
            );
            assert_eq!(e.fields[1], ("level", crate::event::Value::U64(3)));
        }
        assert!(evs[0].timing.is_empty(), "enter carries no timing");
    }

    #[test]
    fn span_against_disabled_recorder_emits_nothing() {
        let _s = Span::enter(&NOOP, "engine", "run"); // must not panic
        let shallow = BufferRecorder::mirroring(&StderrRecorder::new(Level::Info));
        {
            let _s = Span::enter(&shallow, "engine", "run");
        }
        assert!(shallow.is_empty(), "Debug spans drop below an Info sink");
    }

    #[test]
    fn stderr_format_is_stable() {
        let e = Event::new("kway", "carve.no_fit", Level::Debug)
            .field("area", 12u64)
            .timing("worker", 3u64);
        assert_eq!(
            StderrRecorder::format(&e),
            "kway.carve.no_fit area=12 [worker=3]"
        );
        let g = Event::gauge("paper", "cost_k", 750.0);
        assert_eq!(StderrRecorder::format(&g), "paper.cost_k = 750");
    }
}
