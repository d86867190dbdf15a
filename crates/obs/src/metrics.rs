//! End-of-run metric aggregation.
//!
//! [`MetricsRecorder`] is a [`Recorder`] that ignores point events and
//! folds the metric kinds into a [`MetricsSnapshot`]: counters sum,
//! gauges keep the last write, histograms sum element-wise. The
//! snapshot serializes to pretty JSON with sorted keys — suitable both
//! for `--metrics-out` and as a `BENCH_*.json` record.

use crate::event::{Event, Kind, Level, Value};
use crate::jsonl::push_json_str;
use crate::recorder::Recorder;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// An end-of-run aggregate of every metric event, keyed by
/// `scope.name`. All maps are ordered so [`MetricsSnapshot::to_json`]
/// is deterministic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Free-form run identification (command, input, seed, jobs…).
    pub meta: BTreeMap<String, String>,
    /// Summed counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-written gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Element-wise-summed histograms.
    pub hists: BTreeMap<String, Vec<u64>>,
    /// Wall-clock measurements (kept apart from `gauges` so the
    /// deterministic part of two snapshots can be diffed directly).
    pub timing: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        MetricsSnapshot::default()
    }

    /// Sets a meta entry (run identification).
    pub fn set_meta(&mut self, key: &str, value: impl Into<String>) {
        self.meta.insert(key.to_string(), value.into());
    }

    /// Adds to a counter.
    pub fn add_counter(&mut self, key: &str, delta: u64) {
        *self.counters.entry(key.to_string()).or_insert(0) += delta;
    }

    /// Sets a gauge (last write wins).
    pub fn set_gauge(&mut self, key: &str, value: f64) {
        self.gauges.insert(key.to_string(), value);
    }

    /// Merges a histogram observation (element-wise sum; the stored
    /// histogram grows to the longer length).
    pub fn merge_hist(&mut self, key: &str, bins: &[u64]) {
        let slot = self.hists.entry(key.to_string()).or_default();
        if slot.len() < bins.len() {
            slot.resize(bins.len(), 0);
        }
        for (s, b) in slot.iter_mut().zip(bins) {
            *s += b;
        }
    }

    /// Sets a wall-clock measurement in milliseconds.
    pub fn set_timing(&mut self, key: &str, millis: u64) {
        self.timing.insert(key.to_string(), millis);
    }

    /// Renders the snapshot as pretty JSON with sorted keys. The
    /// `timing` section is last, mirroring the trace-line layout.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        fn section<V, F: Fn(&mut String, &V)>(
            out: &mut String,
            name: &str,
            map: &BTreeMap<String, V>,
            render: F,
            last: bool,
        ) {
            let _ = write!(out, "  \"{name}\": {{");
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("\n    ");
                push_json_str(out, k);
                out.push_str(": ");
                render(out, v);
            }
            if !map.is_empty() {
                out.push_str("\n  ");
            }
            out.push('}');
            if !last {
                out.push(',');
            }
            out.push('\n');
        }
        let mut out = String::from("{\n");
        section(
            &mut out,
            "meta",
            &self.meta,
            |o, v: &String| push_json_str(o, v),
            false,
        );
        section(
            &mut out,
            "counters",
            &self.counters,
            |o, v: &u64| {
                let _ = write!(o, "{v}");
            },
            false,
        );
        section(
            &mut out,
            "gauges",
            &self.gauges,
            |o, v: &f64| {
                if v.is_finite() {
                    let _ = write!(o, "{v}");
                } else {
                    o.push_str("null");
                }
            },
            false,
        );
        section(
            &mut out,
            "hists",
            &self.hists,
            |o, v: &Vec<u64>| {
                o.push('[');
                for (i, b) in v.iter().enumerate() {
                    if i > 0 {
                        o.push(',');
                    }
                    let _ = write!(o, "{b}");
                }
                o.push(']');
            },
            false,
        );
        section(
            &mut out,
            "timing",
            &self.timing,
            |o, v: &u64| {
                let _ = write!(o, "{v}");
            },
            true,
        );
        out.push('}');
        out.push('\n');
        out
    }
}

/// A [`Recorder`] that aggregates metric events into a
/// [`MetricsSnapshot`].
///
/// Point events are ignored except for their timing fields: a
/// `wall_ms`/`elapsed_ms` timing value on any recorded event is folded
/// into the snapshot's `timing` section under `scope.name`, so run
/// durations surface in `--metrics-out` without dedicated metric
/// events.
#[derive(Debug, Default)]
pub struct MetricsRecorder {
    inner: Mutex<MetricsSnapshot>,
}

impl MetricsRecorder {
    /// An empty aggregator.
    pub fn new() -> Self {
        MetricsRecorder::default()
    }

    /// Clones the current aggregate.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }
}

impl Recorder for MetricsRecorder {
    fn enabled(&self, _level: Level) -> bool {
        // Metrics aggregation wants every level: a Trace-level counter
        // still counts.
        true
    }

    fn record(&self, event: &Event) {
        let key = format!("{}.{}", event.scope, event.name);
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match &event.kind {
            Kind::Point => {}
            Kind::Counter(delta) => inner.add_counter(&key, *delta),
            Kind::Gauge(v) => inner.set_gauge(&key, *v),
            Kind::Hist(bins) => inner.merge_hist(&key, bins),
        }
        for (k, v) in &event.timing {
            if *k == "wall_ms" || *k == "elapsed_ms" {
                if let Value::U64(ms) = v {
                    inner.set_timing(&key, *ms);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_gauges_overwrite_hists_merge() {
        let m = MetricsRecorder::new();
        m.record(&Event::counter("fm", "moves", 10));
        m.record(&Event::counter("fm", "moves", 5));
        m.record(&Event::gauge("paper", "cost_k", 900.0));
        m.record(&Event::gauge("paper", "cost_k", 750.0));
        m.record(&Event::hist("paper", "devices", vec![1, 0]));
        m.record(&Event::hist("paper", "devices", vec![0, 2, 1]));
        let s = m.snapshot();
        assert_eq!(s.counters["fm.moves"], 15);
        assert_eq!(s.gauges["paper.cost_k"], 750.0);
        assert_eq!(s.hists["paper.devices"], vec![1, 2, 1]);
    }

    #[test]
    fn meta_with_tab_and_cr_survives_json() {
        let mut s = MetricsSnapshot::new();
        s.meta.insert("in\tput".into(), "a\tb\rc\n\"d\"".into());
        assert!(s.to_json().contains(r"a\tb\rc"), "short escapes");
        let json = crate::parse_json(&s.to_json()).expect("valid JSON");
        let value = json.get("meta").and_then(|m| m.get("in\tput"));
        assert_eq!(
            value.and_then(crate::trace::Json::as_str),
            Some("a\tb\rc\n\"d\"")
        );
    }

    #[test]
    fn hist_merge_handles_mismatched_bin_counts() {
        let mut s = MetricsSnapshot::new();
        // Longer observation grows the stored histogram...
        s.merge_hist("h", &[1, 1]);
        s.merge_hist("h", &[0, 0, 0, 5]);
        assert_eq!(s.hists["h"], vec![1, 1, 0, 5]);
        // ...and a shorter one sums into the prefix without truncating.
        s.merge_hist("h", &[7]);
        assert_eq!(s.hists["h"], vec![8, 1, 0, 5]);
        // Empty observations still create (or keep) the entry.
        s.merge_hist("h", &[]);
        s.merge_hist("empty", &[]);
        assert_eq!(s.hists["h"], vec![8, 1, 0, 5]);
        assert_eq!(s.hists["empty"], Vec::<u64>::new());
    }

    #[test]
    fn gauge_last_write_wins_under_tee_and_buffer_replay() {
        use crate::recorder::{BufferRecorder, Tee};
        use std::sync::Arc;
        // A gauge teed to two sinks keeps the same final value in both.
        let a = Arc::new(MetricsRecorder::new());
        let b = Arc::new(MetricsRecorder::new());
        let tee = Tee::new().with(a.clone()).with(b.clone());
        tee.record(&Event::gauge("paper", "kbar", 0.5));
        tee.record(&Event::gauge("paper", "kbar", 0.25));
        assert_eq!(a.snapshot().gauges["paper.kbar"], 0.25);
        assert_eq!(b.snapshot().gauges["paper.kbar"], 0.25);
        // Buffered capture + ordered replay (the parallel-emitter
        // discipline) preserves write order, so last-write-wins gives
        // the same answer as direct recording.
        let buf = BufferRecorder::new();
        buf.record(&Event::gauge("paper", "kbar", 0.5));
        buf.record(&Event::gauge("paper", "kbar", 0.125));
        let replayed = MetricsRecorder::new();
        for e in buf.take() {
            replayed.record(&e);
        }
        assert_eq!(replayed.snapshot().gauges["paper.kbar"], 0.125);
    }

    #[test]
    fn timing_fields_fold_into_timing_section() {
        let m = MetricsRecorder::new();
        m.record(
            &Event::new("portfolio", "summary", Level::Info)
                .field("starts", 8u64)
                .timing("wall_ms", 42u64),
        );
        let s = m.snapshot();
        assert_eq!(s.timing["portfolio.summary"], 42);
        assert!(s.counters.is_empty(), "point events add no counters");
    }

    #[test]
    fn json_is_deterministic_and_sectioned() {
        let mut s = MetricsSnapshot::new();
        s.set_meta("cmd", "kway");
        s.set_meta("seed", "7");
        s.add_counter("fm.moves", 15);
        s.set_gauge("paper.kbar", 0.25);
        s.merge_hist("paper.devices", &[1, 2]);
        s.set_timing("run.wall_ms", 42);
        let json = s.to_json();
        assert_eq!(
            json,
            "{\n  \"meta\": {\n    \"cmd\": \"kway\",\n    \"seed\": \"7\"\n  },\n  \"counters\": {\n    \"fm.moves\": 15\n  },\n  \"gauges\": {\n    \"paper.kbar\": 0.25\n  },\n  \"hists\": {\n    \"paper.devices\": [1,2]\n  },\n  \"timing\": {\n    \"run.wall_ms\": 42\n  }\n}\n"
        );
        // Re-rendering is byte-stable.
        assert_eq!(json, s.to_json());
    }

    #[test]
    fn empty_snapshot_renders_empty_sections() {
        let json = MetricsSnapshot::new().to_json();
        assert_eq!(
            json,
            "{\n  \"meta\": {},\n  \"counters\": {},\n  \"gauges\": {},\n  \"hists\": {},\n  \"timing\": {}\n}\n"
        );
    }
}
