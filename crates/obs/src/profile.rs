//! Span-profile aggregation: fold a trace's `span.enter`/`span.exit`
//! pairs into an inclusive/exclusive self-time tree.
//!
//! [`ProfileRecorder`] is a [`Recorder`] that captures span events as
//! they stream past (it sits in the same [`Tee`](crate::Tee) as the
//! trace file, so it sees the identical serialized stream) and folds
//! them into a [`Profile`] on demand; [`Profile::from_events`] performs
//! the same fold over an already-collected event slice, so traces can
//! be profiled after the fact.
//!
//! The fold relies on the span stream's structure (see
//! [`Span`](crate::Span)): outside the reserved
//! [`TIMING_SCOPE`](crate::TIMING_SCOPE) the enter/exit events are
//! LIFO-balanced, so a simple stack recovers the nesting. Timing-scoped
//! spans (worker lifecycles) interleave arbitrarily across threads;
//! their exits are self-describing (the elapsed time rides on the exit
//! event), so they aggregate into flat root nodes without a stack.
//!
//! Node keys are `scope/label`, or `scope/label#detail` when the span
//! carried a discriminating detail field
//! ([`Span::enter_with`](crate::Span::enter_with)) — this is what keeps
//! the per-rung multilevel spans apart in the tree.

use crate::event::{Event, Level, Value};
use crate::recorder::Recorder;
use std::sync::Mutex;
use std::time::Instant;

/// One node of the self-time tree: a span aggregate at a fixed position
/// in the nesting (the same span entered from two different parents
/// becomes two nodes).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileNode {
    /// `scope/label` (or `scope/label#detail`) of the span.
    pub name: String,
    /// How many enter/exit pairs folded into this node.
    pub count: u64,
    /// Total inclusive time, microseconds (children included).
    pub incl_us: u64,
    /// Child spans, in first-seen order.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    fn new(name: String) -> ProfileNode {
        ProfileNode {
            name,
            ..ProfileNode::default()
        }
    }

    /// Exclusive self time: inclusive time minus the children's
    /// inclusive time (clamped at zero — timer granularity can make a
    /// child measure marginally longer than its parent).
    pub fn excl_us(&self) -> u64 {
        let children: u64 = self.children.iter().map(|c| c.incl_us).sum();
        self.incl_us.saturating_sub(children)
    }

    fn to_json_into(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        use std::fmt::Write as _;
        let _ = write!(out, "{pad}{{\n{pad}  \"name\": ");
        crate::jsonl::push_json_str(out, &self.name);
        let _ = write!(
            out,
            ",\n{pad}  \"count\": {},\n{pad}  \"incl_us\": {},\n{pad}  \"excl_us\": {},\n{pad}  \"children\": [",
            self.count,
            self.incl_us,
            self.excl_us()
        );
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            c.to_json_into(out, indent + 2);
        }
        if !self.children.is_empty() {
            let _ = write!(out, "\n{pad}  ");
        }
        let _ = write!(out, "]\n{pad}}}");
    }
}

/// A folded span profile: the self-time tree plus the wall-clock window
/// it was measured against.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Profile {
    /// The wall-clock window the profile covers, microseconds (for
    /// [`ProfileRecorder`]: recorder creation to snapshot).
    pub total_wall_us: u64,
    /// Top-level spans, in first-seen order. Timing-scoped spans
    /// aggregate flat at the top level regardless of where on the
    /// scheduling timeline they fired.
    pub roots: Vec<ProfileNode>,
}

impl Profile {
    /// The inclusive time attributed to non-timing-scoped root spans,
    /// microseconds. When the instrumentation covers a run end to end,
    /// this approaches [`Profile::total_wall_us`]; timing-scoped worker
    /// spans are excluded because they run concurrently and would
    /// double-count the wall window.
    pub fn covered_us(&self) -> u64 {
        let timing_prefix = format!("{}/", crate::event::TIMING_SCOPE);
        self.roots
            .iter()
            .filter(|r| !r.name.starts_with(&timing_prefix))
            .map(|r| r.incl_us)
            .sum()
    }

    /// Folds span events (in stream order) into a profile.
    /// `total_wall_us` is the wall window the caller measured around
    /// the stream. Non-span events are ignored, so the full trace event
    /// slice can be passed as-is.
    pub fn from_events<'a>(
        events: impl IntoIterator<Item = &'a Event>,
        total_wall_us: u64,
    ) -> Profile {
        let mut profile = Profile {
            total_wall_us,
            roots: Vec::new(),
        };
        // The stack holds child-index paths into `roots`; an empty path
        // marker is represented by the path to the node itself.
        let mut stack: Vec<Vec<usize>> = Vec::new();
        for event in events {
            let Some(name) = span_key(event) else {
                continue;
            };
            let timing_scoped = event.is_timing_scoped();
            match event.name {
                "span.enter" if !timing_scoped => {
                    let path = profile.descend(stack.last(), &name);
                    stack.push(path);
                }
                "span.exit" if !timing_scoped => {
                    let elapsed = elapsed_us(event);
                    // Pair with the nearest unmatched enter of the same
                    // name; a mismatch (truncated trace) unwinds to it.
                    while let Some(path) = stack.pop() {
                        let node = profile.node_mut(&path);
                        if node.name == name {
                            node.count += 1;
                            node.incl_us += elapsed;
                            break;
                        }
                    }
                }
                "span.exit" => {
                    // Timing-scoped: flat aggregation from the
                    // self-describing exit, no stack involvement.
                    let path = profile.descend(None, &name);
                    let node = profile.node_mut(&path);
                    node.count += 1;
                    node.incl_us += elapsed_us(event);
                }
                _ => {}
            }
        }
        profile
    }

    /// Resolves a child-index path to its node.
    fn node_mut(&mut self, path: &[usize]) -> &mut ProfileNode {
        let (first, rest) = path.split_first().expect("paths are never empty");
        let mut node = &mut self.roots[*first];
        for &i in rest {
            node = &mut node.children[i];
        }
        node
    }

    /// Finds or creates the child `name` under `parent` (a root when
    /// `parent` is `None`), returning its path.
    fn descend(&mut self, parent: Option<&Vec<usize>>, name: &str) -> Vec<usize> {
        match parent {
            None => {
                let i = match self.roots.iter().position(|r| r.name == name) {
                    Some(i) => i,
                    None => {
                        self.roots.push(ProfileNode::new(name.to_string()));
                        self.roots.len() - 1
                    }
                };
                vec![i]
            }
            Some(path) => {
                let node = self.node_mut(path);
                let i = match node.children.iter().position(|c| c.name == name) {
                    Some(i) => i,
                    None => {
                        node.children.push(ProfileNode::new(name.to_string()));
                        node.children.len() - 1
                    }
                };
                let mut p = path.clone();
                p.push(i);
                p
            }
        }
    }

    /// Renders the profile as pretty JSON (2-space indent,
    /// deterministic: node order is first-seen stream order).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"total_wall_us\": {},\n  \"covered_us\": {},\n  \"roots\": [",
            self.total_wall_us,
            self.covered_us()
        );
        for (i, r) in self.roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            r.to_json_into(&mut out, 2);
        }
        if !self.roots.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// The profile key of a span event: `scope/label`, plus `#detail` when
/// the span carried a discriminating field. Returns `None` for non-span
/// events and malformed span events (no `span` field).
pub fn span_key(event: &Event) -> Option<String> {
    if event.name != "span.enter" && event.name != "span.exit" {
        return None;
    }
    let label = event.fields.iter().find_map(|(k, v)| match (k, v) {
        (&"span", Value::Str(s)) => Some(s.as_str()),
        _ => None,
    })?;
    let mut key = format!("{}/{label}", event.scope);
    if let Some((_, v)) = event.fields.iter().find(|(k, _)| *k != "span") {
        use std::fmt::Write as _;
        match v {
            Value::I64(x) => {
                let _ = write!(key, "#{x}");
            }
            Value::U64(x) => {
                let _ = write!(key, "#{x}");
            }
            Value::F64(x) => {
                let _ = write!(key, "#{x}");
            }
            Value::Bool(x) => {
                let _ = write!(key, "#{x}");
            }
            Value::Str(x) => {
                let _ = write!(key, "#{x}");
            }
            Value::UList(_) => {}
        }
    }
    Some(key)
}

/// The elapsed time of a `span.exit` event in microseconds, preferring
/// the `elapsed_us` timing field and falling back to `elapsed_ms`.
fn elapsed_us(event: &Event) -> u64 {
    for (k, v) in &event.timing {
        if *k == "elapsed_us" {
            if let Value::U64(us) = v {
                return *us;
            }
        }
    }
    for (k, v) in &event.timing {
        if *k == "elapsed_ms" {
            if let Value::U64(ms) = v {
                return ms.saturating_mul(1000);
            }
        }
    }
    0
}

/// A [`Recorder`] that captures span enter/exit events for profiling.
///
/// It records at every level (a disabled trace sink must not blind the
/// profiler) and ignores everything but span events, so the retained
/// memory is proportional to the span count, not the event count.
#[derive(Debug)]
pub struct ProfileRecorder {
    t0: Instant,
    spans: Mutex<Vec<Event>>,
}

impl Default for ProfileRecorder {
    fn default() -> Self {
        ProfileRecorder::new()
    }
}

impl ProfileRecorder {
    /// An empty profiler; the wall window starts now.
    pub fn new() -> Self {
        ProfileRecorder {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Folds the captured spans into a [`Profile`]. The wall window is
    /// recorder creation to this call.
    pub fn profile(&self) -> Profile {
        let spans = self
            .spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Profile::from_events(spans.iter(), self.t0.elapsed().as_micros() as u64)
    }
}

impl Recorder for ProfileRecorder {
    fn enabled(&self, _level: Level) -> bool {
        true
    }

    fn record(&self, event: &Event) {
        if event.name != "span.enter" && event.name != "span.exit" {
            return;
        }
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TIMING_SCOPE;
    use crate::recorder::Span;

    fn enter(scope: &'static str, label: &str) -> Event {
        Event::new(scope, "span.enter", Level::Debug).field("span", label.to_string())
    }

    fn exit(scope: &'static str, label: &str, us: u64) -> Event {
        Event::new(scope, "span.exit", Level::Debug)
            .field("span", label.to_string())
            .timing("elapsed_ms", us / 1000)
            .timing("elapsed_us", us)
    }

    #[test]
    fn nesting_and_self_time() {
        let events = vec![
            enter("engine", "run"),
            enter("ml", "coarsen"),
            exit("ml", "coarsen", 300),
            enter("ml", "level"),
            exit("ml", "level", 500),
            exit("engine", "run", 1000),
        ];
        let p = Profile::from_events(&events, 1100);
        assert_eq!(p.roots.len(), 1);
        let root = &p.roots[0];
        assert_eq!(root.name, "engine/run");
        assert_eq!(root.incl_us, 1000);
        assert_eq!(root.excl_us(), 200);
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].name, "ml/coarsen");
        assert_eq!(root.children[1].incl_us, 500);
        assert_eq!(p.covered_us(), 1000);
    }

    #[test]
    fn repeated_spans_aggregate_into_one_node() {
        let mut events = Vec::new();
        for _ in 0..3 {
            events.push(enter("fm", "pass"));
            events.push(exit("fm", "pass", 10));
        }
        let p = Profile::from_events(&events, 40);
        assert_eq!(p.roots.len(), 1);
        assert_eq!(p.roots[0].count, 3);
        assert_eq!(p.roots[0].incl_us, 30);
    }

    #[test]
    fn detail_field_discriminates_nodes() {
        let events = vec![
            Event::new("ml", "span.enter", Level::Debug)
                .field("span", "level")
                .field("level", 2u64),
            Event::new("ml", "span.exit", Level::Debug)
                .field("span", "level")
                .field("level", 2u64)
                .timing("elapsed_us", 7u64),
            Event::new("ml", "span.enter", Level::Debug)
                .field("span", "level")
                .field("level", 1u64),
            Event::new("ml", "span.exit", Level::Debug)
                .field("span", "level")
                .field("level", 1u64)
                .timing("elapsed_us", 9u64),
        ];
        let p = Profile::from_events(&events, 16);
        let names: Vec<&str> = p.roots.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["ml/level#2", "ml/level#1"]);
        assert_eq!(p.roots[1].incl_us, 9);
    }

    #[test]
    fn timing_scoped_spans_aggregate_flat_without_a_stack() {
        // Two workers' spans, interleaved the way live threads emit
        // them (non-LIFO). Only exits matter.
        let events = vec![
            enter(TIMING_SCOPE, "worker"),
            enter(TIMING_SCOPE, "worker"),
            enter("engine", "run"),
            exit(TIMING_SCOPE, "worker", 40),
            exit(TIMING_SCOPE, "worker", 60),
            exit("engine", "run", 100),
        ];
        let p = Profile::from_events(&events, 100);
        assert_eq!(p.roots.len(), 2);
        let w = p
            .roots
            .iter()
            .find(|r| r.name == "timing/worker")
            .expect("worker node");
        assert_eq!(w.count, 2);
        assert_eq!(w.incl_us, 100);
        // Concurrent worker time does not count toward coverage.
        assert_eq!(p.covered_us(), 100);
    }

    #[test]
    fn unmatched_exit_and_truncated_enter_do_not_panic() {
        let events = vec![
            exit("a", "orphan", 5),
            enter("a", "open"),
            // stream ends with "open" never exited
        ];
        let p = Profile::from_events(&events, 10);
        // The orphan exit unwound an empty stack; the dangling enter
        // contributes a node with no time.
        let open = p.roots.iter().find(|r| r.name == "a/open").expect("node");
        assert_eq!(open.count, 0);
        assert_eq!(open.incl_us, 0);
    }

    #[test]
    fn exit_falls_back_to_milliseconds() {
        let events = vec![
            enter("a", "x"),
            Event::new("a", "span.exit", Level::Debug)
                .field("span", "x")
                .timing("elapsed_ms", 3u64),
        ];
        let p = Profile::from_events(&events, 4000);
        assert_eq!(p.roots[0].incl_us, 3000);
    }

    #[test]
    fn json_shape_is_deterministic() {
        let events = vec![
            enter("engine", "run"),
            enter("fm", "pass"),
            exit("fm", "pass", 10),
            exit("engine", "run", 30),
        ];
        let p = Profile::from_events(&events, 50);
        let json = p.to_json();
        assert_eq!(
            json,
            "{\n  \"total_wall_us\": 50,\n  \"covered_us\": 30,\n  \"roots\": [\n    {\n      \"name\": \"engine/run\",\n      \"count\": 1,\n      \"incl_us\": 30,\n      \"excl_us\": 20,\n      \"children\": [\n        {\n          \"name\": \"fm/pass\",\n          \"count\": 1,\n          \"incl_us\": 10,\n          \"excl_us\": 10,\n          \"children\": []\n        }\n      ]\n    }\n  ]\n}\n"
        );
        assert_eq!(json, p.to_json());
    }

    #[test]
    fn recorder_captures_real_spans_and_ignores_the_rest() {
        let pr = ProfileRecorder::new();
        {
            let _outer = Span::enter(&pr, "engine", "run");
            pr.record(&Event::new("fm", "pass", Level::Trace).field("cut", 3u64));
            let _inner = Span::enter_with(&pr, "ml", "level", "level", 0u64);
        }
        let p = pr.profile();
        assert_eq!(p.roots.len(), 1);
        assert_eq!(p.roots[0].name, "engine/run");
        assert_eq!(p.roots[0].children[0].name, "ml/level#0");
        assert!(p.total_wall_us >= p.roots[0].incl_us);
    }
}
