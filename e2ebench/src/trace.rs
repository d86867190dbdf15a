//! The benchmark's own instrumentation: a counting global allocator,
//! in-memory spans around every call into the crates, a recorder that
//! folds the engine's existing events into counts, and peak RSS.

use netpart_obs::{Event, Kind, Level, Profile, ProfileNode, Recorder, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus a count of allocation calls.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so its contract holds exactly as for `System`; the only
// addition is a statistics counter that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocation calls (alloc, alloc_zeroed, realloc) made so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The process's peak resident set (`VmHWM`), in MB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One finished span: a call into a layer, or a grouping around calls.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    /// The round (0 = warm-up) the span belongs to.
    pub run: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocation calls made while the span was open.
    pub allocs: u64,
}

impl SpanRec {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Spans kept in memory for the whole process and written out at the end.
pub struct Spans {
    t0: Instant,
    recs: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            t0: Instant::now(),
            recs: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn enter(&mut self, name: &'static str, run: u32) -> usize {
        let id = self.recs.len();
        self.recs.push(SpanRec {
            name,
            run,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
            allocs: allocs(),
        });
        self.open.push(id);
        // Stamped last, so the bookkeeping above is not timed.
        self.recs[id].start_ns = self.now_ns();
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let end = self.now_ns();
        let rec = &mut self.recs[id];
        rec.end_ns = end;
        rec.allocs = allocs() - rec.allocs;
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, run: u32, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, run);
        let out = f();
        self.exit(id);
        out
    }

    fn named<'a>(&'a self, run: u32, name: &'a str) -> impl Iterator<Item = &'a SpanRec> {
        self.recs
            .iter()
            .filter(move |r| r.run == run && r.name == name)
    }

    /// Total seconds spent in spans named `name` during round `run`.
    pub fn secs(&self, run: u32, name: &str) -> f64 {
        self.named(run, name).map(SpanRec::secs).sum()
    }

    /// Seconds span `id` was open.
    pub fn secs_of(&self, id: usize) -> f64 {
        self.recs[id].secs()
    }

    /// Total seconds of the direct children of span `parent` named `name`.
    pub fn child_secs(&self, parent: usize, name: &str) -> f64 {
        // Children are entered after their parent, so they follow it.
        self.recs[parent + 1..]
            .iter()
            .filter(|r| r.parent == Some(parent) && r.name == name)
            .map(SpanRec::secs)
            .sum()
    }

    /// Allocation calls made inside spans named `name` during round `run`.
    pub fn allocs(&self, run: u32, name: &str) -> u64 {
        self.named(run, name).map(|r| r.allocs).sum()
    }

    /// The spans as JSON lines: name, run, parent, start, end, allocs.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, r) in self.recs.iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"run\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"allocs\":{}}}",
                r.name, r.run, r.start_ns, r.end_ns, r.allocs
            );
        }
        out
    }
}

/// What the engine's existing events say about one traced round.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineCounts {
    pub fm_passes: u64,
    pub fm_applied: u64,
    pub fm_kept: u64,
    pub fm_repairs: u64,
    pub kway_attempts: u64,
    pub kway_feasible: u64,
    pub kway_escalations: u64,
    pub ml_levels: u64,
    pub ml_stalls: u64,
    /// Cells and nets of the coarsest level of each coarsening chain.
    chains: Vec<(u64, u64)>,
}

impl EngineCounts {
    /// Cells of the coarsest level, summed over coarsening chains.
    pub fn coarsest_cells(&self) -> u64 {
        self.chains.iter().map(|c| c.0).sum()
    }

    /// Nets of the coarsest level, summed over coarsening chains.
    pub fn coarsest_nets(&self) -> u64 {
        self.chains.iter().map(|c| c.1).sum()
    }

    fn add(&mut self, e: &Event) {
        let delta = match e.kind {
            Kind::Counter(d) => d,
            _ => 0,
        };
        match (e.scope, e.name) {
            ("fm", "pass") => {
                self.fm_passes += 1;
                self.fm_applied += field(e, "applied");
                self.fm_kept += field(e, "kept");
                self.fm_repairs += field(e, "repairs");
            }
            ("kway", "attempts") => self.kway_attempts += delta,
            ("kway", "feasible") => self.kway_feasible += delta,
            ("kway", "escalate") => self.kway_escalations += 1,
            ("ml", "coarsen") => {
                self.ml_levels += 1;
                let level = (field(e, "coarse_cells"), field(e, "coarse_nets"));
                // Level 1 starts a new chain; deeper levels replace its tail.
                match self.chains.last_mut() {
                    Some(last) if field(e, "level") > 1 => *last = level,
                    _ => self.chains.push(level),
                }
            }
            ("ml", "coarsen_stalled") => self.ml_stalls += 1,
            _ => {}
        }
    }
}

fn field(e: &Event, key: &str) -> u64 {
    e.fields
        .iter()
        .find(|(k, _)| *k == key)
        .map_or(0, |(_, v)| match v {
            Value::U64(x) => *x,
            Value::I64(x) => (*x).max(0) as u64,
            _ => 0,
        })
}

/// A [`Recorder`] folding the engine's events into [`EngineCounts`].
#[derive(Debug, Default)]
pub struct EventCounter(Mutex<EngineCounts>);

impl EventCounter {
    pub fn counts(&self) -> EngineCounts {
        self.0.lock().expect("counter lock poisoned").clone()
    }
}

impl Recorder for EventCounter {
    fn enabled(&self, _level: Level) -> bool {
        true
    }

    fn record(&self, event: &Event) {
        self.0.lock().expect("counter lock poisoned").add(event);
    }
}

/// Inclusive seconds of every profile node whose name starts with
/// `prefix`, wherever it sits in the tree (matching nodes are not
/// searched further, so nested time is not counted twice).
pub fn profile_secs(profile: &Profile, prefix: &str) -> f64 {
    fn walk(nodes: &[ProfileNode], prefix: &str) -> u64 {
        nodes
            .iter()
            .map(|n| {
                if n.name.starts_with(prefix) {
                    n.incl_us
                } else {
                    walk(&n.children, prefix)
                }
            })
            .sum()
    }
    walk(&profile.roots, prefix) as f64 * 1e-6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coarsening_chains_keep_their_deepest_level() {
        let mut c = EngineCounts::default();
        for (level, cells) in [(1u64, 60u64), (2, 30), (1, 50), (2, 20), (3, 10)] {
            c.add(
                &Event::new("ml", "coarsen", Level::Debug)
                    .field("level", level)
                    .field("coarse_cells", cells)
                    .field("coarse_nets", cells * 2),
            );
        }
        assert_eq!(c.ml_levels, 5);
        assert_eq!(c.coarsest_cells(), 30 + 10);
        assert_eq!(c.coarsest_nets(), 60 + 20);
    }

    #[test]
    fn spans_nest_and_sum_by_round() {
        let mut s = Spans::new();
        let outer = s.enter("round", 1);
        let v: Vec<u64> = s.time("layer", 1, || (0..100).collect());
        s.time("layer", 2, || ());
        s.exit(outer);
        assert_eq!(v.len(), 100);
        assert!(s.allocs(1, "layer") >= 1);
        assert_eq!(s.recs[1].parent, Some(0));
        assert!(s.secs(1, "round") >= s.secs(1, "layer"));
        assert_eq!(s.to_jsonl().lines().count(), 3);
    }
}
