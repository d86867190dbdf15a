//! Service metrics: a live registry with Prometheus text exposition.
//!
//! [`MetricsRegistry`] is the *operational* counterpart of the
//! end-of-run [`MetricsRecorder`](crate::MetricsRecorder): counters,
//! gauges and log-bucketed latency histograms that a long-running
//! server snapshots to disk after every scheduler round. It is itself a
//! [`Recorder`], fed by teeing it next to the trace sink:
//!
//! * counter/gauge events fold in generically;
//! * point events count as `<scope>_<name>_total` (span events are
//!   skipped — they are the profiler's domain);
//! * an `open`/`pending` field becomes the `queue_depth` gauge;
//! * a `serve.cache` event's `outcome` field becomes
//!   `cache_{hit,miss,evict}_total`, from which the hit ratio derives;
//! * a `latency_ms` timing field (claim-to-done) feeds the
//!   `latency_ms` histogram, with p50/p90/p99 derived from the
//!   log₂ buckets.
//!
//! An optional scope filter keeps engine-internal event floods (per
//! -pass FM counters) out of the service surface. Every mutation bumps
//! a version counter so the exposition writer can skip rounds where
//! nothing changed.
//!
//! The exposition format is the Prometheus text format (`# TYPE` lines,
//! cumulative `_bucket{le="..."}` series, `_sum`/`_count`), rendered
//! deterministically (sorted metric names) by
//! [`MetricsRegistry::to_prometheus`] and parsed back by
//! [`parse_prometheus`] for `netpart serve-status`.

use crate::event::{Event, Kind, Level, Value};
use crate::recorder::Recorder;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Upper bounds (milliseconds) of the finite latency buckets: powers of
/// two from 1ms to ~32s; observations beyond ride the +Inf bucket.
const LATENCY_BUCKET_COUNT: usize = 16;

/// A log₂-bucketed latency histogram. `buckets[i]` counts observations
/// with `value <= 2^i` milliseconds that fell in no earlier bucket;
/// `overflow` is the +Inf bucket.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LatencyHist {
    buckets: [u64; LATENCY_BUCKET_COUNT],
    overflow: u64,
    count: u64,
    sum_ms: u64,
}

impl LatencyHist {
    /// Records one observation in milliseconds.
    pub fn observe(&mut self, ms: u64) {
        self.count += 1;
        self.sum_ms += ms;
        for (i, b) in self.buckets.iter_mut().enumerate() {
            if ms <= 1u64 << i {
                *b += 1;
                return;
            }
        }
        self.overflow += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations, milliseconds.
    pub fn sum_ms(&self) -> u64 {
        self.sum_ms
    }

    /// The cumulative `(upper_bound_ms, count)` series, +Inf last
    /// (represented as `None`).
    pub fn cumulative(&self) -> Vec<(Option<u64>, u64)> {
        let mut out = Vec::with_capacity(LATENCY_BUCKET_COUNT + 1);
        let mut acc = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            acc += b;
            out.push((Some(1u64 << i), acc));
        }
        out.push((None, acc + self.overflow));
        out
    }

    /// The `q`-quantile (0 < q ≤ 1) as the upper bound of the bucket in
    /// which it falls — a conservative estimate, exact to within the
    /// log₂ bucket resolution. Returns `None` for an empty histogram;
    /// quantiles landing in the +Inf bucket report
    /// [`QuantileBound::Overflow`].
    pub fn quantile(&self, q: f64) -> Option<QuantileBound> {
        quantile_of(&self.cumulative(), q)
    }
}

/// A histogram quantile estimate: the upper bound of the bucket the
/// quantile falls in. A quantile landing in the +Inf bucket has *no*
/// finite upper bound — it is `Overflow`, rendered `+Inf` per the
/// Prometheus convention. (Earlier versions reported such quantiles as
/// twice the largest finite bound, a finite number with no relation to
/// the actual latencies in the bucket — a dashboard reading it as a
/// real p99 would underestimate arbitrarily badly.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuantileBound {
    /// The quantile falls in a finite bucket with this upper bound
    /// (milliseconds for latency histograms).
    Finite(u64),
    /// The quantile falls in the +Inf overflow bucket.
    Overflow,
}

impl std::fmt::Display for QuantileBound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantileBound::Finite(b) => write!(f, "{b}"),
            QuantileBound::Overflow => write!(f, "+Inf"),
        }
    }
}

/// Derives a quantile from a cumulative `(upper_bound, count)` series
/// (+Inf bound as `None`, as produced by [`LatencyHist::cumulative`] or
/// parsed back from exposition text).
pub fn quantile_of(cumulative: &[(Option<u64>, u64)], q: f64) -> Option<QuantileBound> {
    let total = cumulative.last().map(|&(_, c)| c)?;
    if total == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let target = (q * total as f64).ceil().max(1.0) as u64;
    for &(bound, cum) in cumulative {
        if let Some(b) = bound {
            if cum >= target {
                return Some(QuantileBound::Finite(b));
            }
        }
    }
    Some(QuantileBound::Overflow)
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, LatencyHist>,
    version: u64,
}

/// A live, thread-safe metrics registry with Prometheus exposition.
/// See the module docs for the event-feeding rules.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
    scope: Option<&'static str>,
}

impl MetricsRegistry {
    /// An empty registry folding events from every scope.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// An empty registry folding only events whose scope is `scope`
    /// (e.g. `"serve"` for the service surface); direct mutators
    /// ([`MetricsRegistry::inc`] and friends) are unaffected.
    pub fn for_scope(scope: &'static str) -> Self {
        MetricsRegistry {
            inner: Mutex::default(),
            scope: Some(scope),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Adds to a counter.
    pub fn inc(&self, name: &str, delta: u64) {
        let mut g = self.lock();
        *g.counters.entry(sanitize(name)).or_insert(0) += delta;
        g.version += 1;
    }

    /// Sets a gauge (last write wins).
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut g = self.lock();
        g.gauges.insert(sanitize(name), value);
        g.version += 1;
    }

    /// Records one latency observation in milliseconds.
    pub fn observe_latency(&self, name: &str, ms: u64) {
        let mut g = self.lock();
        g.hists.entry(sanitize(name)).or_default().observe(ms);
        g.version += 1;
    }

    /// A counter's current value (0 when never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock()
            .counters
            .get(&sanitize(name))
            .copied()
            .unwrap_or(0)
    }

    /// A gauge's current value.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.lock().gauges.get(&sanitize(name)).copied()
    }

    /// A histogram's `q`-quantile (see [`LatencyHist::quantile`]).
    pub fn quantile(&self, name: &str, q: f64) -> Option<QuantileBound> {
        self.lock()
            .hists
            .get(&sanitize(name))
            .and_then(|h| h.quantile(q))
    }

    /// A monotonic change counter: bumped by every mutation, so writers
    /// can skip exposition rounds where nothing changed.
    pub fn version(&self) -> u64 {
        self.lock().version
    }

    /// Renders the registry in the Prometheus text exposition format,
    /// deterministically (sorted names; `# TYPE` headers; histograms as
    /// cumulative `_bucket{le}` series plus `_sum`/`_count`).
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let g = self.lock();
        let mut out = String::new();
        for (name, v) in &g.counters {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
        }
        for (name, v) in &g.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge");
            if v.is_finite() {
                let _ = writeln!(out, "{name} {v}");
            } else {
                let _ = writeln!(out, "{name} NaN");
            }
        }
        for (name, h) in &g.hists {
            let _ = writeln!(out, "# TYPE {name} histogram");
            for (bound, cum) in h.cumulative() {
                match bound {
                    Some(b) => {
                        let _ = writeln!(out, "{name}_bucket{{le=\"{b}\"}} {cum}");
                    }
                    None => {
                        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
                    }
                }
            }
            let _ = writeln!(out, "{name}_sum {}\n{name}_count {}", h.sum_ms(), h.count());
        }
        out
    }
}

/// Prometheus metric names allow `[a-zA-Z0-9_:]`; everything else
/// (dots in `scope.name` keys) becomes `_`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn field_u64(event: &Event, key: &str) -> Option<u64> {
    event.fields.iter().find_map(|(k, v)| match (k, v) {
        (k, Value::U64(x)) if *k == key => Some(*x),
        (k, Value::I64(x)) if *k == key && *x >= 0 => Some(*x as u64),
        _ => None,
    })
}

fn field_str<'e>(event: &'e Event, key: &str) -> Option<&'e str> {
    event.fields.iter().find_map(|(k, v)| match (k, v) {
        (k, Value::Str(s)) if *k == key => Some(s.as_str()),
        _ => None,
    })
}

impl Recorder for MetricsRegistry {
    fn enabled(&self, _level: Level) -> bool {
        true
    }

    fn record(&self, event: &Event) {
        if self.scope.is_some_and(|s| s != event.scope) {
            return;
        }
        let prefix = format!("netpart_{}", sanitize(event.scope));
        match &event.kind {
            Kind::Counter(delta) => {
                self.inc(&format!("{prefix}_{}_total", sanitize(event.name)), *delta);
            }
            Kind::Gauge(v) => {
                self.set_gauge(&format!("{prefix}_{}", sanitize(event.name)), *v);
            }
            // Bin-indexed histogram events (ψ distributions) have no
            // latency semantics; their observation count still counts.
            Kind::Hist(bins) => {
                self.inc(
                    &format!("{prefix}_{}_observations_total", sanitize(event.name)),
                    bins.iter().sum(),
                );
            }
            Kind::Point => {
                if !event.name.starts_with("span.") {
                    self.inc(&format!("{prefix}_{}_total", sanitize(event.name)), 1);
                }
            }
        }
        if let Some(open) = field_u64(event, "open").or_else(|| field_u64(event, "pending")) {
            self.set_gauge(&format!("{prefix}_queue_depth"), open as f64);
        }
        if event.name == "cache" {
            if let Some(outcome) = field_str(event, "outcome") {
                self.inc(&format!("{prefix}_cache_{}_total", sanitize(outcome)), 1);
            }
        }
        for (k, v) in &event.timing {
            if *k == "latency_ms" {
                if let Value::U64(ms) = v {
                    self.observe_latency(&format!("{prefix}_latency_ms"), *ms);
                }
            }
        }
    }
}

/// One sample parsed back from Prometheus exposition text.
#[derive(Clone, Debug, PartialEq)]
pub struct PromSample {
    /// Metric name (for histogram series, including the `_bucket` /
    /// `_sum` / `_count` suffix).
    pub name: String,
    /// The `le` label of a `_bucket` sample (`None` elsewhere; the
    /// +Inf bucket parses as `Some(u64::MAX)`).
    pub le: Option<u64>,
    /// Sample value.
    pub value: f64,
}

/// A parsed exposition document: samples in file order plus the
/// declared metric types.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PromText {
    /// Samples in file order.
    pub samples: Vec<PromSample>,
    /// `name → type` from the `# TYPE` headers.
    pub types: BTreeMap<String, String>,
}

impl PromText {
    /// The value of a non-histogram sample.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.le.is_none())
            .map(|s| s.value)
    }

    /// Reconstructs a histogram's cumulative series (in the
    /// [`quantile_of`] shape) from its `_bucket` samples.
    pub fn cumulative(&self, name: &str) -> Vec<(Option<u64>, u64)> {
        let bucket = format!("{name}_bucket");
        self.samples
            .iter()
            .filter(|s| s.name == bucket)
            .map(|s| {
                let bound = s.le.filter(|&b| b != u64::MAX);
                (bound, s.value as u64)
            })
            .collect()
    }

    /// Base names of the histograms in the document.
    pub fn histograms(&self) -> Vec<String> {
        self.types
            .iter()
            .filter(|(_, t)| t.as_str() == "histogram")
            .map(|(n, _)| n.clone())
            .collect()
    }
}

/// Parses Prometheus text exposition (the subset
/// [`MetricsRegistry::to_prometheus`] emits: `# TYPE` headers, bare
/// samples, `_bucket{le="..."}` series).
///
/// # Errors
///
/// A human-readable message naming the first malformed line.
pub fn parse_prometheus(text: &str) -> Result<PromText, String> {
    let mut out = PromText::default();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let err = |what: &str| format!("line {}: {what}: {raw:?}", i + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let (Some(name), Some(ty)) = (parts.next(), parts.next()) else {
                    return Err(err("malformed TYPE header"));
                };
                out.types.insert(name.to_string(), ty.to_string());
            }
            continue; // other comments are legal and ignored
        }
        // name[{labels}] value
        let (ident, value) = line
            .rsplit_once(char::is_whitespace)
            .ok_or_else(|| err("expected `name value`"))?;
        let value: f64 = match value {
            "NaN" => f64::NAN,
            v => v.parse().map_err(|_| err("bad sample value"))?,
        };
        let (name, le) = match ident.split_once('{') {
            None => (ident.to_string(), None),
            Some((name, labels)) => {
                let labels = labels
                    .strip_suffix('}')
                    .ok_or_else(|| err("unclosed labels"))?;
                let le = labels
                    .strip_prefix("le=\"")
                    .and_then(|v| v.strip_suffix('"'));
                let le = match le {
                    Some("+Inf") => Some(u64::MAX),
                    Some(v) => Some(v.parse().map_err(|_| err("bad le bound"))?),
                    None => None,
                };
                (name.to_string(), le)
            }
        };
        out.samples.push(PromSample { name, le, value });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_buckets_and_quantiles() {
        let mut h = LatencyHist::default();
        for ms in [1, 1, 2, 3, 8, 100, 100_000] {
            h.observe(ms);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum_ms(), 100_115);
        // 100000ms exceeds the largest finite bound (32768): overflow.
        let cum = h.cumulative();
        assert_eq!(cum.last(), Some(&(None, 7)));
        assert_eq!(
            h.quantile(0.5),
            Some(QuantileBound::Finite(4)),
            "4 of 7 within <=4ms"
        );
        assert_eq!(
            h.quantile(0.7),
            Some(QuantileBound::Finite(8)),
            "5 of 7 within <=8ms"
        );
        // p90 of 7 observations is the 7th (the overflow one): the
        // +Inf bucket has no finite upper bound, so the quantile is
        // Overflow — never a made-up finite number.
        assert_eq!(h.quantile(0.9), Some(QuantileBound::Overflow));
        assert_eq!(h.quantile(0.99), Some(QuantileBound::Overflow));
        assert_eq!(format!("{}", QuantileBound::Overflow), "+Inf");
        assert_eq!(LatencyHist::default().quantile(0.5), None);
    }

    #[test]
    fn registry_feeds_from_serve_events() {
        let r = MetricsRegistry::for_scope("serve");
        r.record(
            &Event::new("serve", "submit", Level::Info)
                .field("job", "j1")
                .field("open", 3u64),
        );
        r.record(
            &Event::new("serve", "cache", Level::Info)
                .field("job", "j1")
                .field("outcome", "hit"),
        );
        r.record(
            &Event::new("serve", "done", Level::Info)
                .field("job", "j1")
                .timing("latency_ms", 12u64),
        );
        r.record(&Event::counter("serve", "retries", 2));
        // Out-of-scope and span events are ignored.
        r.record(&Event::counter("fm", "moves", 999));
        r.record(&Event::new("serve", "span.enter", Level::Debug).field("span", "execute"));
        assert_eq!(r.counter("netpart_serve_submit_total"), 1);
        assert_eq!(r.counter("netpart_serve_cache_hit_total"), 1);
        assert_eq!(r.counter("netpart_serve_retries_total"), 2);
        assert_eq!(r.gauge("netpart_serve_queue_depth"), Some(3.0));
        assert_eq!(
            r.quantile("netpart_serve_latency_ms", 1.0),
            Some(QuantileBound::Finite(16))
        );
        assert_eq!(r.counter("netpart_fm_moves_total"), 0);
        assert_eq!(r.counter("netpart_serve_span_enter_total"), 0);
    }

    #[test]
    fn version_counts_mutations_only() {
        let r = MetricsRegistry::new();
        assert_eq!(r.version(), 0);
        r.inc("a", 1);
        let v1 = r.version();
        assert!(v1 > 0);
        let _ = r.to_prometheus(); // reads do not bump
        assert_eq!(r.version(), v1);
        r.record(&Event::new("serve", "span.exit", Level::Debug).field("span", "x"));
        assert_eq!(r.version(), v1, "skipped events do not bump");
    }

    #[test]
    fn prometheus_roundtrip() {
        let r = MetricsRegistry::new();
        r.inc("netpart_serve_done_total", 3);
        r.set_gauge("netpart_serve_queue_depth", 2.0);
        r.observe_latency("netpart_serve_latency_ms", 5);
        r.observe_latency("netpart_serve_latency_ms", 900);
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE netpart_serve_done_total counter"));
        assert!(text.contains("netpart_serve_latency_ms_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("netpart_serve_latency_ms_sum 905"));
        // Deterministic rendering.
        assert_eq!(text, r.to_prometheus());

        let parsed = parse_prometheus(&text).expect("parse back");
        assert_eq!(parsed.value("netpart_serve_done_total"), Some(3.0));
        assert_eq!(parsed.value("netpart_serve_queue_depth"), Some(2.0));
        assert_eq!(parsed.types["netpart_serve_latency_ms"], "histogram");
        let cum = parsed.cumulative("netpart_serve_latency_ms");
        assert_eq!(quantile_of(&cum, 0.5), Some(QuantileBound::Finite(8)));
        assert_eq!(quantile_of(&cum, 0.99), Some(QuantileBound::Finite(1024)));
    }

    #[test]
    fn empty_registry_renders_empty_exposition() {
        let r = MetricsRegistry::new();
        assert_eq!(r.to_prometheus(), "");
        let parsed = parse_prometheus("").expect("empty parses");
        assert!(parsed.samples.is_empty());
        assert!(parsed.types.is_empty());
        assert_eq!(parsed.value("anything"), None);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_prometheus("just_a_name_no_value").is_err());
        assert!(parse_prometheus("x{le=\"oops\"} 3").is_err());
        assert!(parse_prometheus("x{le=\"1\" 3").is_err());
        // Non-le labels and arbitrary comments are tolerated.
        let ok = parse_prometheus("# a comment\nx{job=\"netpart\"} 3").expect("tolerated");
        assert_eq!(ok.value("x"), Some(3.0));
    }

    #[test]
    fn sanitization_maps_dots_to_underscores() {
        let r = MetricsRegistry::new();
        r.inc("serve.done", 1);
        assert_eq!(r.counter("serve_done"), 1);
        assert!(r.to_prometheus().contains("serve_done 1"));
    }
}
