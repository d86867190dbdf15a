//! End-to-end benchmark of the netpart flow. Each round takes every
//! circuit of a workload from BLIF bytes in memory through ingest
//! (parse, validate, decompose, map, hypergraph build), one engine
//! request on a single worker thread, and certificate build, write,
//! parse and independent verification.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload rent-ml --seed 42 --seconds 30 --trace 0
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and the metrics (end-to-end with `--trace 0`, per-layer with
//! `--trace 1`). Any failed operation makes the exit code 1. See
//! `README.md` next to this file for the workloads and the estimators.

mod trace;
mod workload;

use netpart_netlist::parse_blif;
use netpart_obs::{ProfileRecorder, Recorder, Tee};
use netpart_techmap::{decompose_wide_gates, map, MapperConfig};
use netpart_verify::{verify, SolutionCertificate};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{peak_rss_mb, profile_secs, CountingAlloc, EngineCounts, EventCounter, Spans};
use workload::{Circuit, Quality, Workload, DEFAULT_SEED};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Timed rounds a run makes at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;

/// The layer spans of one circuit, in flow order. Their sum over a
/// round is what the traced run compares against the round's `e2e_s`.
const LAYERS: [&str; 10] = [
    "netlist.parse",
    "netlist.validate",
    "techmap.decompose",
    "techmap.map",
    "hypergraph.build",
    "engine.solve",
    "verify.cert_build",
    "verify.cert_write",
    "verify.parse",
    "verify.check",
];
const INGEST: [&str; 5] = [
    "netlist.parse",
    "netlist.validate",
    "techmap.decompose",
    "techmap.map",
    "hypergraph.build",
];

struct Args {
    workload: Workload,
    seed: u64,
    circuit_seed: u64,
    seconds: f64,
    trace: bool,
    shrink: bool,
    corrupt_round: Option<u32>,
}

const USAGE: &str = "usage: netpart-e2ebench --workload rent-ml|paper-kway|rent-repl \
[--seed N] [--circuit-seed N] [--seconds S] [--trace 0|1] [--shrink] [--corrupt-round R]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::RentMl,
        seed: DEFAULT_SEED,
        circuit_seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        shrink: false,
        corrupt_round: None,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--shrink" {
            args.shrink = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--circuit-seed" => args.circuit_seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--corrupt-round" => args.corrupt_round = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// One traced round's view from inside the engine.
struct EngineView {
    counts: EngineCounts,
    fm_pass_s: f64,
    bucket_build_s: f64,
    coarsen_s: f64,
    initial_s: f64,
    refine_s: f64,
}

/// Everything a round produced besides its spans.
#[derive(Default)]
struct Round {
    run: u32,
    traced: bool,
    /// Span id of each circuit's pass through the flow.
    circuits: Vec<usize>,
    /// Certificate text per circuit (`None` where the flow failed).
    certs: Vec<Option<String>>,
    quality: Quality,
    clbs: u64,
    cells: u64,
    nets: u64,
    pins: u64,
    feasible_tasks: u64,
    /// `VmHWM` after the round's last solve, MB.
    solve_rss_mb: f64,
    engine: Option<EngineView>,
}

struct Bench {
    workload: Workload,
    circuits: Vec<Circuit>,
    corrupt_round: Option<u32>,
    spans: Spans,
    attempted: u64,
    failed: u64,
    /// The warm-up round's certificates, which every later round must
    /// reproduce byte for byte.
    reference: Vec<Option<String>>,
}

impl Bench {
    /// One round over every circuit; `run` 0 is the warm-up.
    fn round(&mut self, run: u32, traced: bool) -> Round {
        let profile = traced.then(|| Arc::new(ProfileRecorder::new()));
        let counter = traced.then(|| Arc::new(EventCounter::default()));
        let recorder: Option<Arc<dyn Recorder>> = match (&profile, &counter) {
            (Some(p), Some(c)) => Some(Arc::new(
                Tee::new()
                    .with(Arc::clone(p) as Arc<dyn Recorder>)
                    .with(Arc::clone(c) as Arc<dyn Recorder>),
            )),
            _ => None,
        };
        let mut round = Round {
            run,
            traced,
            ..Round::default()
        };
        let id = self.spans.enter("round", run);
        for i in 0..self.circuits.len() {
            let cid = self.spans.enter("circuit", run);
            let out = self.circuit(i, &mut round, recorder.clone());
            self.spans.exit(cid);
            round.circuits.push(cid);
            self.attempted += 1;
            let text = match out {
                Ok(text) => Some(text),
                Err(why) => {
                    self.failed += 1;
                    eprintln!(
                        "FAILED round {run} circuit {}: {why}",
                        self.circuits[i].name
                    );
                    None
                }
            };
            round.certs.push(text);
        }
        self.spans.exit(id);
        if let (Some(p), Some(c)) = (profile, counter) {
            let p = p.profile();
            round.engine = Some(EngineView {
                counts: c.counts(),
                fm_pass_s: profile_secs(&p, "fm/pass"),
                bucket_build_s: profile_secs(&p, "fm/buckets.build"),
                coarsen_s: profile_secs(&p, "ml/chain"),
                initial_s: profile_secs(&p, "ml/initial"),
                refine_s: profile_secs(&p, "ml/level"),
            });
        }
        round
    }

    /// BLIF bytes → verified certificate for circuit `i`. Returns the
    /// certificate text, or why the operation failed.
    fn circuit(
        &mut self,
        i: usize,
        round: &mut Round,
        recorder: Option<Arc<dyn Recorder>>,
    ) -> Result<String, String> {
        let run = round.run;
        let workload = self.workload;
        let blif = &self.circuits[i].blif;
        let s = &mut self.spans;
        let nl = s
            .time("netlist.parse", run, || parse_blif(blif))
            .map_err(|e| format!("parse: {e}"))?;
        s.time("netlist.validate", run, || nl.validate())
            .map_err(|e| format!("validate: {e}"))?;
        let nl = s.time("techmap.decompose", run, || decompose_wide_gates(&nl, 5));
        let mapped = s
            .time("techmap.map", run, || map(&nl, &MapperConfig::xc3000()))
            .map_err(|e| format!("map: {e}"))?;
        let hg = s.time("hypergraph.build", run, || mapped.to_hypergraph(&nl));
        let solved = s
            .time("engine.solve", run, || workload.solve(&hg, recorder))
            .map_err(|e| format!("partitioner: {e}"))?;
        round.solve_rss_mb = peak_rss_mb();
        let cert = s
            .time("verify.cert_build", run, || solved.certificate(&hg))
            .ok_or("partitioner: the winner exported no placement")?;
        let mut text = s.time("verify.cert_write", run, || cert.to_text());
        if self.corrupt_round == Some(run) && i == 0 {
            text = corrupt(&text);
        }
        let parsed = s
            .time("verify.parse", run, || SolutionCertificate::parse(&text))
            .map_err(|e| format!("verifier: malformed certificate: {e}"))?;
        let report = s.time("verify.check", run, || verify(&hg, &parsed));

        let stats = hg.stats();
        round.clbs += mapped.clbs.len() as u64;
        round.cells += hg.n_cells() as u64;
        round.nets += u64::from(stats.nets);
        round.pins += u64::from(stats.pins);
        round.feasible_tasks += solved.feasible_tasks();
        round.quality = round.quality.add(Quality::of(report.recomputed()));
        if !report.is_clean() {
            let codes: Vec<&str> = report.violations().iter().map(|v| v.code()).collect();
            return Err(format!("verifier: violations {codes:?}"));
        }
        if let Some(Some(reference)) = self.reference.get(i) {
            if *reference != text {
                return Err("certificate bytes differ from the first round".into());
            }
        }
        Ok(text)
    }

    fn secs(&self, r: &Round, names: &[&str]) -> f64 {
        names.iter().map(|n| self.spans.secs(r.run, n)).sum()
    }
}

/// Claims one CLB more for part 0 (`part 0 … clbs=N …`): the text still
/// parses, and the verifier must reject it.
fn corrupt(text: &str) -> String {
    let part = text.find("\npart 0 ").expect("certificates list part 0");
    let at = part + text[part..].find("clbs=").expect("parts claim CLBs") + "clbs=".len();
    let end = at + text[at..].find(' ').expect("terminals follow CLBs");
    let clbs: u64 = text[at..end].parse().expect("a CLB count");
    format!("{}{}{}", &text[..at], clbs + 1, &text[end..])
}

/// Name, value and unit of every printed metric, in print order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The end-to-end metrics. Each timing takes, for each circuit, its
/// fastest timed round and sums those: host slow phases only ever add
/// time. `e2e_s` is the whole circuit span of that round.
fn end_to_end(bench: &Bench, rounds: &[Round]) -> Metrics {
    let spans = &bench.spans;
    let fastest = |step: &dyn Fn(usize) -> f64| -> f64 {
        (0..rounds[0].circuits.len())
            .map(|i| {
                rounds
                    .iter()
                    .map(|r| step(r.circuits[i]))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    };
    let ingest = |c: usize| INGEST.iter().map(|n| spans.child_secs(c, n)).sum::<f64>();
    let q = rounds[0].quality;
    vec![
        ("setup_s", fastest(&ingest), "s"),
        (
            "flow_s",
            fastest(&|c| spans.child_secs(c, "engine.solve")),
            "s",
        ),
        ("e2e_s", fastest(&|c| spans.secs_of(c)), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
        ("cut_nets", q.cut_nets as f64, "count"),
        ("device_cost", q.device_cost as f64, "count"),
        ("terminals", q.terminals as f64, "count"),
    ]
}

/// The per-layer metrics of the fastest traced round, plus the tracing
/// overhead against the fastest untraced round.
fn per_layer(bench: &Bench, rounds: &[Round]) -> Metrics {
    let e2e = |r: &Round| bench.secs(r, &["round"]);
    let fastest = |traced: bool| {
        rounds
            .iter()
            .filter(|r| r.traced == traced)
            .min_by(|a, b| e2e(a).total_cmp(&e2e(b)))
            .expect("a traced run makes traced and untraced rounds")
    };
    let (r, plain) = (fastest(true), fastest(false));
    let v = r
        .engine
        .as_ref()
        .expect("traced rounds carry an engine view");
    let c = &v.counts;
    let secs = |name: &str| bench.spans.secs(r.run, name);
    let allocs = |name: &str| bench.spans.allocs(r.run, name) as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let cert_bytes: usize = r.certs.iter().flatten().map(String::len).sum();
    let solve_s = secs("engine.solve");
    vec![
        ("netlist.parse_s", secs("netlist.parse"), "s"),
        ("netlist.parse_allocs", allocs("netlist.parse"), "count"),
        ("netlist.validate_s", secs("netlist.validate"), "s"),
        ("techmap.decompose_s", secs("techmap.decompose"), "s"),
        ("techmap.map_s", secs("techmap.map"), "s"),
        ("techmap.map_allocs", allocs("techmap.map"), "count"),
        ("techmap.clbs", r.clbs as f64, "count"),
        ("hypergraph.build_s", secs("hypergraph.build"), "s"),
        (
            "hypergraph.build_allocs",
            allocs("hypergraph.build"),
            "count",
        ),
        ("hypergraph.cells", r.cells as f64, "count"),
        ("hypergraph.nets", r.nets as f64, "count"),
        ("hypergraph.pins", r.pins as f64, "count"),
        ("engine.solve_s", solve_s, "s"),
        ("engine.solve_allocs", allocs("engine.solve"), "count"),
        ("engine.rss_mb", r.solve_rss_mb, "MB"),
        ("engine.feasible_tasks", r.feasible_tasks as f64, "count"),
        ("multilevel.coarsen_s", v.coarsen_s, "s"),
        ("multilevel.levels", c.ml_levels as f64, "count"),
        (
            "multilevel.coarsest_cells",
            c.coarsest_cells() as f64,
            "count",
        ),
        (
            "multilevel.coarsest_nets",
            c.coarsest_nets() as f64,
            "count",
        ),
        ("multilevel.stalls", c.ml_stalls as f64, "count"),
        ("multilevel.initial_s", v.initial_s, "s"),
        ("multilevel.refine_s", v.refine_s, "s"),
        ("core.fm_pass_s", v.fm_pass_s, "s"),
        ("core.bucket_build_s", v.bucket_build_s, "s"),
        ("core.fm_passes", c.fm_passes as f64, "count"),
        ("core.fm_applied", c.fm_applied as f64, "count"),
        ("core.fm_kept", c.fm_kept as f64, "count"),
        (
            "core.fm_kept_ratio",
            ratio(c.fm_kept, c.fm_applied),
            "ratio",
        ),
        ("core.fm_repairs", c.fm_repairs as f64, "count"),
        ("core.kway_attempts", c.kway_attempts as f64, "count"),
        ("core.kway_feasible", c.kway_feasible as f64, "count"),
        (
            "core.kway_feasible_ratio",
            ratio(c.kway_feasible, c.kway_attempts),
            "ratio",
        ),
        ("core.kway_escalations", c.kway_escalations as f64, "count"),
        ("core.kway_other_s", solve_s - v.fm_pass_s, "s"),
        ("verify.cert_build_s", secs("verify.cert_build"), "s"),
        ("verify.cert_write_s", secs("verify.cert_write"), "s"),
        ("verify.cert_bytes", cert_bytes as f64, "bytes"),
        ("verify.parse_s", secs("verify.parse"), "s"),
        ("verify.check_s", secs("verify.check"), "s"),
        ("trace.e2e_s", e2e(r), "s"),
        (
            "trace.layer_share",
            bench.secs(r, &LAYERS) / e2e(r),
            "ratio",
        ),
        ("trace.overhead_s", e2e(r) - e2e(plain), "s"),
    ]
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut bench = Bench {
        workload: args.workload,
        circuits: args
            .workload
            .circuits(args.circuit_seed, args.seed, args.shrink),
        corrupt_round: args.corrupt_round,
        spans: Spans::new(),
        attempted: 0,
        failed: 0,
        reference: Vec::new(),
    };

    // Warm-up: the first round in a fresh process runs slower, so it is
    // not timed; its certificates become the byte reference.
    bench.reference = bench.round(0, false).certs;

    // Timed rounds until the next one would overrun `--seconds`. A
    // traced run alternates untraced and traced rounds.
    let budget = Duration::from_secs_f64(args.seconds);
    let t0 = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut run = 1;
    loop {
        let traced = args.trace && run % 2 == 0;
        let started = Instant::now();
        rounds.push(bench.round(run, traced));
        run += 1;
        let last = started.elapsed();
        if rounds.len() >= MIN_ROUNDS && t0.elapsed() + last > budget {
            break;
        }
    }

    let metrics = if args.trace {
        per_layer(&bench, &rounds)
    } else {
        end_to_end(&bench, &rounds)
    };
    for (name, value, unit) in &metrics {
        println!("{:<28} {value:>16.6} {unit}", name);
    }
    println!(
        "workload {} seed {} circuit seed {}: {} timed rounds, {} of {} operations failed",
        args.workload.name(),
        args.seed,
        args.circuit_seed,
        rounds.len(),
        bench.failed,
        bench.attempted
    );
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!(
        "{dir}/spans-{}-seed{}-trace{}.jsonl",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, bench.spans.to_jsonl()))
    {
        Ok(()) => eprintln!("spans written to {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
    let correct = bench.failed == 0;
    println!(
        "{}",
        json_line(correct, bench.attempted, bench.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
