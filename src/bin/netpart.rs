//! Command-line front end: map a BLIF netlist into XC3000 CLBs and
//! partition it.
//!
//! ```text
//! netpart stats       <file.blif>
//! netpart bipartition <file.blif> [--replication none|traditional|functional]
//!                     [--threshold T] [--runs N] [--epsilon E] [--seed S]
//!                     [--budget-ms MS] [--jobs N] [--certify-out C.cert]
//!                     [--multilevel] [--max-levels N] [--coarsen-ratio R]
//!                     [--par-refine]
//! netpart kway        <file.blif> [--replication none|functional] [--threshold T]
//!                     [--candidates N] [--max-attempts N] [--seed S] [--refine]
//!                     [--budget-ms MS] [--assign out.csv] [--jobs N] [--tasks N]
//!                     [--certify-out C.cert]
//!                     [--multilevel] [--max-levels N] [--coarsen-ratio R]
//! netpart verify      <file.cert> [--netlist file.blif]
//! netpart serve       <spool-dir> [--drain] [--jobs N] [--max-queue N]
//!                     [--max-retries N] [--backoff-base R] [--poll-ms MS]
//!                     [--budget-ms MS] [--seed S]
//! netpart serve-status <spool-dir>
//! netpart trace       summarize <trace.jsonl>
//! netpart trace       validate  <trace.jsonl>
//! netpart trace       diff      <a.jsonl> <b.jsonl>
//! netpart submit      <spool-dir> <file.blif> [--cmd bipartition|kway] [--id ID]
//!                     [job flags: --seed --runs --epsilon --candidates --tasks
//!                      --replication --threshold --budget-ms --max-retries]
//! netpart queue       <spool-dir>
//! ```
//!
//! Every `bipartition` and `kway` run goes through the deterministic
//! portfolio engine. `--jobs N` fans the portfolio across `N` worker
//! threads: for a fixed seed the printed solution is identical at every
//! jobs level. `--tasks N` fixes the k-way portfolio width (default 4)
//! independently of `--jobs`, which is what keeps the k-way reduction
//! jobs-invariant. Worker statistics go to stderr so stdout stays
//! byte-comparable. `kway --refine` polishes the winner with the direct
//! multi-way refiner, judged against the library the winner was carved
//! under (floor-relaxed when the escalation ladder relaxed it), so the
//! certificate it writes verifies.
//!
//! # Observability
//!
//! * `--trace-out <path>` — write a structured JSONL run trace
//!   (`netpart::obs` events at Trace level). Fixed-seed traces are
//!   byte-identical across `--jobs` levels once scheduling timing is
//!   stripped (drop `"scope":"timing"` lines and trailing `"timing"`
//!   objects; see `scripts/strip_timing.sh`).
//! * `--metrics-out <path>` — write an end-of-run metrics snapshot
//!   (counters, paper-metric gauges `$_k`/`k̄`, histograms) as pretty
//!   JSON, suitable as a `BENCH_*.json` artifact.
//! * `--profile-out <path>` — write the folded span profile (the
//!   inclusive/exclusive self-time tree over `fm`/`ml`/`engine`/`serve`
//!   spans) as pretty JSON; with `-v` the flame-style table also prints
//!   to stderr.
//! * `-v` / `-vv` — human-readable events on stderr (Info / Trace).
//!
//! `netpart trace <summarize|validate|diff>` operates on written trace
//! files: `validate` checks every line against the event schema (exit 2
//! on violations), `summarize` prints per-scope event/counter/span
//! tables, and `diff` compares two traces after stripping timing (exit
//! 1 at the first divergence) — the native form of the
//! `scripts/strip_timing.sh` determinism check. `netpart serve-status
//! <spool>` renders the service's latest `metrics.prom` exposition
//! (queue depth, claim-to-done latency quantiles, retry/quarantine/
//! cache counters).
//!
//! None of these flags changes stdout, and the stripped trace is
//! identical at every jobs level.
//!
//! # Multilevel V-cycle
//!
//! `--multilevel` wraps every portfolio start in the multilevel V-cycle
//! (`netpart::multilevel`): coarsen by ψ-guarded heavy-edge matching,
//! partition the coarsest graph, refine back up. This is how 100k+-cell
//! circuits become tractable; small circuits (below the default 3000
//! -cell floor) fall through to the flat path byte-identically.
//! `--max-levels N` and `--coarsen-ratio R` override the V-cycle depth
//! and the minimum per-level shrink factor (either flag implies
//! `--multilevel`). `--jobs` invariance and certificates work unchanged.
//!
//! # Board topologies
//!
//! `--board <file.board>` (or a builtin: `direct2`, `mesh2x2`, `star8`)
//! routes the winning solution's cut nets over a concrete multi-FPGA
//! board with the deterministic channel router (`netpart::board`),
//! prints the topology objective (total hop cost, channel congestion,
//! peak channel utilization) and — with `--certify-out` — embeds the
//! board and every route in the certificate so `netpart verify`
//! re-derives routing feasibility and the congestion terms from
//! scratch. Part `j` of the placement is hosted on board site `j`; a
//! placement with more occupied parts than the board has sites is
//! rejected as invalid input (exit 2). Routing is a pure function of
//! the placement, so stdout stays byte-identical across `--jobs`
//! levels.
//!
//! Generated circuits can be exported for experimentation with
//! `netpart synth <gates> [out.blif]`; `--rent P` switches the
//! generator to Rent-rule I/O scaling (`T ≈ 2.5·B^P`) for realistic
//! large-circuit boundaries.
//!
//! # Certificates
//!
//! `--certify-out <path>` serializes the winning solution as a
//! [`SolutionCertificate`] — a self-contained claim file that
//! `netpart verify` re-checks from scratch with the independent
//! `netpart-verify` oracle (no code shared with the optimizer's
//! incremental bookkeeping). `verify` re-reads the netlist from
//! `--netlist` or, absent that, from the `source` path recorded in the
//! certificate, re-derives every claim, and exits `6` on any violation
//! (including malformed certificate files).
//!
//! # Service mode
//!
//! `netpart serve <spool>` runs the durable partitioning service over a
//! spool directory: jobs dropped by `netpart submit` are executed with
//! every queue transition journaled to a checksummed write-ahead log,
//! so the server survives `kill -9` at any point — on restart it
//! replays the journal, re-runs interrupted jobs and replays completed
//! ones from the certificate-verified disk cache. `--drain` processes
//! the backlog and exits (batch mode); without it the server watches
//! `jobs/` until a `drain` sentinel file appears in the spool.
//! `--fault-crash-at <label>`, `--fault-torn-write <n>` and
//! `--fault-disk-full <n>` arm the deterministic fault-injection hooks
//! the recovery test matrix uses.
//!
//! # Exit codes
//!
//! * `0` — success, including *degraded* results (budget ran out or the
//!   k-way escalation ladder relaxed constraints; a `note:` line on
//!   stderr describes the degradation).
//! * `1` — I/O or BLIF parse failure.
//! * `2` — usage error or invalid input
//!   ([`PartitionError::InvalidInput`]).
//! * `3` — infeasible under the device library
//!   ([`PartitionError::InfeasibleLibrary`]).
//! * `4` — budget exhausted with no usable solution
//!   ([`PartitionError::BudgetExhausted`]).
//! * `5` — internal invariant violation, i.e. a bug
//!   ([`PartitionError::InternalInvariant`]).
//! * `6` — certificate violation: `netpart verify` rejected the
//!   certificate (or could not parse it).
//! * `7` — queue full: `netpart submit` hit the spool's backpressure
//!   limit; nothing was written, resubmit later.

use netpart::core::{refine_kway, unreplicate_cleanup};
use netpart::engine::WorkerStats;
use netpart::obs::{
    diff_stripped, parse_prometheus, quantile_of, scan_trace, ProfileRecorder, QuantileBound,
    StderrRecorder,
};
use netpart::prelude::*;
use netpart::report::{
    metrics_table, profile_table, violation_table, worker_table, Table, WorkerRow,
};
use netpart::serve::{
    atomic_write, CrashMode, Injector, JobState, QueueState, ServeError, Wal,
};
use std::error::Error;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage:\n  netpart stats <file.blif>\n  netpart bipartition <file.blif> [--replication none|traditional|functional] [--threshold T] [--runs N] [--epsilon E] [--seed S] [--budget-ms MS] [--jobs N] [--multilevel] [--max-levels N] [--coarsen-ratio R] [--par-refine] [--board B.board|direct2|mesh2x2|star8] [--certify-out C.cert] [--trace-out T.jsonl] [--metrics-out M.json] [--profile-out P.json] [-v|-vv]\n  netpart kway <file.blif> [--replication none|functional] [--threshold T] [--candidates N] [--max-attempts N] [--seed S] [--refine] [--budget-ms MS] [--assign out.csv] [--jobs N] [--tasks N] [--multilevel] [--max-levels N] [--coarsen-ratio R] [--board B.board|direct2|mesh2x2|star8] [--certify-out C.cert] [--trace-out T.jsonl] [--metrics-out M.json] [--profile-out P.json] [-v|-vv]\n  netpart verify <file.cert> [--netlist file.blif] [-v|-vv]\n  netpart serve <spool-dir> [--drain] [--jobs N] [--max-queue N] [--max-retries N] [--backoff-base R] [--poll-ms MS] [--budget-ms MS] [--seed S] [--trace-out T.jsonl] [--metrics-out M.json] [--profile-out P.json] [-v|-vv]\n  netpart serve-status <spool-dir>\n  netpart trace summarize <trace.jsonl>\n  netpart trace validate <trace.jsonl>\n  netpart trace diff <a.jsonl> <b.jsonl>\n  netpart submit <spool-dir> <file.blif> [--cmd bipartition|kway] [--id ID] [--seed S] [--runs N] [--epsilon E] [--candidates N] [--tasks N] [--replication M] [--threshold T] [--budget-ms MS] [--max-retries N] [--max-queue N]\n  netpart queue <spool-dir>\n  netpart synth <gates> [out.blif] [--dff N] [--seed S] [--rent P]"
    );
    std::process::exit(2)
}

struct Flags {
    replication: String,
    threshold: u32,
    runs: usize,
    epsilon: f64,
    seed: u64,
    candidates: usize,
    max_attempts: Option<usize>,
    budget_ms: Option<u64>,
    refine: bool,
    par_refine: bool,
    assign: Option<String>,
    dff: usize,
    jobs: usize,
    tasks: usize,
    multilevel: bool,
    max_levels: Option<usize>,
    coarsen_ratio: Option<f64>,
    rent: Option<f64>,
    verbose: u8,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    profile_out: Option<String>,
    certify_out: Option<String>,
    netlist: Option<String>,
    board: Option<String>,
    // Service-mode flags (serve / submit / queue).
    id: Option<String>,
    cmd: String,
    max_queue: usize,
    max_retries: Option<u32>,
    backoff_base: u64,
    poll_ms: u64,
    drain: bool,
    max_moves: u64,
    fault_crash_at: Option<String>,
    fault_torn_write: Option<u64>,
    fault_disk_full: Option<u64>,
}

fn parse_flags(args: &[String]) -> Result<Flags, Box<dyn Error>> {
    let mut f = Flags {
        replication: "functional".into(),
        threshold: 0,
        runs: 10,
        epsilon: 0.1,
        seed: 1,
        candidates: 10,
        max_attempts: None,
        budget_ms: None,
        refine: false,
        par_refine: false,
        assign: None,
        dff: 0,
        jobs: 1,
        tasks: 4,
        multilevel: false,
        max_levels: None,
        coarsen_ratio: None,
        rent: None,
        verbose: 0,
        trace_out: None,
        metrics_out: None,
        profile_out: None,
        certify_out: None,
        netlist: None,
        board: None,
        id: None,
        cmd: "kway".into(),
        max_queue: 64,
        max_retries: None,
        backoff_base: 2,
        poll_ms: 50,
        drain: false,
        max_moves: 0,
        fault_crash_at: None,
        fault_torn_write: None,
        fault_disk_full: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || -> Result<&String, Box<dyn Error>> {
            it.next().ok_or_else(|| format!("{a} needs a value").into())
        };
        match a.as_str() {
            "--replication" => f.replication = val()?.clone(),
            "--threshold" => f.threshold = val()?.parse()?,
            "--runs" => f.runs = val()?.parse()?,
            "--epsilon" => f.epsilon = val()?.parse()?,
            "--seed" => f.seed = val()?.parse()?,
            "--candidates" => f.candidates = val()?.parse()?,
            "--max-attempts" => f.max_attempts = Some(val()?.parse()?),
            "--budget-ms" => f.budget_ms = Some(val()?.parse()?),
            "--dff" => f.dff = val()?.parse()?,
            "--jobs" => f.jobs = val()?.parse::<usize>()?.max(1),
            "--tasks" => f.tasks = val()?.parse::<usize>()?.max(1),
            "--multilevel" => f.multilevel = true,
            "--max-levels" => f.max_levels = Some(val()?.parse()?),
            "--coarsen-ratio" => f.coarsen_ratio = Some(val()?.parse()?),
            "--rent" => f.rent = Some(val()?.parse()?),
            "-v" => f.verbose += 1,
            "-vv" => f.verbose += 2,
            "--trace-out" => f.trace_out = Some(val()?.clone()),
            "--metrics-out" => f.metrics_out = Some(val()?.clone()),
            "--profile-out" => f.profile_out = Some(val()?.clone()),
            "--certify-out" => f.certify_out = Some(val()?.clone()),
            "--netlist" => f.netlist = Some(val()?.clone()),
            "--board" => f.board = Some(val()?.clone()),
            "--refine" => f.refine = true,
            "--par-refine" => f.par_refine = true,
            "--assign" => f.assign = Some(val()?.clone()),
            "--id" => f.id = Some(val()?.clone()),
            "--cmd" => f.cmd = val()?.clone(),
            "--max-queue" => f.max_queue = val()?.parse::<usize>()?.max(1),
            "--max-retries" => f.max_retries = Some(val()?.parse()?),
            "--backoff-base" => f.backoff_base = val()?.parse()?,
            "--poll-ms" => f.poll_ms = val()?.parse()?,
            "--drain" => f.drain = true,
            "--max-moves" => f.max_moves = val()?.parse()?,
            "--fault-crash-at" => f.fault_crash_at = Some(val()?.clone()),
            "--fault-torn-write" => f.fault_torn_write = Some(val()?.parse()?),
            "--fault-disk-full" => f.fault_disk_full = Some(val()?.parse()?),
            _ => return Err(format!("unknown flag {a}").into()),
        }
    }
    Ok(f)
}

/// The observability bundle built from the CLI flags: a [`Tee`] fanning
/// events out to the JSONL trace file (`--trace-out`, Trace level), the
/// metrics accumulator (`--metrics-out` or `-v`), and a human-readable
/// stderr sink (`-v` Info, `-vv` Trace). When no observability flag is
/// set the tee is empty and recording is a no-op.
struct Obs {
    recorder: Arc<dyn Recorder>,
    jsonl: Option<Arc<JsonlRecorder>>,
    metrics: Option<Arc<MetricsRecorder>>,
    profile: Option<Arc<ProfileRecorder>>,
    t0: Instant,
}

impl Obs {
    /// Whether any observability flag was given.
    fn active(f: &Flags) -> bool {
        f.verbose > 0
            || f.trace_out.is_some()
            || f.metrics_out.is_some()
            || f.profile_out.is_some()
    }

    fn from_flags(f: &Flags) -> Result<Obs, Box<dyn Error>> {
        let mut tee = Tee::new();
        let mut jsonl = None;
        if let Some(path) = &f.trace_out {
            // Atomic: the trace streams to `<path>.tmp` and only the
            // commit in `finish` publishes it — a killed run never
            // leaves a partial trace at the final path.
            let r = Arc::new(
                JsonlRecorder::create_atomic(path)
                    .map_err(|e| format!("cannot create trace file {path}: {e}"))?,
            );
            jsonl = Some(Arc::clone(&r));
            tee = tee.with(r);
        }
        let mut metrics = None;
        if f.metrics_out.is_some() || f.verbose > 0 {
            let m = Arc::new(MetricsRecorder::new());
            tee = tee.with(Arc::clone(&m) as Arc<dyn Recorder>);
            metrics = Some(m);
        }
        let mut profile = None;
        if f.profile_out.is_some() {
            let p = Arc::new(ProfileRecorder::new());
            tee = tee.with(Arc::clone(&p) as Arc<dyn Recorder>);
            profile = Some(p);
        }
        if f.verbose > 0 {
            let max = if f.verbose >= 2 {
                Level::Trace
            } else {
                Level::Info
            };
            tee = tee.with(Arc::new(StderrRecorder::new(max)));
        }
        Ok(Obs {
            recorder: Arc::new(tee),
            jsonl,
            metrics,
            profile,
            t0: Instant::now(),
        })
    }

    /// Flushes the trace file and writes/prints the metrics snapshot.
    /// `extra` carries per-command metadata (runs, tasks, …); wall time
    /// lands in the snapshot's `timing` section, keeping the rest of
    /// the file deterministic for a fixed seed.
    fn finish(
        &self,
        f: &Flags,
        cmd: &str,
        file: &str,
        extra: &[(&str, String)],
    ) -> Result<(), Box<dyn Error>> {
        if let Some(j) = &self.jsonl {
            j.commit()?;
        }
        if let Some(p) = &self.profile {
            let prof = p.profile();
            if let Some(out) = &f.profile_out {
                atomic_write(Path::new(out), prof.to_json().as_bytes(), &Injector::none())?;
                eprintln!("profile written to {out}");
            }
            if f.verbose > 0 {
                eprintln!("{}", profile_table("span profile", &prof));
            }
        }
        if let Some(m) = &self.metrics {
            let mut snap = m.snapshot();
            snap.set_meta("cmd", cmd);
            snap.set_meta("file", file);
            snap.set_meta("seed", f.seed.to_string());
            snap.set_meta("jobs", f.jobs.to_string());
            for (k, v) in extra {
                snap.set_meta(k, v.clone());
            }
            snap.set_timing("wall_ms", self.t0.elapsed().as_millis() as u64);
            if let Some(out) = &f.metrics_out {
                atomic_write(Path::new(out), snap.to_json().as_bytes(), &Injector::none())?;
                eprintln!("metrics written to {out}");
            }
            if f.verbose > 0 {
                eprintln!("{}", metrics_table("run metrics", &snap));
            }
        }
        Ok(())
    }
}

/// Exit code for a rejected (or unparseable) certificate.
const EXIT_CERTIFICATE_VIOLATION: i32 = 6;

/// A certificate `netpart verify` could not parse or refused to accept;
/// mapped to [`EXIT_CERTIFICATE_VIOLATION`] in `main`.
#[derive(Debug)]
struct CertificateViolation(String);

impl std::fmt::Display for CertificateViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for CertificateViolation {}

/// Serializes a solution certificate next to the run that produced it.
/// `cert` is `None` when the winning run exported no placement (plain
/// FM without an exported placement has nothing to certify).
fn write_certificate(
    cert: Option<SolutionCertificate>,
    out: &str,
    source: &str,
) -> Result<(), Box<dyn Error>> {
    let cert = cert.ok_or("nothing to certify: the winning run exported no placement")?;
    atomic_write(
        Path::new(out),
        cert.with_source(source).to_text().as_bytes(),
        &Injector::none(),
    )?;
    println!("certificate written to {out}");
    Ok(())
}

fn budget_of(f: &Flags) -> Budget {
    match f.budget_ms {
        Some(ms) => Budget::wall_ms(ms),
        None => Budget::none(),
    }
}

fn load(path: &str) -> Result<(Netlist, Hypergraph), Box<dyn Error>> {
    let text = std::fs::read_to_string(path)?;
    let nl = parse_blif(&text)?;
    nl.validate()?;
    // Decompose anything wider than a 5-input LUT before mapping.
    let nl = decompose_wide_gates(&nl, 5);
    let hg = map(&nl, &MapperConfig::xc3000())?.to_hypergraph(&nl);
    Ok((nl, hg))
}

/// The multilevel configuration requested on the command line, if any.
/// `--max-levels` and `--coarsen-ratio` imply `--multilevel`.
fn ml_of(f: &Flags) -> Option<MultilevelConfig> {
    if !f.multilevel && f.max_levels.is_none() && f.coarsen_ratio.is_none() {
        return None;
    }
    let mut ml = MultilevelConfig::new();
    if let Some(n) = f.max_levels {
        ml = ml.with_max_levels(n);
    }
    if let Some(r) = f.coarsen_ratio {
        ml = ml.with_coarsen_ratio(r);
    }
    Some(ml)
}

/// Resolves a `--board` argument: one of the builtin topologies by
/// name, else a `.board` file path. Parse failures carry the offending
/// line number and exit 1 like BLIF parse errors.
fn load_board(spec: &str) -> Result<Board, Box<dyn Error>> {
    match spec {
        "direct2" => Ok(Board::direct2()),
        "mesh2x2" => Ok(Board::mesh2x2()),
        "star8" => Ok(Board::star(8)),
        path => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read board {path}: {e}"))?;
            parse_board(&text).map_err(|e| format!("{path}: {e}").into())
        }
    }
}

/// Routes the winning placement's cut nets over the `--board` topology:
/// prints the objective line to stdout (deterministic — a pure function
/// of the placement), emits `board.*` events into `recorder`, and
/// returns the claim bundle to embed in the certificate.
fn route_board(
    spec: &str,
    hg: &Hypergraph,
    placement: &Placement,
    recorder: &dyn Recorder,
) -> Result<(BoardClaim, u64, u64), Box<dyn Error>> {
    let board = load_board(spec)?;
    recorder.record(
        &Event::new("board", "loaded", Level::Info)
            .field("name", board.name().to_string())
            .field("sites", board.n_sites())
            .field("channels", board.n_channels())
            .field("digest", format!("{:016x}", board.digest())),
    );
    let demands = board_demands(hg, placement, &board).map_err(|e| -> Box<dyn Error> {
        match &e {
            // More occupied parts than sites is the caller asking for a
            // mapping that cannot exist: invalid input, exit 2.
            BoardError::SitesExceeded { .. } => {
                Box::new(PartitionError::invalid_input(e.to_string()))
            }
            _ => Box::new(e),
        }
    })?;
    let routing = route_nets(&board, &demands)?;
    let objective = TopologyObjective::evaluate(&board, &routing);
    println!("board {}: {objective}", board.name());
    recorder.record(
        &Event::new("board", "routed", Level::Info)
            .field("nets", objective.routed_nets)
            .field("hops", objective.hops)
            .field("congestion", objective.congestion)
            .field("overflow_channels", objective.overflowed_channels),
    );
    let claim = board_claim(&board, &routing);
    Ok((claim, routing.hops, routing.congestion))
}

/// Attaches a routed board claim to a certificate, when both exist.
fn attach_board(
    cert: Option<SolutionCertificate>,
    board: Option<(BoardClaim, u64, u64)>,
) -> Option<SolutionCertificate> {
    match (cert, board) {
        (Some(c), Some((claim, hops, congestion))) => Some(c.with_board(claim, hops, congestion)),
        (c, _) => c,
    }
}

fn mode_of(f: &Flags) -> Result<ReplicationMode, Box<dyn Error>> {
    Ok(match f.replication.as_str() {
        "none" => ReplicationMode::None,
        "traditional" => ReplicationMode::Traditional,
        "functional" => ReplicationMode::functional(f.threshold),
        other => return Err(format!("unknown replication mode {other:?}").into()),
    })
}

/// Prints a degradation notice to stderr when the result deviates from
/// what was requested; degraded results still exit 0.
fn note_degradation(d: &Degradation) {
    if d.is_degraded() {
        eprintln!("note: {d}");
    }
}

/// Prints the per-worker portfolio statistics to stderr (stderr so that
/// stdout stays byte-identical across `--jobs` levels — wall times are
/// not deterministic).
fn note_workers(workers: &[WorkerStats]) {
    let rows: Vec<WorkerRow> = workers
        .iter()
        .map(|w| WorkerRow {
            worker: w.worker,
            starts: w.starts,
            passes: w.passes,
            moves: w.moves,
            wall_ms: w.wall_ms,
            cutoff_hits: w.cutoff_hits,
        })
        .collect();
    eprintln!("{}", worker_table("portfolio workers", &rows));
}

fn cmd_stats(path: &str) -> Result<(), Box<dyn Error>> {
    let (nl, hg) = load(path)?;
    let s = hg.stats();
    println!("model {}", nl.name());
    println!(
        "gates {} (dff {}), PIs {}, POs {}",
        nl.n_gates(),
        nl.n_dffs(),
        nl.primary_inputs().len(),
        nl.primary_outputs().len()
    );
    println!(
        "mapped: {} CLBs, {} IOBs, {} nets, {} pins",
        s.clbs, s.iobs, s.nets, s.pins
    );
    let dist = hg.replication_potential_distribution();
    let total: usize = dist.iter().sum();
    print!("replication potential ψ distribution:");
    for (psi, n) in dist.iter().enumerate() {
        if *n > 0 {
            print!(" ψ={psi}:{:.1}%", 100.0 * *n as f64 / total as f64);
        }
    }
    println!();
    Ok(())
}

fn cmd_bipartition(path: &str, f: &Flags) -> Result<(), Box<dyn Error>> {
    if !(0.0..=1.0).contains(&f.epsilon) {
        return Err(format!("--epsilon must be within [0, 1], got {}", f.epsilon).into());
    }
    let (_, hg) = load(path)?;
    let cfg = BipartitionConfig::equal(&hg, f.epsilon)
        .with_seed(f.seed)
        .with_replication(mode_of(f)?)
        .with_budget(budget_of(f));
    let runs = f.runs.max(1);
    let obs = Obs::from_flags(f)?;
    let engine = Engine::new(f.jobs)
        .with_multilevel(ml_of(f))
        .with_recorder(Arc::clone(&obs.recorder));
    let (stats, _) = engine.bipartition_many(&hg, &cfg, runs)?;
    note_degradation(&stats.degradation);
    println!(
        "{} runs: best cut {}, avg cut {:.1}, avg replicated cells {:.1}",
        stats.results.len(),
        stats.best_cut(),
        stats.avg_cut(),
        stats.avg_replicated()
    );
    let best = stats.best();
    println!(
        "best run: areas {:?}, {} passes, balanced: {}, stop: {}",
        best.areas, best.passes, best.balanced, best.stop
    );
    // Post-portfolio polish: refine the winner in place with the
    // deterministic parallel refiner, then certify the refined
    // solution. Skipped (with a note) when the winner replicates.
    let mut refined = None;
    if f.par_refine {
        let mut b = best.clone();
        match engine.par_refine(&hg, &cfg, &mut b) {
            Some(out) => {
                println!(
                    "par-refine: cut {} -> {} ({} committed over {} rounds)",
                    out.cut_before, out.cut_after, out.committed, out.rounds
                );
                refined = Some(b);
            }
            None => println!("par-refine: skipped (winner has replicas)"),
        }
    }
    note_workers(&stats.workers);
    let mut routed = None;
    if let Some(spec) = &f.board {
        let placement = match &refined {
            Some(b) => b.placement.as_ref(),
            None => best.placement.as_ref(),
        }
        .ok_or("nothing to route: the winning run exported no placement")?;
        routed = Some(route_board(spec, &hg, placement, obs.recorder.as_ref())?);
    }
    if let Some(out) = &f.certify_out {
        let cert = match &refined {
            Some(b) => b.certificate(&hg, cfg.seed.wrapping_add(stats.best_start() as u64)),
            None => stats.certificate(&hg, &cfg),
        };
        write_certificate(attach_board(cert, routed), out, path)?;
    }
    obs.finish(f, "bipartition", path, &[("runs", runs.to_string())])
}

fn cmd_kway(path: &str, f: &Flags) -> Result<(), Box<dyn Error>> {
    let (_, hg) = load(path)?;
    let lib = DeviceLibrary::xc3000();
    let mut cfg = KWayConfig::new(lib.clone())
        .with_candidates(f.candidates)
        .with_seed(f.seed)
        .with_max_passes(8)
        .with_budget(budget_of(f))
        .with_replication(match mode_of(f)? {
            ReplicationMode::Traditional => {
                return Err("k-way does not support traditional replication".into())
            }
            m => m,
        });
    if let Some(n) = f.max_attempts {
        cfg = cfg.with_max_attempts(n);
    }
    let obs = Obs::from_flags(f)?;
    // The task count is fixed independently of --jobs, which is what
    // makes the reduction jobs-invariant.
    let engine = Engine::new(f.jobs)
        .with_multilevel(ml_of(f))
        .with_recorder(Arc::clone(&obs.recorder));
    let (pres, _) = engine.kway(&hg, &cfg, f.tasks)?;
    eprintln!(
        "portfolio: task {} of {} won ({} feasible{})",
        pres.winner,
        pres.tasks,
        pres.feasible_tasks,
        if pres.rescued { ", rescued" } else { "" }
    );
    note_workers(&pres.workers);
    let mut res = pres.result.clone();
    note_degradation(&res.degradation);
    if f.refine {
        // Judge against the library the winner was carved under, which
        // is also the one its certificate embeds.
        let eff = res.effective_library(&lib);
        let n = unreplicate_cleanup(&hg, &mut res.placement, &res.devices, &eff);
        let st = refine_kway(&hg, &mut res.placement, &res.devices, &eff, 4);
        println!(
            "refinement: {} moves, {} unreplications, Σt {} → {}",
            st.moves, n, st.terminals_before, st.terminals_after
        );
        res.evaluation = evaluate(&hg, &res.placement, &eff, &res.devices);
    }
    println!(
        "k = {}, total cost = {}, avg CLB util {:.0}%, avg IOB util {:.0}%",
        res.devices.len(),
        res.evaluation.total_cost,
        100.0 * res.evaluation.avg_clb_util,
        100.0 * res.evaluation.avg_iob_util
    );
    for part in &res.evaluation.parts {
        println!(
            "  part {}: {:8} {:5} CLBs ({:3.0}%), {:4} IOBs ({:3.0}%)",
            part.part,
            lib.device(part.device).name(),
            part.clbs,
            100.0 * part.clb_util,
            part.terminals,
            100.0 * part.iob_util
        );
    }
    let mut routed = None;
    if let Some(spec) = &f.board {
        routed = Some(route_board(spec, &hg, &res.placement, obs.recorder.as_ref())?);
    }
    if let Some(out) = &f.assign {
        let mut csv = String::from("cell,part,outputs_mask\n");
        for c in hg.cell_ids() {
            for copy in res.placement.copies(c) {
                let _ = writeln!(
                    csv,
                    "{},{},{:#b}",
                    hg.cell(c).name(),
                    copy.part.0,
                    copy.outputs
                );
            }
        }
        std::fs::write(out, csv)?;
        println!("assignment written to {out}");
    }
    if let Some(out) = &f.certify_out {
        let seed = cfg.seed.wrapping_add(pres.winner as u64);
        let cert = Some(res.certificate(&hg, &lib, seed));
        write_certificate(attach_board(cert, routed), out, path)?;
    }
    obs.finish(f, "kway", path, &[("tasks", f.tasks.to_string())])
}

/// `netpart verify <cert>`: re-checks a solution certificate with the
/// independent oracle. The netlist comes from `--netlist` or the
/// `source` path recorded in the certificate. Any violation — including
/// a certificate that does not parse — exits
/// [`EXIT_CERTIFICATE_VIOLATION`].
fn cmd_verify(cert_path: &str, f: &Flags) -> Result<(), Box<dyn Error>> {
    let text = std::fs::read_to_string(cert_path)
        .map_err(|e| format!("cannot read certificate {cert_path}: {e}"))?;
    let cert = SolutionCertificate::parse(&text).map_err(|e| {
        Box::new(CertificateViolation(format!(
            "malformed certificate {cert_path}: {e}"
        ))) as Box<dyn Error>
    })?;
    let netlist_path = f
        .netlist
        .clone()
        .or_else(|| cert.source.clone())
        .ok_or("certificate records no source netlist; pass --netlist <file.blif>")?;
    let (_, hg) = load(&netlist_path)?;
    let report = verify(&hg, &cert);
    let obs = if Obs::active(f) {
        Some(Obs::from_flags(f)?)
    } else {
        None
    };
    if let Some(obs) = &obs {
        obs.recorder.record(
            &Event::new("verify", "report", Level::Info)
                .field("violations", report.violations().len())
                .field("clean", report.is_clean())
                .field("cut", report.recomputed().cut),
        );
    }
    println!("{report}");
    if !report.is_clean() {
        let rows: Vec<(String, String)> = report
            .violations()
            .iter()
            .map(|v| (v.code().to_string(), v.to_string()))
            .collect();
        eprintln!("{}", violation_table("certificate violations", &rows));
    }
    if let Some(obs) = &obs {
        obs.finish(f, "verify", &netlist_path, &[("cert", cert_path.to_string())])?;
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(Box::new(CertificateViolation(format!(
            "certificate {cert_path} rejected with {} violation(s)",
            report.violations().len()
        ))))
    }
}

/// Exit code for a submission refused by queue backpressure.
const EXIT_QUEUE_FULL: i32 = 7;

/// A submission the spool refused because the queue is at capacity;
/// mapped to [`EXIT_QUEUE_FULL`] in `main`.
#[derive(Debug)]
struct QueueFull(String);

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for QueueFull {}

/// `netpart serve <spool>`: the durable partitioning service. Runs
/// until drained (`--drain`, or a `drain` sentinel file dropped into
/// the spool). Crash recovery is automatic on startup: the journal is
/// replayed, a torn tail is truncated, interrupted jobs re-run.
fn cmd_serve(spool: &str, f: &Flags) -> Result<(), Box<dyn Error>> {
    let obs = Obs::from_flags(f)?;
    let mut fault = FaultPlan::none();
    if let Some(label) = &f.fault_crash_at {
        fault = fault.crash_after(label.clone());
    }
    if let Some(n) = f.fault_torn_write {
        fault = fault.torn_write(n);
    }
    if let Some(n) = f.fault_disk_full {
        fault = fault.disk_full(n);
    }
    let cfg = ServeConfig {
        jobs: f.jobs,
        max_queue: f.max_queue,
        max_retries: f.max_retries.unwrap_or(3),
        backoff_base: f.backoff_base,
        poll_ms: f.poll_ms,
        drain: f.drain,
        seed: f.seed,
        default_budget_ms: f.budget_ms,
        fault,
        // Injected crashes die for real: `kill -9` semantics.
        crash_mode: CrashMode::Abort,
    };
    let mut server = Server::open(Path::new(spool), cfg, Some(Arc::clone(&obs.recorder)))?;
    let report = server.run()?;
    println!(
        "serve: {} rounds, {} attempts, {} done ({} cache hits), {} failed, {} quarantined{}",
        report.rounds,
        report.executed,
        report.done,
        report.cache_hits,
        report.failed,
        report.quarantined,
        if report.drained { ", drained" } else { "" }
    );
    if report.recovered_interrupted > 0 || report.recovered_torn_tail {
        eprintln!(
            "recovery: {} interrupted job(s) re-run{}",
            report.recovered_interrupted,
            if report.recovered_torn_tail {
                ", torn journal tail truncated"
            } else {
                ""
            }
        );
    }
    obs.finish(
        f,
        "serve",
        spool,
        &[
            ("done", report.done.to_string()),
            ("quarantined", report.quarantined.to_string()),
        ],
    )?;
    Ok(())
}

/// `netpart submit <spool> <file.blif>`: drops a job into the spool.
/// Exits [`EXIT_QUEUE_FULL`] when backpressure refuses it.
fn cmd_submit(spool: &str, blif_path: &str, f: &Flags) -> Result<(), Box<dyn Error>> {
    let id = match &f.id {
        Some(id) => id.clone(),
        None => Path::new(blif_path)
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| format!("cannot derive a job id from {blif_path}; pass --id"))?
            .to_string(),
    };
    let blif = std::fs::read_to_string(blif_path)
        .map_err(|e| format!("cannot read netlist {blif_path}: {e}"))?;
    let spec = JobSpec {
        cmd: match f.cmd.as_str() {
            "bipartition" => JobCmd::Bipartition,
            "kway" => JobCmd::Kway,
            other => return Err(format!("unknown --cmd {other:?}").into()),
        },
        netlist: String::new(), // submit_job rewrites to the spool copy
        seed: f.seed,
        runs: f.runs.max(1),
        epsilon: f.epsilon,
        candidates: f.candidates.max(1),
        tasks: f.tasks,
        replication: mode_of(f)?,
        budget_ms: f.budget_ms.unwrap_or(0),
        max_moves: f.max_moves,
        max_retries: f.max_retries,
    };
    match submit_job(Path::new(spool), &id, &blif, &spec, f.max_queue)? {
        SubmitOutcome::Submitted { job } => {
            println!("submitted {job} to {spool}");
            Ok(())
        }
        SubmitOutcome::QueueFull { open, max } => Err(Box::new(QueueFull(format!(
            "queue full: {open} open job(s) ≥ capacity {max}; resubmit later"
        )))),
    }
}

/// `netpart queue <spool>`: prints the folded journal state per job.
fn cmd_queue(spool: &str) -> Result<(), Box<dyn Error>> {
    let spool = Path::new(spool);
    let replay = Wal::replay_readonly(&spool.join("journal.wal"))?;
    let queue = QueueState::replay(replay.records.iter().map(|(_, r)| r));
    println!("{} journal record(s), {} open job(s)", replay.records.len(), queue.open_count());
    if replay.torn_tail {
        println!("warning: torn journal tail ({} byte(s) pending truncation by the server)", replay.truncated_bytes);
    }
    for e in queue.jobs() {
        let state = match &e.state {
            JobState::Pending if e.interrupted => "interrupted".to_string(),
            JobState::Pending => "pending".to_string(),
            JobState::Done { cached, .. } => {
                format!("done{}", if *cached { " (cached)" } else { "" })
            }
            JobState::Quarantined { .. } => "quarantined".to_string(),
        };
        let err = match (&e.state, &e.last_error) {
            (JobState::Quarantined { msg, .. }, _) => format!("  [{msg}]"),
            (_, Some((code, msg))) => format!("  [exit {code}: {msg}]"),
            _ => String::new(),
        };
        println!(
            "  {:<24} {:<12} attempts {}{}",
            e.job,
            state,
            e.attempts,
            err.replace('\n', " ")
        );
    }
    Ok(())
}

/// A trace that failed schema validation or a determinism diff that
/// found a divergence; carries the exit code `main` should use.
#[derive(Debug)]
struct TraceTrouble(String, i32);

impl std::fmt::Display for TraceTrouble {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for TraceTrouble {}

/// `netpart trace <summarize|validate|diff>`: native tooling over
/// `--trace-out` JSONL documents.
///
/// * `validate` checks every line against the event schema (key order,
///   levels, kinds, flat fields, timing-last, span balance) and exits
///   `2` listing the violations;
/// * `summarize` prints per-scope event, counter and span tables;
/// * `diff` compares two traces after stripping scheduling timing —
///   the determinism contract check — and exits `1` at the first
///   divergent line.
fn cmd_trace(args: &[String]) -> Result<(), Box<dyn Error>> {
    let read = |path: &String| -> Result<String, Box<dyn Error>> {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace {path}: {e}").into())
    };
    match args {
        [sub, path] if sub == "validate" => {
            let scan = scan_trace(&read(path)?);
            if scan.is_valid() {
                println!(
                    "ok: {} line(s), {} span label(s), no schema violations",
                    scan.summary.lines,
                    scan.summary.spans.len()
                );
                Ok(())
            } else {
                for e in &scan.errors {
                    eprintln!("{path}: {e}");
                }
                Err(Box::new(TraceTrouble(
                    format!("{path}: {} schema violation(s)", scan.errors.len()),
                    2,
                )))
            }
        }
        [sub, path] if sub == "summarize" => {
            let scan = scan_trace(&read(path)?);
            let s = &scan.summary;
            let by_level: Vec<String> = s
                .levels
                .iter()
                .map(|(level, n)| format!("{n} {level}"))
                .collect();
            println!("{path}: {} line(s) ({})", s.lines, by_level.join(", "));
            let mut events = Table::new("events", &["Event", "Count"]);
            for (k, n) in &s.events {
                events.row([k.clone(), n.to_string()]);
            }
            println!("{events}");
            if !s.counters.is_empty() {
                let mut counters = Table::new("counters", &["Counter", "Total"]);
                for (k, n) in &s.counters {
                    counters.row([k.clone(), n.to_string()]);
                }
                println!("{counters}");
            }
            if !s.spans.is_empty() {
                let mut spans = Table::new("spans", &["Span", "Count", "Total (ms)"]);
                for (k, agg) in &s.spans {
                    spans.row([
                        k.clone(),
                        agg.count.to_string(),
                        format!("{:.1}", agg.total_us as f64 / 1000.0),
                    ]);
                }
                println!("{spans}");
            }
            if !scan.errors.is_empty() {
                eprintln!(
                    "warning: {} schema violation(s); run `netpart trace validate {path}`",
                    scan.errors.len()
                );
            }
            Ok(())
        }
        [sub, a, b] if sub == "diff" => match diff_stripped(&read(a)?, &read(b)?) {
            None => {
                println!("identical after timing strip");
                Ok(())
            }
            Some(d) => {
                eprintln!("stripped traces diverge at line {}:", d.line);
                eprintln!("  {a}: {}", d.left.as_deref().unwrap_or("<end of trace>"));
                eprintln!("  {b}: {}", d.right.as_deref().unwrap_or("<end of trace>"));
                Err(Box::new(TraceTrouble(
                    format!("traces diverge at stripped line {}", d.line),
                    1,
                )))
            }
        },
        _ => usage(),
    }
}

/// `netpart serve-status <spool>`: renders the service's latest
/// `metrics.prom` exposition — counters, gauges and latency-histogram
/// quantiles — as tables. The file is rewritten atomically by the
/// server after every scheduler round that changed a metric, so this
/// reads a consistent snapshot of a live service.
fn cmd_serve_status(spool: &str) -> Result<(), Box<dyn Error>> {
    if !Path::new(spool).is_dir() {
        return Err(format!("no spool at {spool} (has the server run in this spool?)").into());
    }
    let path = Path::new(spool).join("metrics.prom");
    // A spool exists but holds no exposition yet: the server simply has
    // not completed a scheduler round. That is a normal state of a
    // fresh service, not an error.
    if !path.exists() {
        println!(
            "no metrics snapshots yet in {spool} (the server writes {} after its first round)",
            path.display()
        );
        return Ok(());
    }
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let prom = parse_prometheus(&text)?;
    let mut t = Table::new(format!("service metrics ({spool})"), &["Metric", "Kind", "Value"]);
    for (name, ty) in &prom.types {
        match ty.as_str() {
            "histogram" => {
                let cum = prom.cumulative(name);
                let count = prom.value(&format!("{name}_count")).unwrap_or(0.0);
                let sum = prom.value(&format!("{name}_sum")).unwrap_or(0.0);
                t.row([name.clone(), "hist count".into(), format!("{count}")]);
                t.row([name.clone(), "hist sum".into(), format!("{sum}")]);
                for q in [0.5, 0.9, 0.99] {
                    let v = match quantile_of(&cum, q) {
                        Some(QuantileBound::Finite(ms)) => format!("<= {ms} ms"),
                        Some(QuantileBound::Overflow) => "+Inf".into(),
                        None => "-".into(),
                    };
                    t.row([name.clone(), format!("p{:.0}", q * 100.0), v]);
                }
            }
            _ => {
                let v = prom
                    .value(name)
                    .map(|v| format!("{v}"))
                    .unwrap_or_else(|| "-".into());
                t.row([name.clone(), ty.clone(), v]);
            }
        }
    }
    println!("{t}");
    Ok(())
}

fn cmd_synth(gates: &str, out: Option<&String>, f: &Flags) -> Result<(), Box<dyn Error>> {
    let gates: usize = gates.parse()?;
    let mut cfg = GeneratorConfig::new(gates).with_dff(f.dff).with_seed(f.seed);
    if let Some(p) = f.rent {
        cfg = cfg.with_rent(p);
    }
    let nl = generate(&cfg);
    let text = write_blif(&nl);
    match out {
        Some(path) => {
            std::fs::write(path, text)?;
            println!("wrote {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        usage();
    }
    // `trace` and `serve-status` take only positionals — dispatch them
    // before the flag parser can trip over the file arguments.
    match args[0].as_str() {
        "trace" => exit_with(cmd_trace(&args[1..])),
        "serve-status" => exit_with(cmd_serve_status(&args[1])),
        _ => {}
    }
    // `synth` takes an optional positional output path before the
    // flags; `submit` takes the netlist as a second positional.
    let synth_out = (args[0] == "synth" && args.len() >= 3 && !args[2].starts_with('-'))
        .then(|| args[2].clone());
    let flag_start = if synth_out.is_some() || (args[0] == "submit" && args.len() >= 3) {
        3
    } else {
        2
    };
    let flags = match parse_flags(&args[flag_start..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
        }
    };
    let result = match args[0].as_str() {
        "stats" => cmd_stats(&args[1]),
        "bipartition" => cmd_bipartition(&args[1], &flags),
        "kway" => cmd_kway(&args[1], &flags),
        "verify" => cmd_verify(&args[1], &flags),
        "serve" => cmd_serve(&args[1], &flags),
        "submit" => {
            if args.len() < 3 {
                usage();
            }
            cmd_submit(&args[1], &args[2], &flags)
        }
        "queue" => cmd_queue(&args[1]),
        "synth" => cmd_synth(&args[1], synth_out.as_ref(), &flags),
        _ => {
            usage();
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(exit_code_of(e.as_ref()));
    }
}

/// Maps an error to the pinned exit-code table.
fn exit_code_of(e: &(dyn Error + 'static)) -> i32 {
    if e.is::<CertificateViolation>() {
        EXIT_CERTIFICATE_VIOLATION
    } else if e.is::<QueueFull>() {
        EXIT_QUEUE_FULL
    } else if let Some(t) = e.downcast_ref::<TraceTrouble>() {
        t.1
    } else if let Some(se) = e.downcast_ref::<ServeError>() {
        match se {
            ServeError::Partition(pe) => pe.exit_code(),
            _ => 1,
        }
    } else {
        e.downcast_ref::<PartitionError>()
            .map_or(1, PartitionError::exit_code)
    }
}

/// Terminates with the result's mapped exit code (for the subcommands
/// dispatched before flag parsing).
fn exit_with(result: Result<(), Box<dyn Error>>) -> ! {
    match result {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(exit_code_of(e.as_ref()));
        }
    }
}
