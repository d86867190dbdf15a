//! The serve loop: admission, scheduling, execution, recovery.
//!
//! One [`Server`] owns a spool directory exclusively (single-writer
//! journal). Its life is a sequence of *rounds*; each round admits
//! newly dropped job files, then executes every eligible pending job in
//! job-id order. All parallelism lives inside the engine (`jobs`
//! worker threads per partitioning request), which keeps the service
//! layer deterministic: for a fixed spool content and seed, the journal
//! the server writes is identical run after run.
//!
//! Crash safety is a strict write ordering, applied everywhere:
//!
//! 1. artifacts first (atomic temp + rename),
//! 2. then the journal record that makes them authoritative,
//!
//! so a crash between the two re-runs the job — which, by engine
//! determinism, overwrites the artifacts with identical bytes rather
//! than double-completing. The recovery matrix in
//! `crates/serve/tests/recovery_matrix.rs` drives an injected crash
//! after every journal transition and checks exactly this invariant.
//!
//! Shutdown is cooperative: dropping a `drain` sentinel file into the
//! spool makes the server finish the job in flight, journal nothing
//! more, and return. (A std-only binary cannot trap signals; `kill -9`
//! is *also* a supported shutdown path — that is the entire point of
//! the journal.)

use crate::cache::{CacheEntry, CacheLookup, DiskCache};
use crate::fsio::{atomic_write, CrashMode, Injector};
use crate::job::{file_fnv, valid_job_id, JobCmd, JobSpec};
use crate::queue::{backoff_rounds, JobState, QueueState};
use crate::wal::{Recovery, Wal, WalRecord};
use crate::ServeError;
use netpart_core::PartitionError;
use netpart_engine::Engine;
use netpart_fpga::DeviceLibrary;
use netpart_hypergraph::Hypergraph;
use netpart_netlist::parse_blif;
use netpart_obs::{Event, Level, MetricsRegistry, NoopRecorder, Recorder, Span, Tee, TIMING_SCOPE};
use netpart_rng::Fnv1a;
use netpart_techmap::{decompose_wide_gates, map, MapperConfig};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Serve-loop configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Engine worker threads per partitioning request.
    pub jobs: usize,
    /// Queue capacity: submissions beyond this many open jobs are
    /// refused (backpressure).
    pub max_queue: usize,
    /// Attempts a job may consume before quarantine (specs may lower
    /// or raise their own allowance with `max-retries`).
    pub max_retries: u32,
    /// Base retry backoff in scheduler rounds (0 disables backoff).
    pub backoff_base: u64,
    /// Idle-round sleep in milliseconds (watch mode only).
    pub poll_ms: u64,
    /// Batch mode: return once no pending work remains instead of
    /// watching for new job files.
    pub drain: bool,
    /// Seed for backoff jitter.
    pub seed: u64,
    /// Default wall budget applied to specs that request none
    /// (`None` = unlimited).
    pub default_budget_ms: Option<u64>,
    /// Fault-injection plan (crash points, torn writes, disk-full).
    pub fault: netpart_core::FaultPlan,
    /// How injected crashes are realized.
    pub crash_mode: CrashMode,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            jobs: 1,
            max_queue: 64,
            max_retries: 3,
            backoff_base: 2,
            poll_ms: 50,
            drain: false,
            seed: 1,
            default_budget_ms: None,
            fault: netpart_core::FaultPlan::none(),
            crash_mode: CrashMode::Abort,
        }
    }
}

/// What one `run()` accomplished.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Scheduling rounds executed.
    pub rounds: u64,
    /// Attempts executed (engine runs + cache replays).
    pub executed: u64,
    /// Jobs completed over the server's lifetime (includes completions
    /// recovered from the journal).
    pub done: usize,
    /// Completions served from the disk cache by this process.
    pub cache_hits: u64,
    /// Cache entries evicted as corrupt by this process.
    pub cache_evictions: u64,
    /// Failed attempts journaled by this process.
    pub failed: u64,
    /// Jobs in quarantine (lifetime, like `done`).
    pub quarantined: usize,
    /// Pending jobs found mid-attempt at startup (crash evidence).
    pub recovered_interrupted: usize,
    /// Whether recovery truncated a torn journal tail.
    pub recovered_torn_tail: bool,
    /// Whether a drain sentinel stopped the loop.
    pub drained: bool,
}

/// Outcome of a submission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The job file is durable in the spool; the server will admit it.
    Submitted {
        /// The job id.
        job: String,
    },
    /// The queue is at capacity; nothing was written. Resubmit later.
    QueueFull {
        /// Open (pending or not-yet-admitted) jobs counted.
        open: usize,
        /// The capacity that was exceeded.
        max: usize,
    },
}

/// Drops a job into `spool` for the server to pick up: copies the
/// netlist to `jobs/<id>.blif`, then writes the checksummed spec to
/// `jobs/<id>.job` (both atomically; the spec lands last because its
/// appearance is what triggers admission). Refuses duplicates, specs
/// the server would quarantine and — counting open journal jobs plus
/// job files awaiting admission — submissions beyond `max_queue`.
///
/// This function never touches the journal: the server is its single
/// writer, which is what makes concurrent submitters safe.
///
/// # Errors
///
/// Invalid ids, duplicate ids and spool I/O failures; a spec whose text
/// [`JobSpec::parse`] rejects is [`PartitionError::InvalidInput`], and
/// nothing is written for it.
pub fn submit_job(
    spool: &Path,
    id: &str,
    blif: &str,
    spec: &JobSpec,
    max_queue: usize,
) -> Result<SubmitOutcome, ServeError> {
    if !valid_job_id(id) {
        return Err(ServeError::io(format!(
            "invalid job id {id:?} (want [A-Za-z0-9._-], no leading dot)"
        )));
    }
    let mut spec = spec.clone();
    spec.netlist = format!("jobs/{id}.blif");
    let text = spec.to_text();
    JobSpec::parse(&text)?;
    let jobs_dir = spool.join("jobs");
    std::fs::create_dir_all(&jobs_dir)
        .map_err(|e| ServeError::io(format!("create {}: {e}", jobs_dir.display())))?;
    let spec_path = jobs_dir.join(format!("{id}.job"));
    let replay = Wal::replay_readonly(&spool.join("journal.wal"))?;
    let queue = QueueState::replay(replay.records.iter().map(|(_, r)| r));
    if spec_path.exists() || queue.is_known(id) {
        return Err(ServeError::io(format!("job id {id:?} already exists")));
    }
    let unadmitted = list_job_files(&jobs_dir)?
        .iter()
        .filter(|j| !queue.is_known(j))
        .count();
    let open = queue.open_count() + unadmitted;
    if open >= max_queue {
        return Ok(SubmitOutcome::QueueFull {
            open,
            max: max_queue,
        });
    }
    let inj = Injector::none();
    atomic_write(&jobs_dir.join(format!("{id}.blif")), blif.as_bytes(), &inj)?;
    atomic_write(&spec_path, text.as_bytes(), &inj)?;
    Ok(SubmitOutcome::Submitted {
        job: id.to_string(),
    })
}

/// The `.job` file stems under `dir`, sorted (the admission order).
fn list_job_files(dir: &Path) -> Result<Vec<String>, ServeError> {
    let mut out = Vec::new();
    let rd = match std::fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(ServeError::io(format!("scan {}: {e}", dir.display()))),
    };
    for entry in rd {
        let entry = entry.map_err(|e| ServeError::io(format!("scan {}: {e}", dir.display())))?;
        let path = entry.path();
        if path.extension().is_some_and(|x| x == "job") {
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                if valid_job_id(stem) {
                    out.push(stem.to_string());
                }
            }
        }
    }
    out.sort();
    Ok(out)
}

/// How a failed attempt is treated.
enum FailKind {
    /// Retrying cannot help (bad input, infeasible library): quarantine
    /// immediately.
    Permanent,
    /// Worth retrying up to the allowance (budget, I/O, internal).
    Retryable,
}

/// A failed attempt, normalized for the journal.
struct Failure {
    code: i32,
    msg: String,
    kind: FailKind,
}

impl Failure {
    fn of(err: &ServeError) -> Failure {
        match err {
            ServeError::Partition(e) => Failure {
                code: e.exit_code(),
                msg: e.to_string(),
                kind: match e {
                    PartitionError::InvalidInput { .. }
                    | PartitionError::InfeasibleLibrary { .. } => FailKind::Permanent,
                    PartitionError::BudgetExhausted { .. }
                    | PartitionError::InternalInvariant { .. } => FailKind::Retryable,
                },
            },
            ServeError::Corrupt { .. } => Failure {
                code: 2,
                msg: err.to_string(),
                kind: FailKind::Permanent,
            },
            // Spool I/O (including injected disk-full): transient.
            ServeError::Io { .. } => Failure {
                code: 1,
                msg: err.to_string(),
                kind: FailKind::Retryable,
            },
            // Never normalized — crashes propagate (see execute_one).
            ServeError::CrashInjected { label } => Failure {
                code: 1,
                msg: format!("crash injected at {label}"),
                kind: FailKind::Retryable,
            },
        }
    }
}

/// A prepared request: everything derived from the spec + netlist.
struct Prepared {
    spec: JobSpec,
    hg: Hypergraph,
    key: u64,
}

/// The durable partitioning server. See the module docs for the
/// lifecycle; construct with [`Server::open`], drive with
/// [`Server::run`].
#[derive(Debug)]
pub struct Server {
    spool: PathBuf,
    cfg: ServeConfig,
    wal: Wal,
    queue: QueueState,
    cache: DiskCache,
    inj: Injector,
    recorder: Arc<dyn Recorder>,
    registry: Arc<MetricsRegistry>,
    /// Claim instants of in-flight jobs, for claim-to-done latency.
    claimed_at: HashMap<String, Instant>,
    /// Registry version last written to `metrics.prom` (skip idle rounds).
    metrics_version: u64,
    last_queue_depth: Option<usize>,
    report: ServeReport,
    round: u64,
}

impl Server {
    /// Opens the spool at `spool` (creating its layout if absent),
    /// replays the journal, truncates any torn tail, and quarantines
    /// pending jobs that already exhausted their retry allowance
    /// *before* the crash. Pass a recorder to receive `serve.*` events
    /// (or `None` for silence).
    ///
    /// # Errors
    ///
    /// Spool I/O failures and an unrecoverably corrupt journal header.
    pub fn open(
        spool: &Path,
        cfg: ServeConfig,
        recorder: Option<Arc<dyn Recorder>>,
    ) -> Result<Server, ServeError> {
        for sub in ["jobs", "results", "cache", "quarantine"] {
            let d = spool.join(sub);
            std::fs::create_dir_all(&d)
                .map_err(|e| ServeError::io(format!("create {}: {e}", d.display())))?;
        }
        let (wal, recovery) = Wal::open(&spool.join("journal.wal"))?;
        let queue = QueueState::replay(recovery.records.iter().map(|(_, r)| r));
        let cache = DiskCache::open(&spool.join("cache"))?;
        let recorder = recorder.unwrap_or_else(|| Arc::new(NoopRecorder));
        // The metrics registry rides in a tee next to the caller's
        // recorder: every serve.* event feeds the operational surface
        // exposed at `<spool>/metrics.prom` and `netpart serve-status`.
        let registry = Arc::new(MetricsRegistry::for_scope("serve"));
        let recorder: Arc<dyn Recorder> = Arc::new(
            Tee::new()
                .with(recorder)
                .with(registry.clone() as Arc<dyn Recorder>),
        );
        let inj = Injector::new(cfg.fault.clone(), cfg.crash_mode);
        let interrupted = queue.jobs().filter(|e| e.interrupted).count();
        let (done, quarantined) = queue.terminal_counts();
        let server = Server {
            spool: spool.to_path_buf(),
            cfg,
            wal,
            queue,
            cache,
            inj,
            recorder,
            registry,
            claimed_at: HashMap::new(),
            metrics_version: u64::MAX,
            last_queue_depth: None,
            report: ServeReport {
                done,
                quarantined,
                recovered_interrupted: interrupted,
                recovered_torn_tail: recovery.torn_tail,
                ..ServeReport::default()
            },
            round: 0,
        };
        server.emit_recover(&recovery, interrupted);
        Ok(server)
    }

    fn emit_recover(&self, recovery: &Recovery, interrupted: usize) {
        self.recorder.record(
            &Event::new("serve", "recover", Level::Info)
                .field("records", recovery.records.len())
                .field("torn_tail", recovery.torn_tail)
                .field("truncated_bytes", recovery.truncated_bytes)
                .field("pending", self.queue.open_count())
                .field("done", self.report.done)
                .field("quarantined", self.report.quarantined)
                .field("interrupted", interrupted),
        );
    }

    /// The folded queue state (for status displays).
    pub fn queue(&self) -> &QueueState {
        &self.queue
    }

    /// Progress counters so far.
    pub fn report(&self) -> &ServeReport {
        &self.report
    }

    /// The live service metrics registry (snapshotted to
    /// `<spool>/metrics.prom` after every scheduler round).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Runs the serve loop. In drain mode ([`ServeConfig::drain`] or a
    /// `drain` sentinel file) the loop returns once no pending work
    /// remains; otherwise it watches `jobs/` forever (sleeping
    /// [`ServeConfig::poll_ms`] on idle rounds).
    ///
    /// # Errors
    ///
    /// Journal-append failures are fatal (the loop must not continue
    /// past an unjournaled transition); [`ServeError::CrashInjected`]
    /// propagates in [`CrashMode::Return`] with the spool exactly as a
    /// real crash would leave it.
    pub fn run(&mut self) -> Result<ServeReport, ServeError> {
        loop {
            self.round += 1;
            self.report.rounds = self.round;
            self.admit_new_jobs()?;
            let eligible: Vec<String> = self
                .queue
                .jobs()
                .filter(|e| e.state == JobState::Pending && e.eligible_round <= self.round)
                .map(|e| e.job.clone())
                .collect();
            let mut drained = false;
            if eligible.is_empty() {
                let pending = self.queue.open_count();
                if self.drain_requested() {
                    drained = true;
                } else if pending == 0 && self.cfg.drain {
                    break;
                } else if pending == 0 || !self.cfg.drain {
                    // Watch mode, or backoff still counting down in
                    // watch mode: yield before the next round.
                    if !self.cfg.drain && self.cfg.poll_ms > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(self.cfg.poll_ms));
                    }
                }
            } else {
                // Round spans live on the scheduling timeline (their
                // count depends on backoff/watch pacing): reserved
                // scope, stripped whole-line by determinism checks.
                let recorder = Arc::clone(&self.recorder);
                let round_span = Span::enter_with(
                    recorder.as_ref(),
                    TIMING_SCOPE,
                    "round",
                    "round",
                    self.round,
                );
                for job in eligible {
                    if self.drain_requested() {
                        drained = true;
                        break;
                    }
                    self.execute_one(&job)?;
                }
                drop(round_span);
            }
            self.expose_metrics();
            if drained {
                self.report.drained = true;
                self.recorder.record(
                    &Event::new("serve", "drain", Level::Info)
                        .field("round", self.round)
                        .field("pending", self.queue.open_count()),
                );
                self.expose_metrics();
                break;
            }
        }
        Ok(self.report.clone())
    }

    fn drain_requested(&self) -> bool {
        self.spool.join("drain").exists()
    }

    /// Snapshots the registry to `<spool>/metrics.prom` (Prometheus
    /// text format, atomic rename). Skipped when nothing changed since
    /// the last write; best-effort — an unwritable metrics file must
    /// never fail the serve loop. Deliberately bypasses the fault
    /// injector: exposition is not part of the durability contract, and
    /// routing it through `inj` would shift the injection indices the
    /// recovery matrix pins.
    fn expose_metrics(&mut self) {
        let depth = self.queue.open_count();
        if self.last_queue_depth != Some(depth) {
            self.last_queue_depth = Some(depth);
            self.registry
                .set_gauge("netpart_serve_queue_depth", depth as f64);
        }
        let version = self.registry.version();
        if version == self.metrics_version {
            return;
        }
        self.metrics_version = version;
        let _ = atomic_write(
            &self.spool.join("metrics.prom"),
            self.registry.to_prometheus().as_bytes(),
            &Injector::none(),
        );
    }

    /// Journals `submit` for every job file the journal has not seen
    /// yet, in sorted order. Over-capacity files stay unadmitted (they
    /// are re-scanned every round, so capacity freed by completions is
    /// reused).
    fn admit_new_jobs(&mut self) -> Result<(), ServeError> {
        for job in list_job_files(&self.spool.join("jobs"))? {
            if self.queue.is_known(&job) {
                continue;
            }
            if self.queue.open_count() >= self.cfg.max_queue {
                break;
            }
            let path = self.spool.join("jobs").join(format!("{job}.job"));
            let bytes = std::fs::read(&path)
                .map_err(|e| ServeError::io(format!("read {}: {e}", path.display())))?;
            let rec = WalRecord::Submit {
                job: job.clone(),
                spec_fnv: file_fnv(&bytes),
            };
            self.append(&rec)?;
            self.recorder.record(
                &Event::new("serve", "submit", Level::Info)
                    .field("job", job.clone())
                    .field("open", self.queue.open_count()),
            );
            self.inj.crash_point("submit")?;
        }
        Ok(())
    }

    /// Appends to the journal and folds the record into the live queue
    /// state in one step, so memory never diverges from disk.
    fn append(&mut self, rec: &WalRecord) -> Result<(), ServeError> {
        self.wal.append(rec, &self.inj)?;
        self.queue.apply(rec);
        Ok(())
    }

    /// The retry allowance for `job`: the spec's `max-retries` override
    /// when its spec parses, the server default otherwise.
    fn retry_allowance(&self, job: &str) -> u32 {
        let path = self.spool.join("jobs").join(format!("{job}.job"));
        std::fs::read_to_string(&path)
            .ok()
            .and_then(|t| JobSpec::parse(&t).ok())
            .and_then(|s| s.max_retries)
            .unwrap_or(self.cfg.max_retries)
            .max(1)
    }

    /// Runs one attempt of `job` end to end. Only journal-append
    /// failures and injected crashes escape; every other failure is
    /// journaled as `fail` and routed to retry or quarantine.
    fn execute_one(&mut self, job: &str) -> Result<(), ServeError> {
        let entry = self
            .queue
            .get(job)
            .ok_or_else(|| ServeError::io(format!("job {job} vanished from queue state")))?;
        let prior = entry.attempts;
        let allowance = self.retry_allowance(job);
        if prior >= allowance {
            // The allowance was exhausted before a crash (interrupted
            // attempts count): quarantine without consuming another.
            let msg = entry
                .last_error
                .clone()
                .map(|(_, m)| m)
                .unwrap_or_else(|| "crash-interrupted attempts exhausted allowance".into());
            return self.quarantine(job, prior, &msg);
        }
        let attempt = prior + 1;
        self.append(&WalRecord::Claim {
            job: job.to_string(),
            attempt,
        })?;
        self.recorder.record(
            &Event::new("serve", "claim", Level::Info)
                .field("job", job.to_string())
                .field("attempt", attempt),
        );
        self.claimed_at.insert(job.to_string(), Instant::now());
        self.inj.crash_point("claim")?;
        self.report.executed += 1;

        let recorder = Arc::clone(&self.recorder);
        let span = Span::enter_with(
            recorder.as_ref(),
            "serve",
            "execute",
            "job",
            job.to_string(),
        );
        let outcome = self
            .prepare(job)
            .and_then(|prep| self.attempt(job, attempt, &prep));
        drop(span);
        match outcome {
            Ok(()) => Ok(()),
            Err(err @ ServeError::CrashInjected { .. }) => Err(err),
            Err(err) => self.handle_failure(job, attempt, allowance, &err),
        }
    }

    /// Parses the spec, loads + maps its netlist, derives the request
    /// key. Pure preparation — no journal writes.
    fn prepare(&self, job: &str) -> Result<Prepared, ServeError> {
        let path = self.spool.join("jobs").join(format!("{job}.job"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| ServeError::io(format!("read {}: {e}", path.display())))?;
        let mut spec = JobSpec::parse(&text)?;
        if spec.budget_ms == 0 {
            if let Some(ms) = self.cfg.default_budget_ms {
                spec.budget_ms = ms;
            }
        }
        let nl_path = self.spool.join(&spec.netlist);
        let blif = std::fs::read_to_string(&nl_path)
            .map_err(|e| ServeError::io(format!("read {}: {e}", nl_path.display())))?;
        let invalid = |what: String| ServeError::Partition(PartitionError::invalid_input(what));
        let nl = parse_blif(&blif).map_err(|e| invalid(format!("{}: {e}", spec.netlist)))?;
        nl.validate()
            .map_err(|e| invalid(format!("{}: {e}", spec.netlist)))?;
        let nl = decompose_wide_gates(&nl, 5);
        let hg = map(&nl, &MapperConfig::xc3000())
            .map_err(|e| invalid(format!("{}: {e}", spec.netlist)))?
            .to_hypergraph(&nl);
        let key = spec.request_key(blif.as_bytes());
        Ok(Prepared { spec, hg, key })
    }

    /// Serves the attempt: from the verified disk cache when possible,
    /// by running the engine otherwise. Artifacts are always written
    /// *before* the `done` record that blesses them.
    fn attempt(&mut self, job: &str, attempt: u32, prep: &Prepared) -> Result<(), ServeError> {
        let cached = match self.cache.load(prep.key, &prep.hg) {
            CacheLookup::Hit(entry) => {
                self.recorder.record(
                    &Event::new("serve", "cache", Level::Info)
                        .field("job", job.to_string())
                        .field("outcome", "hit")
                        .field("key", format!("{:016x}", prep.key)),
                );
                self.write_artifacts(job, attempt, prep, true, &entry.summary, Some(&entry.cert))?;
                self.report.cache_hits += 1;
                true
            }
            lookup => {
                if let CacheLookup::Evicted { reason } = &lookup {
                    self.report.cache_evictions += 1;
                    self.recorder.record(
                        &Event::new("serve", "cache", Level::Info)
                            .field("job", job.to_string())
                            .field("outcome", "evict")
                            .field("key", format!("{:016x}", prep.key))
                            .field("reason", reason.clone()),
                    );
                } else {
                    self.recorder.record(
                        &Event::new("serve", "cache", Level::Debug)
                            .field("job", job.to_string())
                            .field("outcome", "miss")
                            .field("key", format!("{:016x}", prep.key)),
                    );
                }
                self.append(&WalRecord::Start {
                    job: job.to_string(),
                    attempt,
                })?;
                self.inj.crash_point("start")?;
                let (summary, cert) = self.run_engine(prep)?;
                self.write_artifacts(job, attempt, prep, false, &summary, cert.as_deref())?;
                if let Some(cert) = &cert {
                    self.cache.store(
                        &CacheEntry {
                            key: prep.key,
                            summary: summary.clone(),
                            cert: cert.clone(),
                        },
                        &self.inj,
                    )?;
                    self.inj.crash_point("cache")?;
                }
                false
            }
        };
        self.append(&WalRecord::Done {
            job: job.to_string(),
            attempt,
            cached,
            key: prep.key,
        })?;
        self.report.done += 1;
        let mut done = Event::new("serve", "done", Level::Info)
            .field("job", job.to_string())
            .field("attempt", attempt)
            .field("cached", cached)
            .field("key", format!("{:016x}", prep.key));
        if let Some(t0) = self.claimed_at.remove(job) {
            // Claim-to-done latency: scheduling data, so it rides the
            // stripped timing sub-object (and feeds the registry's
            // latency histogram).
            done = done.timing("latency_ms", t0.elapsed().as_millis() as u64);
        }
        self.recorder.record(&done);
        self.inj.crash_point("done")?;
        Ok(())
    }

    /// Runs the portfolio engine, returning the human-readable summary
    /// and the certificate text (when the winner exported a placement).
    fn run_engine(&self, prep: &Prepared) -> Result<(String, Option<String>), ServeError> {
        let engine = Engine::new(self.cfg.jobs).with_recorder(Arc::clone(&self.recorder));
        let source = self.spool.join(&prep.spec.netlist).display().to_string();
        match prep.spec.cmd {
            JobCmd::Bipartition => {
                let cfg = prep.spec.bipartition_config(&prep.hg);
                let (stats, _) = engine.bipartition_many(&prep.hg, &cfg, prep.spec.runs)?;
                let mut s = String::new();
                if stats.degradation.is_degraded() {
                    let _ = writeln!(s, "note: {}", stats.degradation);
                }
                let _ = writeln!(
                    s,
                    "{} runs: best cut {}, avg cut {:.1}, avg replicated cells {:.1}",
                    stats.results.len(),
                    stats.best_cut(),
                    stats.avg_cut(),
                    stats.avg_replicated()
                );
                let best = stats.best();
                let _ = writeln!(
                    s,
                    "best run: areas {:?}, {} passes, balanced: {}, stop: {}",
                    best.areas, best.passes, best.balanced, best.stop
                );
                let cert = stats
                    .certificate(&prep.hg, &cfg)
                    .map(|c| c.with_source(&source).to_text());
                Ok((s, cert))
            }
            JobCmd::Kway => {
                let lib = DeviceLibrary::xc3000();
                let cfg = prep.spec.kway_config(lib.clone());
                let (pres, _) = engine.kway(&prep.hg, &cfg, prep.spec.tasks)?;
                let res = &pres.result;
                let mut s = String::new();
                if res.degradation.is_degraded() {
                    let _ = writeln!(s, "note: {}", res.degradation);
                }
                let _ = writeln!(
                    s,
                    "k = {}, total cost = {}, avg CLB util {:.0}%, avg IOB util {:.0}%",
                    res.devices.len(),
                    res.evaluation.total_cost,
                    100.0 * res.evaluation.avg_clb_util,
                    100.0 * res.evaluation.avg_iob_util
                );
                for part in &res.evaluation.parts {
                    let _ = writeln!(
                        s,
                        "  part {}: {:8} {:5} CLBs ({:3.0}%), {:4} IOBs ({:3.0}%)",
                        part.part,
                        lib.device(part.device).name(),
                        part.clbs,
                        100.0 * part.clb_util,
                        part.terminals,
                        100.0 * part.iob_util
                    );
                }
                let cert = pres
                    .certificate(&prep.hg, &cfg)
                    .with_source(&source)
                    .to_text();
                Ok((s, Some(cert)))
            }
        }
    }

    /// Writes `results/<job>.result` (and the certificate when there is
    /// one), atomically, then fires the `artifact` crash point.
    fn write_artifacts(
        &self,
        job: &str,
        attempt: u32,
        prep: &Prepared,
        cached: bool,
        summary: &str,
        cert: Option<&str>,
    ) -> Result<(), ServeError> {
        let results = self.spool.join("results");
        let mut text = format!(
            "netpart-result v1\njob {job}\ncmd {}\nkey {:016x}\nattempt {attempt}\ncached {}\n\n{summary}",
            prep.spec.cmd.as_str(),
            prep.key,
            u8::from(cached),
        );
        let mut h = Fnv1a::new();
        h.write(text.as_bytes());
        let _ = writeln!(text, "#fnv={:016x}", h.finish());
        atomic_write(
            &results.join(format!("{job}.result")),
            text.as_bytes(),
            &self.inj,
        )?;
        if let Some(cert) = cert {
            atomic_write(
                &results.join(format!("{job}.cert")),
                cert.as_bytes(),
                &self.inj,
            )?;
        }
        self.inj.crash_point("artifact")?;
        Ok(())
    }

    /// Journals the failure and routes it: permanent errors and
    /// exhausted allowances quarantine, the rest schedule a retry with
    /// deterministic backoff.
    fn handle_failure(
        &mut self,
        job: &str,
        attempt: u32,
        allowance: u32,
        err: &ServeError,
    ) -> Result<(), ServeError> {
        let failure = Failure::of(err);
        self.append(&WalRecord::Fail {
            job: job.to_string(),
            attempt,
            code: failure.code,
            msg: failure.msg.clone(),
        })?;
        self.report.failed += 1;
        self.recorder.record(
            &Event::new("serve", "fail", Level::Info)
                .field("job", job.to_string())
                .field("attempt", attempt)
                .field("code", i64::from(failure.code))
                .field("msg", failure.msg.clone()),
        );
        self.inj.crash_point("fail")?;
        let permanent = matches!(failure.kind, FailKind::Permanent);
        if permanent || attempt >= allowance {
            return self.quarantine(job, attempt, &failure.msg);
        }
        let mut h = Fnv1a::new();
        h.write(job.as_bytes());
        let delay = backoff_rounds(self.cfg.backoff_base, attempt, self.cfg.seed, h.finish());
        if let Some(e) = self.queue.get_mut(job) {
            e.eligible_round = self.round.saturating_add(delay);
        }
        self.append(&WalRecord::Retry {
            job: job.to_string(),
            attempt,
            delay,
        })?;
        self.recorder.record(
            &Event::new("serve", "retry", Level::Info)
                .field("job", job.to_string())
                .field("attempt", attempt)
                .field("delay_rounds", delay),
        );
        self.inj.crash_point("retry")?;
        Ok(())
    }

    /// Declares `job` poison: writes `quarantine/<job>.err` (artifact
    /// first), then journals the `quarantine` record.
    fn quarantine(&mut self, job: &str, attempts: u32, msg: &str) -> Result<(), ServeError> {
        let text = format!("netpart-quarantine v1\njob {job}\nattempts {attempts}\n\n{msg}\n");
        atomic_write(
            &self.spool.join("quarantine").join(format!("{job}.err")),
            text.as_bytes(),
            &self.inj,
        )?;
        self.append(&WalRecord::Quarantine {
            job: job.to_string(),
            attempts,
            msg: msg.to_string(),
        })?;
        self.report.quarantined += 1;
        self.recorder.record(
            &Event::new("serve", "quarantine", Level::Info)
                .field("job", job.to_string())
                .field("attempts", attempts)
                .field("msg", msg.to_string()),
        );
        self.inj.crash_point("quarantine")?;
        Ok(())
    }
}
