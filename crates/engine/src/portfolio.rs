//! The deterministic parallel portfolio: multi-start FM and k-way
//! carving fanned across `std::thread` workers by one executor.
//!
//! # Determinism model
//!
//! Every unit of work (a *start*: one seeded bipartition, or one k-way
//! carving *task*) is atomic — it either runs to completion and is
//! recorded, or it is excluded entirely. Workers claim units from an
//! ascending atomic counter, so unit `i` always begins no later than
//! any unit `j > i` is claimed; results land in index-addressed slots
//! and the winner is reduced in **fixed seed order** (lowest `(cost,
//! index)` wins), never in arrival order. Three consequences:
//!
//! * **Fault-free, unbudgeted runs** record all `n` units and are
//!   byte-identical for every `--jobs` level: the recorded set and the
//!   reduction are both independent of thread interleaving.
//! * **Zero-wall-budget runs** record exactly the guaranteed first
//!   unit (whose clock carries no deadline) at every `--jobs` level —
//!   degraded, and still byte-identical.
//! * **Mid-flight wall trips** are inherently timing-dependent: which
//!   units finished before the deadline varies. The engine still
//!   guarantees that every *recorded* unit is bitwise-deterministic
//!   (per-unit clocks, no shared move pool) and that the reduction
//!   over the recorded set follows fixed seed order — the strongest
//!   guarantee a physical clock allows.
//!
//! A balanced zero-cut start sets a shared *perfect* flag, the only
//! bound the executor prunes on: the claim counter is ascending, so
//! when start `j` reaches cut 0 every unclaimed index exceeds `j` and
//! can at best tie — and ties break toward the lower index. Recorded
//! results above the perfect index are discarded after the join,
//! making even the early-exit set identical across `--jobs` levels.

use netpart_core::{
    bipartition_with_clock, kway_partition_with_clock, BipartitionConfig, BipartitionResult,
    Budget, CancelToken, Degradation, FaultPlan, KWayConfig, KWayResult, PartitionError, RunClock,
    StopReason,
};
use netpart_hypergraph::Hypergraph;
use netpart_multilevel::{
    ml_bipartition_with_clock, ml_kway_partition_with_clock, MultilevelConfig,
};
use netpart_obs::{BufferRecorder, Event, Level, Recorder, Span, TIMING_SCOPE};
use std::hash::{DefaultHasher, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Emits the scheduling-timeline claim event for one worker picking up
/// one unit of work. Reserved-scope: stripped whole-line by determinism
/// checks.
fn record_claim(recorder: &dyn Recorder, worker: usize, unit: usize) {
    if recorder.enabled(Level::Debug) {
        recorder.record(
            &Event::new(TIMING_SCOPE, "claim", Level::Debug)
                .field("worker", worker)
                .field("unit", unit),
        );
    }
}

/// Emits the scheduling-timeline per-worker summary. Reserved-scope.
fn record_worker(recorder: &dyn Recorder, stats: &WorkerStats) {
    if recorder.enabled(Level::Debug) {
        recorder.record(
            &Event::new(TIMING_SCOPE, "worker", Level::Debug)
                .field("worker", stats.worker)
                .field("starts", stats.starts)
                .field("passes", stats.passes)
                .field("moves", stats.moves)
                .field("cutoff_hits", stats.cutoff_hits)
                .field("wall_ms", stats.wall_ms),
        );
    }
}

/// Work observed by one portfolio worker thread.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index (0-based).
    pub worker: usize,
    /// Starts (or k-way tasks) this worker ran to completion or
    /// truncation.
    pub starts: usize,
    /// FM passes executed across those starts.
    pub passes: u64,
    /// FM moves applied across those starts.
    pub moves: u64,
    /// Wall time spent inside starts, in milliseconds.
    pub wall_ms: u64,
    /// Times this worker stopped early — a shared-deadline or
    /// cancellation skip, a perfect-cut cutoff, or an injected worker
    /// fault.
    pub cutoff_hits: u64,
}

/// One recorded start of a bipartition portfolio.
#[derive(Clone, Debug)]
pub struct StartResult {
    /// The start index (seed offset from the base configuration).
    pub index: usize,
    /// The completed bipartition.
    pub result: BipartitionResult,
}

/// The outcome of [`Engine::bipartition_many`](crate::Engine::bipartition_many).
#[derive(Clone, Debug)]
pub struct PortfolioResult {
    /// Recorded starts in ascending index order. Truncated (cancelled
    /// or deadline-tripped) starts other than the guaranteed first are
    /// excluded — see the module docs for the determinism model.
    pub results: Vec<StartResult>,
    /// Position in [`results`](Self::results) of the winning start.
    pub best_pos: usize,
    /// How the portfolio degraded from the request, if at all.
    pub degradation: Degradation,
    /// Per-worker statistics, indexed by worker.
    pub workers: Vec<WorkerStats>,
    /// Total portfolio wall time.
    pub wall: Duration,
}

impl PortfolioResult {
    /// The winning run.
    pub fn best(&self) -> &BipartitionResult {
        &self.results[self.best_pos].result
    }

    /// The winning start's index (its seed offset).
    pub fn best_start(&self) -> usize {
        self.results[self.best_pos].index
    }

    /// The smallest cut over recorded balanced runs.
    pub fn best_cut(&self) -> usize {
        self.best().cut
    }

    /// Serializes the incumbent (winning start) as an independently
    /// checkable certificate, stamped with the winning start's derived
    /// seed. `None` when the winner exported no placement.
    pub fn certificate(
        &self,
        hg: &Hypergraph,
        cfg: &BipartitionConfig,
    ) -> Option<netpart_verify::SolutionCertificate> {
        self.best()
            .certificate(hg, cfg.seed.wrapping_add(self.best_start() as u64))
    }

    /// The mean cut over recorded balanced runs.
    pub fn avg_cut(&self) -> f64 {
        let balanced: Vec<_> = self.results.iter().filter(|s| s.result.balanced).collect();
        if balanced.is_empty() {
            return f64::NAN;
        }
        balanced.iter().map(|s| s.result.cut as f64).sum::<f64>() / balanced.len() as f64
    }

    /// The mean number of replicated cells over recorded balanced runs.
    pub fn avg_replicated(&self) -> f64 {
        let balanced: Vec<_> = self.results.iter().filter(|s| s.result.balanced).collect();
        if balanced.is_empty() {
            return f64::NAN;
        }
        balanced
            .iter()
            .map(|s| s.result.replicated_cells as f64)
            .sum::<f64>()
            / balanced.len() as f64
    }

    /// A digest of the complete recorded outcome — every start's cut,
    /// areas, replication count, stop reason and full placement, plus
    /// the winner. Two portfolio runs are byte-identical exactly when
    /// their fingerprints agree, which is what the `--jobs` determinism
    /// tests pin. Compare fingerprints within one process only: this is
    /// [`DefaultHasher`], which std does not keep stable across
    /// releases.
    pub fn fingerprint(&self, hg: &Hypergraph) -> u64 {
        let mut h = DefaultHasher::new();
        h.write_usize(self.best_pos);
        h.write_usize(self.results.len());
        for s in &self.results {
            h.write_usize(s.index);
            let r = &s.result;
            h.write_usize(r.cut);
            h.write_u64(r.areas[0]);
            h.write_u64(r.areas[1]);
            h.write_usize(r.replicated_cells);
            h.write_usize(r.passes);
            h.write_u8(u8::from(r.balanced));
            h.write_u8(r.stop as u8);
            match &r.placement {
                None => h.write_u8(0),
                Some(p) => {
                    h.write_u8(1);
                    for c in hg.cell_ids() {
                        let copies = p.copies(c);
                        h.write_usize(copies.len());
                        for copy in copies {
                            h.write_u64(u64::from(copy.part.0));
                            h.write_u32(copy.outputs);
                        }
                    }
                }
            }
        }
        h.finish()
    }
}

/// Caps the unit count of one request: the executor allocates a result
/// slot per unit up front.
const MAX_STARTS: usize = u32::MAX as usize >> 1;

fn shared_deadline(budget: &Budget) -> Option<Instant> {
    budget
        .wall_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms))
}

/// How the executor books one finished unit.
#[derive(Default)]
struct Verdict {
    /// Record the unit's output for the reduction.
    keep: bool,
    /// A budget tripped inside the unit.
    budget: bool,
    /// An injected fault tripped inside the unit.
    fault: bool,
    /// The shared wall deadline tripped: cancel the siblings.
    wall_trip: bool,
    /// The unit stopped early.
    cutoff: bool,
    /// No later unit can beat this one: skip every unclaimed index.
    perfect: bool,
    /// FM passes to credit to the worker.
    passes: u64,
}

/// One kind of portfolio work: bipartition [`Start`]s or k-way
/// [`Task`]s.
trait Unit: Sync {
    type Out: Send;

    /// Runs unit `i` against its own clock.
    fn run(&self, i: usize, clock: &RunClock) -> Self::Out;

    /// Books a finished unit. `deadline_stop` is true when a budget stop
    /// can only have come from the shared wall deadline: the unit is not
    /// the deadline-free first one, and it did not reach the move limit
    /// (`tick_move` checks the move limit first, so a move-limit trip
    /// always shows the full count).
    fn verdict(&self, out: &Self::Out, clock: &RunClock, deadline_stop: bool) -> Verdict;
}

/// What one executor call leaves for the reduction.
struct Executed<T> {
    /// `(index, output, buffered events)` of every kept unit, in
    /// ascending index order.
    kept: Vec<(usize, T, Vec<Event>)>,
    workers: Vec<WorkerStats>,
    budget_seen: bool,
    fault_seen: bool,
}

/// A unit's output and buffered events, once a worker keeps it.
type Slot<T> = Mutex<Option<(T, Vec<Event>)>>;

/// The state the workers of one executor call share.
struct Executor<'a, U: Unit> {
    unit: &'a U,
    per_unit: Budget,
    fault: &'a FaultPlan,
    deadline: Option<Instant>,
    recorder: &'a dyn Recorder,
    cancel: CancelToken,
    next: AtomicUsize,
    budget_seen: AtomicBool,
    fault_seen: AtomicBool,
    perfect: AtomicBool,
    slots: Vec<Slot<U::Out>>,
}

/// Runs units `0..n` across `jobs` workers and collects the kept ones.
///
/// `max_moves` and `fault` apply to each unit individually (a shared
/// move pool would make the recorded set depend on thread
/// interleaving); `deadline` is shared by every unit but the first,
/// which runs without it so a usable solution exists whenever one is
/// reachable at all. Each unit's events are buffered and returned for
/// the caller to replay in index order.
fn execute<U: Unit>(
    unit: &U,
    n: usize,
    jobs: usize,
    max_moves: Option<u64>,
    fault: &FaultPlan,
    deadline: Option<Instant>,
    recorder: &dyn Recorder,
) -> Executed<U::Out> {
    let ex = Executor {
        unit,
        per_unit: Budget {
            wall_ms: None,
            max_moves,
        },
        fault,
        deadline,
        recorder,
        cancel: CancelToken::new(),
        next: AtomicUsize::new(0),
        budget_seen: AtomicBool::new(false),
        fault_seen: AtomicBool::new(false),
        perfect: AtomicBool::new(false),
        slots: (0..n).map(|_| Mutex::new(None)).collect(),
    };
    // Worker 0 runs on the calling thread, so a one-job request spawns
    // no thread (and allocates in the caller's malloc arena).
    let workers = std::thread::scope(|scope| {
        let ex = &ex;
        let handles: Vec<_> = (1..jobs.clamp(1, n))
            .map(|w| scope.spawn(move || ex.work(w)))
            .collect();
        let mut workers = vec![ex.work(0)];
        workers.extend(handles.into_iter().map(|h| h.join().unwrap_or_default()));
        workers
    });
    let kept = ex
        .slots
        .into_iter()
        .enumerate()
        .filter_map(|(i, slot)| {
            let (out, events) = slot.into_inner().unwrap_or_else(PoisonError::into_inner)?;
            Some((i, out, events))
        })
        .collect();
    Executed {
        kept,
        workers,
        budget_seen: ex.budget_seen.into_inner(),
        fault_seen: ex.fault_seen.into_inner(),
    }
}

impl<U: Unit> Executor<'_, U> {
    /// One worker: claims units in ascending order until the counter
    /// runs out, a sibling cancels, or the worker dies.
    fn work(&self, w: usize) -> WorkerStats {
        // Worker lifecycle span: presence and interleaving depend on
        // scheduling, so it rides the reserved timing scope and is
        // stripped whole-line.
        let _worker_span = Span::enter_with(self.recorder, TIMING_SCOPE, "worker", "worker", w);
        let mut stats = WorkerStats {
            worker: w,
            ..WorkerStats::default()
        };
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.slots.len() {
                break;
            }
            record_claim(self.recorder, w, i);
            if i > 0 {
                if self.perfect.load(Ordering::Acquire) || self.cancel.is_cancelled() {
                    stats.cutoff_hits += 1;
                    break;
                }
                if self.deadline.is_some_and(|d| Instant::now() >= d) {
                    self.budget_seen.store(true, Ordering::Release);
                    self.cancel.cancel();
                    stats.cutoff_hits += 1;
                    break;
                }
            }
            if self.fault.kill_start == Some(i as u64) {
                // The worker "dies" before running the unit; the unit
                // is lost, siblings carry on.
                self.fault_seen.store(true, Ordering::Release);
                stats.cutoff_hits += 1;
                break;
            }
            let buffer = Arc::new(BufferRecorder::mirroring(self.recorder));
            let clock = if i == 0 {
                RunClock::with_shared(&self.per_unit, self.fault, None, None)
            } else {
                let cancel = Some(self.cancel.clone());
                RunClock::with_shared(&self.per_unit, self.fault, self.deadline, cancel)
            }
            .with_recorder(buffer.clone());
            let run_t0 = Instant::now();
            let panic_here = self.fault.panic_in_worker == Some(i as u64);
            let out = catch_unwind(AssertUnwindSafe(|| {
                assert!(!panic_here, "injected worker panic at unit {i}");
                self.unit.run(i, &clock)
            }));
            stats.moves += clock.moves();
            stats.wall_ms += run_t0.elapsed().as_millis() as u64;
            let Ok(out) = out else {
                // A panicking worker thread is dead; the portfolio
                // records the loss and joins cleanly.
                self.fault_seen.store(true, Ordering::Release);
                stats.cutoff_hits += 1;
                break;
            };
            stats.starts += 1;
            let deadline_stop = self.deadline.is_some()
                && i > 0
                && self.per_unit.max_moves.is_none_or(|m| clock.moves() < m);
            let v = self.unit.verdict(&out, &clock, deadline_stop);
            stats.passes += v.passes;
            stats.cutoff_hits += u64::from(v.cutoff);
            if v.budget {
                self.budget_seen.store(true, Ordering::Release);
            }
            if v.fault {
                self.fault_seen.store(true, Ordering::Release);
            }
            if v.wall_trip {
                self.cancel.cancel();
            }
            if v.perfect {
                self.perfect.store(true, Ordering::Release);
            }
            if v.keep {
                if let Ok(mut slot) = self.slots[i].lock() {
                    *slot = Some((out, buffer.take()));
                }
            }
        }
        record_worker(self.recorder, &stats);
        stats
    }
}

/// Bipartition start `i`: seed `base.seed + i`, optionally wrapped in
/// the multilevel V-cycle. Like [`Task`], the start's configuration
/// depends only on `(base, i)`, so the start set is identical at every
/// thread count.
struct Start<'a> {
    hg: &'a Hypergraph,
    base: &'a BipartitionConfig,
    ml: Option<&'a MultilevelConfig>,
}

impl Unit for Start<'_> {
    type Out = BipartitionResult;

    fn run(&self, i: usize, clock: &RunClock) -> BipartitionResult {
        let cfg = self
            .base
            .clone()
            .with_seed(self.base.seed.wrapping_add(i as u64));
        match self.ml {
            Some(m) => ml_bipartition_with_clock(self.hg, &cfg, m, clock),
            None => bipartition_with_clock(self.hg, &cfg, clock),
        }
    }

    fn verdict(&self, res: &BipartitionResult, _: &RunClock, deadline_stop: bool) -> Verdict {
        // Multilevel refine passes do not tick the clock: credit the
        // result's own count.
        let passes = res.passes as u64;
        match res.stop {
            // Shared-deadline or cancellation truncation is
            // interleaving-dependent: excluded.
            StopReason::BudgetExhausted if deadline_stop => Verdict {
                budget: true,
                wall_trip: true,
                cutoff: true,
                passes,
                ..Verdict::default()
            },
            StopReason::Cancelled => Verdict {
                cutoff: true,
                passes,
                ..Verdict::default()
            },
            // Per-start move budgets and fault plans trip at
            // deterministic points: recorded.
            stop => Verdict {
                keep: true,
                budget: stop == StopReason::BudgetExhausted,
                fault: stop == StopReason::FaultInjected,
                perfect: res.balanced && res.cut == 0,
                passes,
                ..Verdict::default()
            },
        }
    }
}

/// Runs the bipartition portfolio behind
/// [`Engine::bipartition_many`](crate::Engine::bipartition_many).
pub(crate) fn bipartition(
    hg: &Hypergraph,
    base: &BipartitionConfig,
    n: usize,
    jobs: usize,
    ml: Option<&MultilevelConfig>,
    recorder: &dyn Recorder,
) -> Result<PortfolioResult, PartitionError> {
    if n == 0 {
        return Err(PartitionError::invalid_input(
            "portfolio needs at least one start",
        ));
    }
    if n > MAX_STARTS {
        return Err(PartitionError::invalid_input(format!(
            "portfolio start count {n} exceeds the {MAX_STARTS} cap"
        )));
    }
    if hg.n_cells() == 0 {
        return Err(PartitionError::invalid_input(
            "cannot partition an empty hypergraph",
        ));
    }
    let t0 = Instant::now();
    let jobs = jobs.clamp(1, n);
    let start = Start { hg, base, ml };
    let deadline = shared_deadline(&base.budget);
    let ex = execute(
        &start,
        n,
        jobs,
        base.budget.max_moves,
        &base.fault,
        deadline,
        recorder,
    );

    // Discard anything past a perfect winner, so the early-exit set is
    // jobs-invariant (starts past the winner were provably useless).
    let mut recorded = ex.kept;
    let perfect_cutoff = recorded
        .iter()
        .find(|(_, r, _)| r.balanced && r.cut == 0)
        .map(|&(i, _, _)| i);
    let requested = match perfect_cutoff {
        Some(j) => {
            recorded.retain(|&(i, _, _)| i <= j);
            recorded.len()
        }
        None => n,
    };

    // Deterministic trace replay: now that the recorded set is final
    // and jobs-invariant, emit each start's header, its buffered
    // events, and the incumbent trajectory in ascending index order —
    // exactly the sequence a jobs=1 run produces.
    if recorder.enabled(Level::Info) {
        recorder.record(
            &Event::new("portfolio", "begin", Level::Info)
                .field("kind", "bipartition")
                .field("starts", n)
                .timing("jobs", jobs),
        );
    }
    let mut incumbent_cut: Option<usize> = None;
    let mut results: Vec<StartResult> = Vec::with_capacity(recorded.len());
    for (index, result, events) in recorded {
        if recorder.enabled(Level::Info) {
            recorder.record(
                &Event::new("portfolio", "start", Level::Info)
                    .field("index", index)
                    .field("cut", result.cut)
                    .field("balanced", result.balanced)
                    .field("replicated", result.replicated_cells)
                    .field("passes", result.passes)
                    .field("stop", format!("{:?}", result.stop)),
            );
        }
        for e in &events {
            recorder.record(e);
        }
        if result.balanced && incumbent_cut.is_none_or(|c| result.cut < c) {
            incumbent_cut = Some(result.cut);
            if recorder.enabled(Level::Info) {
                recorder.record(
                    &Event::new("portfolio", "incumbent", Level::Info)
                        .field("index", index)
                        .field("cut", result.cut),
                );
                recorder.record(&Event::gauge("portfolio", "best_cut", result.cut as f64));
            }
        }
        results.push(StartResult { index, result });
    }

    let degradation = Degradation {
        requested,
        completed: results.len(),
        budget_exhausted: ex.budget_seen,
        fault_injected: ex.fault_seen,
        relaxations: Vec::new(),
    };
    let best_pos = results
        .iter()
        .enumerate()
        .filter(|(_, s)| s.result.balanced)
        .min_by_key(|(_, s)| (s.result.cut, s.index))
        .map(|(pos, _)| pos);
    if recorder.enabled(Level::Info) {
        let mut e = Event::new("portfolio", "summary", Level::Info)
            .field("recorded", results.len())
            .field("requested", requested)
            .field("budget_exhausted", degradation.budget_exhausted)
            .field("fault_injected", degradation.fault_injected);
        if let Some(bp) = best_pos {
            e = e
                .field("best_index", results[bp].index)
                .field("best_cut", results[bp].result.cut);
        }
        recorder.record(
            &e.timing("wall_ms", t0.elapsed().as_millis() as u64)
                .timing("jobs", jobs),
        );
    }
    match best_pos {
        Some(best_pos) => Ok(PortfolioResult {
            results,
            best_pos,
            degradation,
            workers: ex.workers,
            wall: t0.elapsed(),
        }),
        None if degradation.budget_exhausted || degradation.fault_injected => {
            Err(PartitionError::BudgetExhausted {
                budget: if degradation.fault_injected {
                    "injected fault".into()
                } else {
                    base.budget.describe()
                },
                completed: degradation.completed,
            })
        }
        None => Err(PartitionError::InfeasibleLibrary {
            reason: format!(
                "no run satisfied the area bounds [{:?}..{:?}]",
                base.min_area, base.max_area
            ),
            attempts: degradation.completed,
        }),
    }
}

/// The outcome of [`Engine::kway`](crate::Engine::kway).
#[derive(Clone, Debug)]
pub struct KWayPortfolioResult {
    /// The winning task's result (reduced by `(total cost, average IOB
    /// utilization, task index)`).
    pub result: KWayResult,
    /// The winning task's index.
    pub winner: usize,
    /// Tasks requested.
    pub tasks: usize,
    /// Tasks that produced a feasible result.
    pub feasible_tasks: usize,
    /// Whether the escalation rescue phase (see
    /// [`Engine::kway`](crate::Engine::kway)) produced the winner.
    pub rescued: bool,
    /// Per-worker statistics, indexed by worker.
    pub workers: Vec<WorkerStats>,
    /// Total portfolio wall time.
    pub wall: Duration,
}

impl KWayPortfolioResult {
    /// Serializes the winning task's result as an independently
    /// checkable certificate. `cfg` is the base configuration handed to
    /// [`Engine::kway`](crate::Engine::kway); the certificate is stamped
    /// with the winning task's derived seed and embeds the library the
    /// winner was actually judged against (floor-relaxed if escalation
    /// relaxed it).
    pub fn certificate(
        &self,
        hg: &Hypergraph,
        cfg: &KWayConfig,
    ) -> netpart_verify::SolutionCertificate {
        self.result
            .certificate(hg, &cfg.library, cfg.seed.wrapping_add(self.winner as u64))
    }
}

/// K-way task `t` of `tasks`: a derived seed and a proportional share
/// of the candidate/attempt pools. The task configuration depends only
/// on `(cfg, t, tasks)` — never on `jobs` — so the task set is
/// identical at every thread count.
struct Task<'a> {
    hg: &'a Hypergraph,
    cfg: &'a KWayConfig,
    tasks: usize,
    /// Whether the carve's escalation ladder may climb: off in the base
    /// phase, on in the rescue phase.
    escalate: bool,
    ml: Option<&'a MultilevelConfig>,
}

impl Unit for Task<'_> {
    type Out = Result<KWayResult, PartitionError>;

    fn run(&self, t: usize, clock: &RunClock) -> Self::Out {
        let mut cfg = self.cfg.clone();
        cfg.seed = self.cfg.seed.wrapping_add(t as u64);
        cfg.candidates = self.cfg.candidates.div_ceil(self.tasks).max(1);
        cfg.max_attempts = self.cfg.max_attempts.div_ceil(self.tasks).max(1);
        match self.ml {
            Some(m) => ml_kway_partition_with_clock(self.hg, &cfg, m, clock, self.escalate),
            None => kway_partition_with_clock(self.hg, &cfg, clock, self.escalate),
        }
    }

    fn verdict(&self, res: &Self::Out, clock: &RunClock, deadline_stop: bool) -> Verdict {
        // Every finished task is kept: a per-task move limit trips at a
        // deterministic point, and only the shared wall deadline
        // cancels the siblings.
        let mut v = Verdict {
            keep: true,
            passes: clock.passes(),
            ..Verdict::default()
        };
        match res {
            Ok(r) => {
                v.budget = r.degradation.budget_exhausted;
                v.fault = r.degradation.fault_injected;
                v.wall_trip = v.budget && deadline_stop;
            }
            Err(PartitionError::BudgetExhausted { budget, .. }) => {
                v.cutoff = true;
                if budget == "injected fault" {
                    v.fault = true;
                } else {
                    v.budget = true;
                    v.wall_trip = deadline_stop;
                }
            }
            Err(_) => {}
        }
        v
    }
}

type TaskOutcome = (usize, Result<KWayResult, PartitionError>, Vec<Event>);

fn merge_worker_stats(into: &mut Vec<WorkerStats>, from: Vec<WorkerStats>) {
    for f in from {
        match into.iter_mut().find(|s| s.worker == f.worker) {
            Some(s) => {
                s.starts += f.starts;
                s.passes += f.passes;
                s.moves += f.moves;
                s.wall_ms += f.wall_ms;
                s.cutoff_hits += f.cutoff_hits;
            }
            None => into.push(f),
        }
    }
}

/// A short deterministic label for a task's typed error, for trace
/// headers.
fn error_label(e: &PartitionError) -> &'static str {
    match e {
        PartitionError::InvalidInput { .. } => "invalid_input",
        PartitionError::InfeasibleLibrary { .. } => "infeasible",
        PartitionError::BudgetExhausted { .. } => "budget_exhausted",
        PartitionError::InternalInvariant { .. } => "internal",
    }
}

/// Replays one k-way phase's buffered telemetry in ascending task
/// order: a `portfolio.task` header, the task's buffered events, and
/// the incumbent trajectory (with the paper-metric gauges) whenever the
/// running best improves. Returns with `incumbent` updated.
fn replay_kway_phase(
    recorder: &dyn Recorder,
    phase: &[TaskOutcome],
    phase_name: &'static str,
    lib: &netpart_fpga::DeviceLibrary,
    incumbent: &mut Option<(u64, f64)>,
) {
    for (t, res, events) in phase {
        if recorder.enabled(Level::Info) {
            let mut e = Event::new("portfolio", "task", Level::Info)
                .field("task", *t)
                .field("phase", phase_name);
            e = match res {
                Ok(r) => e
                    .field("status", "ok")
                    .field("cost", r.evaluation.total_cost)
                    .field("kbar", r.evaluation.avg_iob_util)
                    .field("k", r.evaluation.k())
                    .field("attempts", r.attempts)
                    .field("feasible", r.feasible_found),
                Err(err) => e.field("status", error_label(err)),
            };
            recorder.record(&e);
        }
        for ev in events {
            recorder.record(ev);
        }
        if let Ok(r) = res {
            let key = (r.evaluation.total_cost, r.evaluation.avg_iob_util);
            if incumbent.is_none_or(|best| key < best) {
                *incumbent = Some(key);
                if recorder.enabled(Level::Info) {
                    recorder.record(
                        &Event::new("portfolio", "incumbent", Level::Info)
                            .field("task", *t)
                            .field("cost", r.evaluation.total_cost)
                            .field("kbar", r.evaluation.avg_iob_util)
                            .field("k", r.evaluation.k()),
                    );
                    netpart_core::record_paper_gauges(recorder, &r.evaluation, lib);
                }
            }
        }
    }
}

/// Runs the k-way portfolio behind [`Engine::kway`](crate::Engine::kway).
pub(crate) fn kway(
    hg: &Hypergraph,
    cfg: &KWayConfig,
    tasks: usize,
    jobs: usize,
    ml: Option<&MultilevelConfig>,
    recorder: &dyn Recorder,
) -> Result<KWayPortfolioResult, PartitionError> {
    if tasks == 0 {
        return Err(PartitionError::invalid_input(
            "portfolio needs at least one task",
        ));
    }
    if tasks > MAX_STARTS {
        return Err(PartitionError::invalid_input(format!(
            "portfolio task count {tasks} exceeds the {MAX_STARTS} cap"
        )));
    }
    let t0 = Instant::now();
    let deadline = shared_deadline(&cfg.budget);
    let phase = |escalate: bool| {
        let task = Task {
            hg,
            cfg,
            tasks,
            escalate,
            ml,
        };
        execute(
            &task,
            tasks,
            jobs,
            cfg.budget.max_moves,
            &cfg.fault,
            deadline,
            recorder,
        )
    };

    if recorder.enabled(Level::Info) {
        recorder.record(
            &Event::new("portfolio", "begin", Level::Info)
                .field("kind", "kway")
                .field("tasks", tasks)
                .field("candidates", cfg.candidates)
                .timing("jobs", jobs),
        );
    }
    let mut incumbent: Option<(u64, f64)> = None;
    let base = phase(false);
    replay_kway_phase(recorder, &base.kept, "base", &cfg.library, &mut incumbent);
    let mut budget_seen = base.budget_seen;
    let mut fault_seen = base.fault_seen;
    let mut workers = base.workers;
    let mut last = base.kept;

    // Rescue phase: nothing feasible anywhere — climb the ladder.
    let feasible = last.iter().any(|(_, r, _)| r.is_ok());
    let rescued = !feasible && !budget_seen && !fault_seen;
    if rescued {
        if recorder.enabled(Level::Info) {
            recorder.record(&Event::new("portfolio", "rescue", Level::Info).field("tasks", tasks));
        }
        let rescue = phase(true);
        replay_kway_phase(
            recorder,
            &rescue.kept,
            "rescue",
            &cfg.library,
            &mut incumbent,
        );
        budget_seen |= rescue.budget_seen;
        fault_seen |= rescue.fault_seen;
        merge_worker_stats(&mut workers, rescue.workers);
        last = rescue.kept;
    }

    let mut picked = Vec::new();
    let mut errors = Vec::new();
    for (t, res, _) in last {
        match res {
            Ok(r) => picked.push((t, r)),
            Err(e) => errors.push(e),
        }
    }
    let feasible_tasks = picked.len();
    let winner = picked.into_iter().min_by(|(ta, a), (tb, b)| {
        (a.evaluation.total_cost, a.evaluation.avg_iob_util, *ta)
            .partial_cmp(&(b.evaluation.total_cost, b.evaluation.avg_iob_util, *tb))
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    if recorder.enabled(Level::Info) {
        let mut e = Event::new("portfolio", "summary", Level::Info)
            .field("tasks", tasks)
            .field("feasible_tasks", feasible_tasks)
            .field("rescued", rescued);
        if let Some((t, r)) = &winner {
            e = e
                .field("winner", *t)
                .field("cost", r.evaluation.total_cost)
                .field("kbar", r.evaluation.avg_iob_util)
                .field("k", r.evaluation.k());
        }
        recorder.record(
            &e.timing("wall_ms", t0.elapsed().as_millis() as u64)
                .timing("jobs", jobs),
        );
    }

    match winner {
        Some((t, mut result)) => {
            result.degradation.budget_exhausted |= budget_seen;
            result.degradation.fault_injected |= fault_seen;
            Ok(KWayPortfolioResult {
                result,
                winner: t,
                tasks,
                feasible_tasks,
                rescued,
                workers,
                wall: t0.elapsed(),
            })
        }
        None if budget_seen || fault_seen => Err(PartitionError::BudgetExhausted {
            budget: if fault_seen {
                "injected fault".into()
            } else {
                cfg.budget.describe()
            },
            completed: errors.len(),
        }),
        None => {
            // Propagate the lowest-index typed error (typically the
            // shared InfeasibleLibrary verdict), or synthesize one.
            let attempts: usize = errors
                .iter()
                .map(|e| match e {
                    PartitionError::InfeasibleLibrary { attempts, .. } => *attempts,
                    _ => 0,
                })
                .sum();
            match errors.into_iter().next() {
                Some(PartitionError::InfeasibleLibrary { reason, .. }) => {
                    Err(PartitionError::InfeasibleLibrary { reason, attempts })
                }
                Some(e) => Err(e),
                None => Err(PartitionError::InfeasibleLibrary {
                    reason: "every portfolio task was lost before completing".into(),
                    attempts: 0,
                }),
            }
        }
    }
}
