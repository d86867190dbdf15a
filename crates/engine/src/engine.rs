//! The [`Engine`] facade: a configured portfolio runner, the one
//! request surface for multi-start bipartitioning and k-way carving.

use crate::portfolio::{self, KWayPortfolioResult, PortfolioResult};
use netpart_core::{BipartitionConfig, KWayConfig, PartitionError};
use netpart_hypergraph::Hypergraph;
use netpart_multilevel::MultilevelConfig;
use netpart_obs::{NoopRecorder, Recorder, Span};
use std::sync::Arc;

/// A portfolio engine instance: thread count, optional multilevel
/// V-cycle and telemetry recorder.
///
/// Every multi-start request — the CLI, the durable service, the paper
/// experiments (`netpart::experiments`) and the benchmark — runs through
/// [`bipartition_many`](Self::bipartition_many) or [`kway`](Self::kway),
/// so one set of budget, seed and reduction rules applies everywhere.
/// Repeated requests are the durable service's concern: its verified
/// disk cache keys a job by the request it received.
#[derive(Debug)]
pub struct Engine {
    jobs: usize,
    multilevel: Option<MultilevelConfig>,
    recorder: Arc<dyn Recorder>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine {
            jobs: 1,
            multilevel: None,
            recorder: Arc::new(NoopRecorder),
        }
    }
}

impl Engine {
    /// An engine fanning work across `jobs` worker threads (clamped to
    /// at least 1).
    pub fn new(jobs: usize) -> Self {
        Engine {
            jobs: jobs.max(1),
            ..Engine::default()
        }
    }

    /// Enables (`Some`) or disables (`None`) the multilevel V-cycle:
    /// every portfolio start/task coarsens the circuit, partitions the
    /// coarsest graph and refines back up (see
    /// [`netpart_multilevel`]). Seed derivation and reduction order are
    /// unchanged, so `--jobs` invariance holds exactly as in the flat
    /// engine.
    #[must_use]
    pub fn with_multilevel(mut self, ml: Option<MultilevelConfig>) -> Self {
        self.multilevel = ml;
        self
    }

    /// Attaches a telemetry recorder: portfolio runs launched through
    /// this engine emit their deterministic trace into it.
    ///
    /// Per-unit events (FM pass trajectories, run summaries, carve
    /// diagnostics) are buffered on each worker and **replayed into the
    /// recorder in ascending start/task order after the join**, so the
    /// deterministic part of the trace is identical at every `jobs`
    /// level (wall-budgeted runs excepted — which units survive a
    /// mid-flight deadline is timing-dependent, exactly as for
    /// results). Live scheduling events (claims, worker summaries) go
    /// straight to the recorder under the reserved
    /// [`TIMING_SCOPE`](netpart_obs::TIMING_SCOPE) and are dropped by
    /// determinism checks.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// The configured worker-thread count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The multilevel configuration, when the V-cycle is enabled.
    pub fn multilevel(&self) -> Option<&MultilevelConfig> {
        self.multilevel.as_ref()
    }

    /// Runs a multi-start bipartition portfolio: `n` seeded starts
    /// (seeds `base.seed + 0..n`) across this engine's worker threads,
    /// with the winner reduced in fixed seed order. The second return
    /// value is always `false`; it is kept so existing callers that
    /// destructure the pair still compile.
    ///
    /// `base.budget.wall_ms` bounds the *whole portfolio* via a deadline
    /// shared by every worker; `base.budget.max_moves` and `base.fault`
    /// apply to each start individually (a shared move pool would make
    /// the recorded set depend on thread interleaving). The first start
    /// runs without the wall deadline, so a usable solution exists
    /// whenever one is reachable at all, and a zero budget records
    /// exactly that start at every `jobs` level. A balanced zero-cut
    /// start ends the portfolio early: later starts can at best tie.
    ///
    /// With [`with_multilevel`](Self::with_multilevel), every start
    /// coarsens, partitions the coarsest graph with its derived seed
    /// and refines up; seeds and the reduction are unchanged.
    ///
    /// # Errors
    ///
    /// * [`PartitionError::InvalidInput`] if `n == 0`, `n` exceeds the
    ///   2³¹-start cap, or the hypergraph has no cells.
    /// * [`PartitionError::BudgetExhausted`] if the budget (or a worker
    ///   fault) tripped before any recorded run achieved balance.
    /// * [`PartitionError::InfeasibleLibrary`] if every recorded run
    ///   completed but none satisfied the area bounds.
    pub fn bipartition_many(
        &self,
        hg: &Hypergraph,
        base: &BipartitionConfig,
        n: usize,
    ) -> Result<(Arc<PortfolioResult>, bool), PartitionError> {
        let ml = self.multilevel.as_ref();
        let recorder = self.recorder.as_ref();
        let _span = Span::enter(recorder, "engine", "bipartition");
        portfolio::bipartition(hg, base, n, self.jobs, ml, recorder).map(|r| (Arc::new(r), false))
    }

    /// Runs a k-way carving portfolio: `tasks` independent carving
    /// tasks (seed `cfg.seed + t`, candidate and attempt pools split
    /// `div_ceil(tasks)`) across this engine's worker threads, with the
    /// cheapest feasible result reduced in fixed task order by `(total
    /// cost, average IOB utilization, task index)`. The second return
    /// value is always `false`, as for
    /// [`bipartition_many`](Self::bipartition_many).
    ///
    /// Escalation is two-phase: every task first runs with the ladder
    /// *disabled* — a sibling's feasible result makes climbing
    /// unnecessary, and racy ladder climbs would be
    /// interleaving-dependent. Only when *no* task finds anything
    /// feasible (and no budget or fault tripped) does a rescue phase
    /// re-run the tasks with the full ladder enabled. The task set
    /// depends only on `(cfg, tasks)`, so for a fixed `tasks` the
    /// reduction is identical at every `jobs` level. Budgets follow
    /// [`bipartition_many`](Self::bipartition_many): a shared wall
    /// deadline that task 0 does not carry, per-task move limits.
    ///
    /// # Errors
    ///
    /// Mirrors [`kway_partition`](netpart_core::kway_partition):
    /// [`PartitionError::InvalidInput`] for `tasks == 0` (or past the
    /// 2³¹ cap) and invalid circuits, budget exhaustion before any
    /// feasible result, or infeasibility after the rescue phase.
    pub fn kway(
        &self,
        hg: &Hypergraph,
        cfg: &KWayConfig,
        tasks: usize,
    ) -> Result<(Arc<KWayPortfolioResult>, bool), PartitionError> {
        let ml = self.multilevel.as_ref();
        let recorder = self.recorder.as_ref();
        let _span = Span::enter(recorder, "engine", "kway");
        portfolio::kway(hg, cfg, tasks, self.jobs, ml, recorder).map(|r| (Arc::new(r), false))
    }
}
