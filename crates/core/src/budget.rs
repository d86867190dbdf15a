//! Run budgets and the runtime clock that enforces them.
//!
//! A [`Budget`] declares how much work a run may do — wall-clock time,
//! FM moves, FM passes, carve attempts — and a [`RunClock`] is the
//! runtime instance that watches those limits (and any injected
//! [`FaultPlan`](crate::FaultPlan)) as the engine executes. The engine
//! polls the clock at natural checkpoints (each applied move, each
//! pass, each carve attempt); when a limit trips, the engine abandons
//! remaining work, keeps the best state found so far, and reports the
//! [`StopReason`] — it never aborts the process.

use crate::error::StopReason;
use crate::fault::FaultPlan;
use netpart_obs::{Recorder, NOOP};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock moves are only sampled every this many applied moves;
/// `Instant::now` is cheap but not free, and FM applies moves in tight
/// heap-pop loops.
const WALL_CHECK_STRIDE: u64 = 64;

/// Declarative work limits for a partitioning run.
///
/// All limits are optional; [`Budget::none`] (the default) never trips.
/// Budgets degrade gracefully: a tripped run returns its best-so-far
/// solution plus a [`Degradation`](crate::Degradation) report rather
/// than an error, unless *no* usable solution exists yet (then
/// [`PartitionError::BudgetExhausted`](crate::PartitionError::BudgetExhausted)).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Budget {
    /// Wall-clock limit in milliseconds.
    pub wall_ms: Option<u64>,
    /// Limit on applied FM moves (summed across passes and, in k-way
    /// runs, across carve bipartitions). Only moves a pass makes count:
    /// a pass that ends early at the dead-net bound skips the moves its
    /// rollback would have undone, and they are not counted.
    pub max_moves: Option<u64>,
}

impl Budget {
    /// A budget with no limits (never trips).
    pub fn none() -> Self {
        Budget::default()
    }

    /// A wall-clock budget of `ms` milliseconds.
    pub fn wall_ms(ms: u64) -> Self {
        Budget {
            wall_ms: Some(ms),
            ..Budget::default()
        }
    }

    /// Sets the applied-move limit.
    pub fn with_max_moves(mut self, n: u64) -> Self {
        self.max_moves = Some(n);
        self
    }

    /// Whether any limit is configured.
    pub fn is_limited(&self) -> bool {
        self.wall_ms.is_some() || self.max_moves.is_some()
    }

    /// A human-readable description of the first configured limit, for
    /// error messages.
    pub fn describe(&self) -> String {
        match (self.wall_ms, self.max_moves) {
            (Some(ms), _) => format!("wall {ms}ms"),
            (None, Some(n)) => format!("{n} moves"),
            (None, None) => "unlimited".to_string(),
        }
    }
}

/// A cooperative cancellation flag shared between the threads of a
/// parallel portfolio.
///
/// Cloning is cheap (an [`Arc`] bump) and every clone observes the same
/// flag. A [`RunClock`] built with [`RunClock::with_shared`] polls the
/// token on its wall-check path and latches
/// [`StopReason::Cancelled`] once it is set, so an in-flight FM run
/// drains at its next checkpoint (at most `WALL_CHECK_STRIDE` moves
/// later) instead of running to completion.
///
/// Cancellation is one-way: there is no `reset`. A portfolio that wants
/// a fresh flag makes a fresh token.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation; every clone observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// The runtime clock of one driver invocation: counts work, watches the
/// [`Budget`] deadline and the [`FaultPlan`], and latches the first
/// [`StopReason`] it observes.
///
/// Interior mutability (all counters are [`Cell`]s) lets the clock be
/// threaded through the engine by shared reference alongside the
/// immutable hypergraph and configuration.
#[derive(Debug)]
pub struct RunClock {
    deadline: Option<Instant>,
    max_moves: Option<u64>,
    fault: FaultPlan,
    moves: Cell<u64>,
    passes: Cell<u64>,
    attempts: Cell<u64>,
    stopped: Cell<Option<StopReason>>,
    budget: Budget,
    cancel: Option<CancelToken>,
    recorder: Option<Arc<dyn Recorder>>,
}

impl RunClock {
    /// Starts a clock for `budget` with faults from `fault`.
    pub fn new(budget: &Budget, fault: &FaultPlan) -> Self {
        RunClock {
            deadline: budget
                .wall_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms)),
            max_moves: budget.max_moves,
            fault: fault.clone(),
            moves: Cell::new(0),
            passes: Cell::new(0),
            attempts: Cell::new(0),
            stopped: Cell::new(None),
            budget: budget.clone(),
            cancel: None,
            recorder: None,
        }
    }

    /// Starts a clock whose wall deadline is an explicit [`Instant`]
    /// shared with other clocks (rather than `now + budget.wall_ms`),
    /// and that additionally drains when `cancel` fires.
    ///
    /// This is the portfolio-engine constructor: every worker's clock
    /// points at the *same* deadline so "the budget tripped" means the
    /// same thing on every thread, and a worker that observes the trip
    /// first can [`CancelToken::cancel`] the rest. `budget.wall_ms` is
    /// kept only for [`RunClock::budget`] error messages; the effective
    /// deadline is the one passed here (`None` = no wall limit). The
    /// `max_moves` limit still applies to this clock alone.
    pub fn with_shared(
        budget: &Budget,
        fault: &FaultPlan,
        deadline: Option<Instant>,
        cancel: Option<CancelToken>,
    ) -> Self {
        RunClock {
            deadline,
            max_moves: budget.max_moves,
            fault: fault.clone(),
            moves: Cell::new(0),
            passes: Cell::new(0),
            attempts: Cell::new(0),
            stopped: Cell::new(None),
            budget: budget.clone(),
            cancel,
            recorder: None,
        }
    }

    /// Attaches a telemetry recorder; instrumentation sites reach it
    /// through [`RunClock::recorder`]. The clock is already threaded
    /// through every engine entry point, so this is how tracing rides
    /// along without widening any algorithm signature.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// A clock that never trips.
    pub fn unlimited() -> Self {
        RunClock::new(&Budget::none(), &FaultPlan::none())
    }

    /// The first stop condition observed, if any.
    pub fn stopped(&self) -> Option<StopReason> {
        self.stopped.get()
    }

    /// The budget this clock enforces (for error messages).
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Total applied moves observed.
    pub fn moves(&self) -> u64 {
        self.moves.get()
    }

    /// Total completed FM passes observed.
    pub fn passes(&self) -> u64 {
        self.passes.get()
    }

    /// Total k-way carve attempts observed.
    pub fn attempts(&self) -> u64 {
        self.attempts.get()
    }

    /// The attached telemetry recorder (the no-op recorder when none is
    /// attached, so call sites never branch on `Option`).
    pub fn recorder(&self) -> &dyn Recorder {
        match &self.recorder {
            Some(r) => r.as_ref(),
            None => &NOOP,
        }
    }

    fn trip(&self, reason: StopReason) -> StopReason {
        if self.stopped.get().is_none() {
            self.stopped.set(Some(reason));
        }
        self.stopped.get().unwrap_or(reason)
    }

    /// Records one applied FM move; returns the stop reason if a limit
    /// or fault tripped. The wall clock is only sampled every 64 moves
    /// (`WALL_CHECK_STRIDE`).
    pub fn tick_move(&self) -> Option<StopReason> {
        if let Some(r) = self.stopped.get() {
            return Some(r);
        }
        let n = self.moves.get() + 1;
        self.moves.set(n);
        if self.fault.kill_after_moves.is_some_and(|k| n >= k) {
            return Some(self.trip(StopReason::FaultInjected));
        }
        if self.max_moves.is_some_and(|m| n >= m) {
            return Some(self.trip(StopReason::BudgetExhausted));
        }
        if n.is_multiple_of(WALL_CHECK_STRIDE) {
            return self.check_wall();
        }
        None
    }

    /// Records one completed FM pass; returns the stop reason if a
    /// limit or fault tripped.
    pub fn tick_pass(&self) -> Option<StopReason> {
        if let Some(r) = self.stopped.get() {
            return Some(r);
        }
        let n = self.passes.get() + 1;
        self.passes.set(n);
        if self.fault.kill_after_passes.is_some_and(|k| n >= k) {
            return Some(self.trip(StopReason::FaultInjected));
        }
        self.check_wall()
    }

    /// Records one k-way carve attempt; returns the stop reason if a
    /// limit or fault tripped.
    pub fn tick_attempt(&self) -> Option<StopReason> {
        if let Some(r) = self.stopped.get() {
            return Some(r);
        }
        let n = self.attempts.get() + 1;
        self.attempts.set(n);
        if self.fault.kill_after_attempts.is_some_and(|k| n >= k) {
            return Some(self.trip(StopReason::FaultInjected));
        }
        self.check_wall()
    }

    /// Samples the wall clock immediately (checkpoints between
    /// multi-start runs use this).
    pub fn check_wall(&self) -> Option<StopReason> {
        if let Some(r) = self.stopped.get() {
            return Some(r);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(self.trip(StopReason::BudgetExhausted));
        }
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some(self.trip(StopReason::Cancelled));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let c = RunClock::unlimited();
        for _ in 0..10_000 {
            assert_eq!(c.tick_move(), None);
        }
        assert_eq!(c.tick_pass(), None);
        assert_eq!(c.tick_attempt(), None);
        assert_eq!(c.stopped(), None);
    }

    #[test]
    fn move_budget_trips_and_latches() {
        let c = RunClock::new(&Budget::none().with_max_moves(5), &FaultPlan::none());
        for _ in 0..4 {
            assert_eq!(c.tick_move(), None);
        }
        assert_eq!(c.tick_move(), Some(StopReason::BudgetExhausted));
        // Latched: every later poll reports the same condition.
        assert_eq!(c.tick_pass(), Some(StopReason::BudgetExhausted));
        assert_eq!(c.stopped(), Some(StopReason::BudgetExhausted));
    }

    #[test]
    fn zero_wall_budget_trips_fast() {
        let c = RunClock::new(&Budget::wall_ms(0), &FaultPlan::none());
        assert_eq!(c.check_wall(), Some(StopReason::BudgetExhausted));
    }

    #[test]
    fn fault_beats_budget_on_the_same_move() {
        let c = RunClock::new(
            &Budget::none().with_max_moves(3),
            &FaultPlan::none().kill_after_moves(3),
        );
        assert_eq!(c.tick_move(), None);
        assert_eq!(c.tick_move(), None);
        assert_eq!(c.tick_move(), Some(StopReason::FaultInjected));
    }

    #[test]
    fn cancel_token_drains_a_shared_clock() {
        let token = CancelToken::new();
        let c = RunClock::with_shared(
            &Budget::none(),
            &FaultPlan::none(),
            None,
            Some(token.clone()),
        );
        assert_eq!(c.check_wall(), None);
        token.cancel();
        assert!(token.is_cancelled());
        // Every clone observes the same flag.
        assert!(token.clone().is_cancelled());
        assert_eq!(c.check_wall(), Some(StopReason::Cancelled));
        // Latched like any other stop condition.
        assert_eq!(c.tick_move(), Some(StopReason::Cancelled));
        assert_eq!(c.stopped(), Some(StopReason::Cancelled));
    }

    #[test]
    fn shared_deadline_overrides_budget_wall() {
        // budget says 0ms, but the explicit deadline is far away: the
        // shared deadline wins.
        let far = Instant::now() + Duration::from_secs(3600);
        let c = RunClock::with_shared(&Budget::wall_ms(0), &FaultPlan::none(), Some(far), None);
        assert_eq!(c.check_wall(), None);
        // And an already-expired shared deadline trips immediately.
        let c = RunClock::with_shared(
            &Budget::none(),
            &FaultPlan::none(),
            Some(Instant::now()),
            None,
        );
        assert_eq!(c.check_wall(), Some(StopReason::BudgetExhausted));
    }

    #[test]
    fn shared_clock_still_enforces_move_budget() {
        let c = RunClock::with_shared(
            &Budget::none().with_max_moves(2),
            &FaultPlan::none(),
            None,
            None,
        );
        assert_eq!(c.tick_move(), None);
        assert_eq!(c.tick_move(), Some(StopReason::BudgetExhausted));
    }

    #[test]
    fn describe_names_the_limit() {
        assert_eq!(Budget::wall_ms(50).describe(), "wall 50ms");
        assert_eq!(Budget::none().with_max_moves(9).describe(), "9 moves");
        assert_eq!(Budget::none().describe(), "unlimited");
        assert!(Budget::wall_ms(1).is_limited());
        assert!(!Budget::none().is_limited());
    }
}
