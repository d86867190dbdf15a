//! Deterministic fault injection for resilience testing.
//!
//! A [`FaultPlan`] tells the engine to *pretend* a resource died after a
//! fixed amount of work: the [`RunClock`](crate::RunClock) reports
//! [`StopReason::FaultInjected`](crate::StopReason::FaultInjected) at
//! the configured checkpoint, and the driver must then behave exactly as
//! it would on a real mid-run interruption — return the best solution
//! found so far with a degradation report, or a typed error, but never
//! panic. The fault-injection test harness (`tests/fault_injection.rs`)
//! sweeps kill points across the engine's checkpoints to verify that
//! contract.
//!
//! Plans are plain data and deterministic: the same plan on the same
//! input always kills at the same checkpoint.

/// A deterministic fault-injection plan. [`FaultPlan::none`] (the
/// default) injects nothing.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Report a fault once this many FM moves have been applied. Like
    /// [`Budget::max_moves`](crate::Budget::max_moves), this counts only
    /// the moves the passes make.
    pub kill_after_moves: Option<u64>,
    /// Report a fault once this many FM passes have completed.
    pub kill_after_passes: Option<u64>,
    /// Report a fault once this many k-way carve attempts have started.
    pub kill_after_attempts: Option<u64>,
    /// In a parallel portfolio, make the worker that claims this start
    /// index die before running it (the start is lost, the worker's
    /// thread exits early; the engine must still join cleanly and report
    /// the shortfall).
    pub kill_start: Option<u64>,
    /// In a parallel portfolio, panic inside the worker thread that
    /// claims this start index — exercising the engine's
    /// catch-and-convert contract (a worker panic must surface as a
    /// typed error or degraded result, never a process abort or hang).
    pub panic_in_worker: Option<u64>,
    /// Crash the serving process (`kill -9` semantics: no cleanup, no
    /// destructors) immediately *after* the named journal transition is
    /// made durable. Labels are the `netpart-serve` journal record
    /// types (`submit`, `claim`, `start`, `done`, `fail`, `retry`,
    /// `quarantine`) plus the artifact checkpoints `artifact` and
    /// `cache`; the recovery test matrix sweeps them all.
    pub crash_after: Option<String>,
    /// Tear the `n`-th durable write (1-based, counted across journal
    /// appends and atomic artifact writes): only a prefix of the bytes
    /// reaches disk and the process then crashes. Recovery must detect
    /// the torn record/stray temp file and never trust it.
    pub torn_write: Option<u64>,
    /// Fail the `n`-th durable write (1-based) with a disk-full I/O
    /// error instead of writing anything. The server must degrade to a
    /// typed failure (retry or clean shutdown), never a corrupt
    /// artifact.
    pub disk_full: Option<u64>,
}

impl FaultPlan {
    /// A plan that injects no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether any fault is armed.
    pub fn is_armed(&self) -> bool {
        self.kill_after_moves.is_some()
            || self.kill_after_passes.is_some()
            || self.kill_after_attempts.is_some()
            || self.kill_start.is_some()
            || self.panic_in_worker.is_some()
            || self.crash_after.is_some()
            || self.torn_write.is_some()
            || self.disk_full.is_some()
    }

    /// Arms a kill after `n` applied FM moves.
    pub fn kill_after_moves(mut self, n: u64) -> Self {
        self.kill_after_moves = Some(n);
        self
    }

    /// Arms a kill after `n` completed FM passes.
    pub fn kill_after_passes(mut self, n: u64) -> Self {
        self.kill_after_passes = Some(n);
        self
    }

    /// Arms a kill after `n` k-way carve attempts.
    pub fn kill_after_attempts(mut self, n: u64) -> Self {
        self.kill_after_attempts = Some(n);
        self
    }

    /// Arms a worker death at portfolio start index `i` (engine-level
    /// checkpoint; sequential drivers ignore it).
    pub fn kill_start(mut self, i: u64) -> Self {
        self.kill_start = Some(i);
        self
    }

    /// Arms a deliberate panic in the worker that claims portfolio start
    /// index `i` (engine-level checkpoint; sequential drivers ignore it).
    pub fn panic_in_worker(mut self, i: u64) -> Self {
        self.panic_in_worker = Some(i);
        self
    }

    /// Arms a process crash right after journal transition `label` is
    /// made durable (serve-level checkpoint; algorithm drivers ignore
    /// it).
    pub fn crash_after(mut self, label: impl Into<String>) -> Self {
        self.crash_after = Some(label.into());
        self
    }

    /// Arms a torn write on the `n`-th durable write (1-based,
    /// serve-level checkpoint).
    pub fn torn_write(mut self, n: u64) -> Self {
        self.torn_write = Some(n);
        self
    }

    /// Arms a disk-full failure on the `n`-th durable write (1-based,
    /// serve-level checkpoint).
    pub fn disk_full(mut self, n: u64) -> Self {
        self.disk_full = Some(n);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_arm_the_plan() {
        assert!(!FaultPlan::none().is_armed());
        assert!(FaultPlan::none().kill_after_moves(1).is_armed());
        assert!(FaultPlan::none().kill_after_passes(2).is_armed());
        assert!(FaultPlan::none().kill_after_attempts(3).is_armed());
        assert!(FaultPlan::none().kill_start(0).is_armed());
        assert!(FaultPlan::none().panic_in_worker(1).is_armed());
        assert!(FaultPlan::none().crash_after("done").is_armed());
        assert!(FaultPlan::none().torn_write(1).is_armed());
        assert!(FaultPlan::none().disk_full(2).is_armed());
        let p = FaultPlan::none().kill_after_moves(7).kill_after_attempts(9);
        assert_eq!(p.kill_after_moves, Some(7));
        assert_eq!(p.kill_after_passes, None);
        assert_eq!(p.kill_after_attempts, Some(9));
        assert_eq!(p.kill_start, None);
        assert_eq!(p.panic_in_worker, None);
    }
}
