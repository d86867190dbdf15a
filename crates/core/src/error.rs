//! The typed error taxonomy and degradation reporting of the resilient
//! partitioning driver.
//!
//! The paper's flow — multi-start FM bipartitioning driven recursively
//! into a heterogeneous device library — can fail in ways that are *not*
//! bugs: the feasibility system `l_i·c_i ≤ |P_j| ≤ u_i·c_i`, `t_Pj ≤ t_i`
//! may be unsatisfiable for a given circuit/library pair, inputs may be
//! malformed, and randomized multi-start runs may exhaust their time
//! budget before converging. Every driver entry point reports those
//! conditions as a [`PartitionError`] (or as a best-so-far solution with
//! a [`Degradation`] report) instead of panicking.

use std::error::Error;
use std::fmt;

/// A typed partitioning failure.
///
/// The four variants partition the failure space:
///
/// * [`InvalidInput`](PartitionError::InvalidInput) — the caller handed
///   us something malformed (empty circuit, bad configuration value);
///   fix the input.
/// * [`InfeasibleLibrary`](PartitionError::InfeasibleLibrary) — the
///   input is well-formed but the constraint system (device feasibility
///   windows, terminal capacities, area bounds) admits no solution even
///   after every relaxation the driver is willing to make; fix the
///   library or the constraints.
/// * [`BudgetExhausted`](PartitionError::BudgetExhausted) — a run budget
///   expired before *any* usable solution existed (when a best-so-far
///   solution exists, drivers return it with a [`Degradation`] report
///   instead of this error); raise the budget.
/// * [`InternalInvariant`](PartitionError::InternalInvariant) — a bug:
///   an invariant the engine maintains itself was observed broken.
///   Please report it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionError {
    /// The input (netlist, hypergraph or configuration) is malformed.
    InvalidInput {
        /// What was wrong with it.
        what: String,
    },
    /// No feasible solution exists under the given device library /
    /// constraint system, even after the escalation ladder.
    InfeasibleLibrary {
        /// Why feasibility is out of reach.
        reason: String,
        /// Carve/solve attempts made before giving up (0 when the
        /// infeasibility was detected statically).
        attempts: usize,
    },
    /// A budget (wall-clock, pass or move count) expired before any
    /// usable solution was found.
    BudgetExhausted {
        /// The budget that expired, human-readable (e.g. `"wall 50ms"`).
        budget: String,
        /// Work completed before exhaustion (starts, attempts, …).
        completed: usize,
    },
    /// An engine invariant was violated — a bug in netpart itself.
    InternalInvariant {
        /// The violated invariant.
        what: String,
    },
}

impl PartitionError {
    /// Shorthand constructor for [`PartitionError::InvalidInput`].
    pub fn invalid_input(what: impl Into<String>) -> Self {
        PartitionError::InvalidInput { what: what.into() }
    }

    /// Shorthand constructor for [`PartitionError::InternalInvariant`].
    pub fn internal(what: impl Into<String>) -> Self {
        PartitionError::InternalInvariant { what: what.into() }
    }

    /// The conventional process exit code for this error kind (used by
    /// the `netpart` CLI and documented in README.md): `2` invalid
    /// input, `3` infeasible, `4` budget exhausted, `5` internal.
    pub fn exit_code(&self) -> i32 {
        match self {
            PartitionError::InvalidInput { .. } => 2,
            PartitionError::InfeasibleLibrary { .. } => 3,
            PartitionError::BudgetExhausted { .. } => 4,
            PartitionError::InternalInvariant { .. } => 5,
        }
    }
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::InvalidInput { what } => write!(f, "invalid input: {what}"),
            PartitionError::InfeasibleLibrary { reason, attempts } => {
                write!(f, "infeasible under the device library: {reason}")?;
                if *attempts > 0 {
                    write!(f, " (after {attempts} attempts)")?;
                }
                Ok(())
            }
            PartitionError::BudgetExhausted { budget, completed } => write!(
                f,
                "budget exhausted ({budget}) with no usable solution ({completed} unit(s) of work completed)"
            ),
            PartitionError::InternalInvariant { what } => {
                write!(f, "internal invariant violated (bug): {what}")
            }
        }
    }
}

impl Error for PartitionError {}

impl From<netpart_hypergraph::BuildError> for PartitionError {
    fn from(e: netpart_hypergraph::BuildError) -> Self {
        PartitionError::InvalidInput {
            what: e.to_string(),
        }
    }
}

impl From<netpart_fpga::FpgaError> for PartitionError {
    fn from(e: netpart_fpga::FpgaError) -> Self {
        match &e {
            netpart_fpga::FpgaError::EmptyLibrary
            | netpart_fpga::FpgaError::InvalidDevice { .. } => PartitionError::InvalidInput {
                what: e.to_string(),
            },
            netpart_fpga::FpgaError::MissingDeviceAssignment { .. }
            | netpart_fpga::FpgaError::DeviceIndexOutOfRange { .. } => {
                PartitionError::InternalInvariant {
                    what: e.to_string(),
                }
            }
        }
    }
}

/// Why a run stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum StopReason {
    /// No pass improved the objective any further.
    #[default]
    Converged,
    /// The configured pass limit was reached while still improving.
    PassLimit,
    /// A wall-clock or move budget expired mid-run.
    BudgetExhausted,
    /// An injected fault (test harness) aborted the run.
    FaultInjected,
    /// A cooperative cancellation request (another worker in a parallel
    /// portfolio tripped the shared budget or made further work
    /// pointless) stopped the run.
    Cancelled,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::Converged => write!(f, "converged"),
            StopReason::PassLimit => write!(f, "pass limit"),
            StopReason::BudgetExhausted => write!(f, "budget exhausted"),
            StopReason::FaultInjected => write!(f, "fault injected"),
            StopReason::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// One constraint relaxation a k-way solution was reached under: a rung
/// of the escalation ladder, or a request the multilevel k-way driver
/// could not honour.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Relaxation {
    /// The attempt pool was re-seeded and extended past
    /// [`KWayConfig::max_attempts`](crate::KWayConfig::max_attempts).
    Reseeded {
        /// Extra attempts granted.
        extra_attempts: usize,
    },
    /// The per-device lower utilization bound `l_i` was relaxed to 0
    /// (parts may underfill their device).
    RelaxedFloor,
    /// Device selection switched from cheapest-fitting to
    /// largest-fitting, trading device cost for terminal headroom.
    NextLargerDevice,
    /// The multilevel k-way driver coarsened the circuit, so the carve
    /// and every refinement rung were move-only: the requested
    /// replication was not performed and no cell has a replica.
    CoarsenedWithoutReplication,
}

impl fmt::Display for Relaxation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Relaxation::Reseeded { extra_attempts } => {
                write!(f, "re-seeded with {extra_attempts} extra attempts")
            }
            Relaxation::RelaxedFloor => {
                write!(f, "relaxed the l_i lower utilization floor to 0")
            }
            Relaxation::NextLargerDevice => {
                write!(
                    f,
                    "escalated to larger devices (cost traded for feasibility)"
                )
            }
            Relaxation::CoarsenedWithoutReplication => {
                write!(
                    f,
                    "partitioned without replication because the circuit was coarsened"
                )
            }
        }
    }
}

/// How (and how much) a returned solution degraded from the request.
///
/// A default (all-zero / empty) report means the run completed exactly
/// as requested; [`Degradation::is_degraded`] is the quick check.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Degradation {
    /// Starts (or feasible candidates) the caller asked for.
    pub requested: usize,
    /// Starts (or feasible candidates) actually completed.
    pub completed: usize,
    /// Whether a budget expired before the requested work finished.
    pub budget_exhausted: bool,
    /// Whether an injected fault cut the run short.
    pub fault_injected: bool,
    /// Constraint relaxations performed, in escalation order; the
    /// multilevel k-way driver appends
    /// [`Relaxation::CoarsenedWithoutReplication`] last.
    pub relaxations: Vec<Relaxation>,
}

impl Degradation {
    /// A report for a run that completed `n` of `n` units un-degraded.
    pub fn complete(n: usize) -> Self {
        Degradation {
            requested: n,
            completed: n,
            ..Degradation::default()
        }
    }

    /// Whether the solution deviates from what was requested.
    pub fn is_degraded(&self) -> bool {
        self.budget_exhausted
            || self.fault_injected
            || !self.relaxations.is_empty()
            || self.completed < self.requested
    }
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.is_degraded() {
            return write!(f, "complete ({}/{} starts)", self.completed, self.requested);
        }
        write!(f, "degraded: {}/{} starts", self.completed, self.requested)?;
        if self.budget_exhausted {
            write!(f, ", budget exhausted")?;
        }
        if self.fault_injected {
            write!(f, ", fault injected")?;
        }
        for r in &self.relaxations {
            write!(f, ", {r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_exit_codes() {
        let errs = [
            PartitionError::invalid_input("empty circuit"),
            PartitionError::InfeasibleLibrary {
                reason: "400 CLBs exceed every device".into(),
                attempts: 7,
            },
            PartitionError::BudgetExhausted {
                budget: "wall 50ms".into(),
                completed: 0,
            },
            PartitionError::internal("gain mismatch"),
        ];
        let codes: Vec<i32> = errs.iter().map(PartitionError::exit_code).collect();
        assert_eq!(codes, vec![2, 3, 4, 5]);
        for e in &errs {
            assert!(!e.to_string().is_empty());
            assert!(e.to_string().chars().next().is_some_and(char::is_lowercase));
        }
        assert!(errs[1].to_string().contains("after 7 attempts"));
    }

    #[test]
    fn degradation_report_semantics() {
        let ok = Degradation::complete(20);
        assert!(!ok.is_degraded());
        assert!(ok.to_string().contains("complete"));

        let mut d = Degradation {
            requested: 20,
            completed: 3,
            budget_exhausted: true,
            ..Degradation::default()
        };
        d.relaxations.push(Relaxation::RelaxedFloor);
        d.relaxations.push(Relaxation::CoarsenedWithoutReplication);
        assert!(d.is_degraded());
        let s = d.to_string();
        assert!(s.contains("3/20"));
        assert!(s.contains("budget exhausted"));
        assert!(s.contains("utilization floor"));
        assert!(s.ends_with(", partitioned without replication because the circuit was coarsened"));
    }

    #[test]
    fn conversions_preserve_kind() {
        let b = netpart_hypergraph::BuildError::MissingDriver(netpart_hypergraph::NetId(3));
        assert!(matches!(
            PartitionError::from(b),
            PartitionError::InvalidInput { .. }
        ));
        let f = netpart_fpga::FpgaError::EmptyLibrary;
        assert!(matches!(
            PartitionError::from(f),
            PartitionError::InvalidInput { .. }
        ));
        let f = netpart_fpga::FpgaError::MissingDeviceAssignment {
            parts: 3,
            devices: 1,
        };
        assert!(matches!(
            PartitionError::from(f),
            PartitionError::InternalInvariant { .. }
        ));
    }
}
