//! Worker-thread fault injection: kill points *inside* the portfolio's
//! worker loop. The contract under test is the engine's join-safety
//! guarantee — a lost or panicking worker must never hang the portfolio
//! or abort the process; the engine joins every worker and returns
//! either a typed error or a degraded best-so-far solution with
//! `fault_injected` set.

use netpart_core::{BipartitionConfig, FaultPlan, KWayConfig, PartitionError};
use netpart_engine::{Engine, PortfolioResult};
use netpart_fpga::DeviceLibrary;
use netpart_hypergraph::Hypergraph;
use netpart_netlist::{generate, GeneratorConfig};
use netpart_techmap::{map, MapperConfig};
use std::sync::Arc;

fn bipartition(
    hg: &Hypergraph,
    cfg: &BipartitionConfig,
    n: usize,
    jobs: usize,
) -> Result<Arc<PortfolioResult>, PartitionError> {
    Engine::new(jobs)
        .bipartition_many(hg, cfg, n)
        .map(|(r, _)| r)
}

fn mapped(gates: usize, seed: u64) -> Hypergraph {
    let nl = generate(&GeneratorConfig::new(gates).with_dff(10).with_seed(seed));
    map(&nl, &MapperConfig::xc3000())
        .expect("generator output maps cleanly")
        .to_hypergraph(&nl)
}

/// Every outcome a fault sweep may legally produce: a degraded solution
/// that admits the fault, or a typed error. Anything else (a panic, a
/// hang, a clean result that hides the fault) fails the test.
fn assert_admits_fault<T>(
    outcome: &Result<T, PartitionError>,
    degraded: impl Fn(&T) -> bool,
    label: &str,
) {
    match outcome {
        Ok(r) => assert!(degraded(r), "{label}: solution must report the fault"),
        Err(PartitionError::BudgetExhausted { budget, .. }) => {
            assert_eq!(budget, "injected fault", "{label}: typed fault error");
        }
        Err(e) => panic!("{label}: unexpected error kind {e:?}"),
    }
}

#[test]
fn bipartition_survives_a_killed_worker_at_every_start() {
    let hg = mapped(200, 1);
    let n = 6;
    for kill in 0..n {
        let cfg = BipartitionConfig::equal(&hg, 0.1)
            .with_seed(4)
            .with_fault(FaultPlan::none().kill_start(kill as u64));
        let outcome = bipartition(&hg, &cfg, n, 4);
        assert_admits_fault(
            &outcome,
            |r| r.degradation.fault_injected,
            &format!("kill_start({kill})"),
        );
        if let Ok(r) = &outcome {
            assert!(
                r.results.iter().all(|s| s.index != kill),
                "the killed start must not be recorded"
            );
            assert!(r.degradation.completed < n, "a start was lost");
        }
    }
}

#[test]
fn bipartition_survives_a_panicking_worker_at_every_start() {
    let hg = mapped(200, 2);
    let n = 6;
    for target in 0..n {
        let cfg = BipartitionConfig::equal(&hg, 0.1)
            .with_seed(4)
            .with_fault(FaultPlan::none().panic_in_worker(target as u64));
        let outcome = bipartition(&hg, &cfg, n, 4);
        assert_admits_fault(
            &outcome,
            |r| r.degradation.fault_injected,
            &format!("panic_in_worker({target})"),
        );
        if let Ok(r) = &outcome {
            assert!(
                r.results.iter().all(|s| s.index != target),
                "the panicked start must not be recorded"
            );
        }
    }
}

#[test]
fn a_lone_worker_killed_at_the_first_start_is_a_typed_error() {
    let hg = mapped(120, 3);
    let cfg = BipartitionConfig::equal(&hg, 0.1).with_fault(FaultPlan::none().kill_start(0));
    // jobs=1: the only worker dies before running anything.
    match bipartition(&hg, &cfg, 4, 1) {
        Err(PartitionError::BudgetExhausted { budget, completed }) => {
            assert_eq!(budget, "injected fault");
            assert_eq!(completed, 0);
        }
        other => panic!("expected a typed fault error, got {other:?}"),
    }
}

#[test]
fn per_start_fault_plans_stay_jobs_invariant() {
    // kill_after_moves trips *inside* each start at a deterministic
    // point, so unlike worker-death faults the outcome must be
    // byte-identical across thread counts.
    let hg = mapped(200, 5);
    let cfg = BipartitionConfig::equal(&hg, 0.1)
        .with_seed(6)
        .with_fault(FaultPlan::none().kill_after_moves(25));
    let reference = bipartition(&hg, &cfg, 4, 1);
    for jobs in [2, 4, 8] {
        let r = bipartition(&hg, &cfg, 4, jobs);
        match (&reference, &r) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.fingerprint(&hg), b.fingerprint(&hg));
                assert_eq!(a.degradation, b.degradation);
                assert!(b.degradation.fault_injected);
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            other => panic!("jobs={jobs} diverged: {other:?}"),
        }
    }
}

#[test]
fn kway_survives_killed_and_panicking_workers() {
    let hg = mapped(400, 7);
    let base = KWayConfig::new(DeviceLibrary::xc3000())
        .with_candidates(3)
        .with_seed(1)
        .with_max_passes(6);
    let tasks = 3;
    for target in 0..tasks {
        for plan in [
            FaultPlan::none().kill_start(target as u64),
            FaultPlan::none().panic_in_worker(target as u64),
        ] {
            let cfg = base.clone().with_fault(plan.clone());
            let outcome = Engine::new(4).kway(&hg, &cfg, tasks).map(|(r, _)| r);
            assert_admits_fault(
                &outcome,
                |r| r.result.degradation.fault_injected,
                &format!("kway task {target} under {plan:?}"),
            );
            if let Ok(r) = &outcome {
                assert_ne!(r.winner, target, "a lost task cannot win");
                assert!(r.feasible_tasks < tasks);
            }
        }
    }
}
