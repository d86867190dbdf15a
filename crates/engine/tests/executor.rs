//! Executor paths the everyday determinism suite does not reach: the
//! perfect-cut early exit, the k-way rescue phase, invalid and
//! unsatisfiable requests, the per-worker FM pass counts of k-way
//! tasks, and the multi-start statistics Table III reports.

use netpart_core::{BipartitionConfig, KWayConfig, PartitionError, ReplicationMode};
use netpart_engine::Engine;
use netpart_fpga::{Device, DeviceLibrary};
use netpart_hypergraph::{AdjacencyMatrix, CellKind, Hypergraph, HypergraphBuilder};
use netpart_netlist::{generate, GeneratorConfig};
use netpart_techmap::{map, MapperConfig};

fn mapped(gates: usize, dffs: usize, seed: u64) -> Hypergraph {
    let nl = generate(&GeneratorConfig::new(gates).with_dff(dffs).with_seed(seed));
    map(&nl, &MapperConfig::xc3000())
        .expect("generator output maps cleanly")
        .to_hypergraph(&nl)
}

/// Two disconnected rings of `half` unit-area cells: splitting them
/// apart is a balanced bipartition with cut 0.
fn two_rings(half: usize) -> Hypergraph {
    let mut b = HypergraphBuilder::new();
    for ring in 0..2 {
        let cells: Vec<_> = (0..half)
            .map(|i| {
                let name = format!("r{ring}c{i}");
                b.add_cell(name, CellKind::logic(1), 1, 1, AdjacencyMatrix::full(1, 1))
            })
            .collect();
        for (i, &cell) in cells.iter().enumerate() {
            let net = b.add_net(format!("r{ring}n{i}"));
            b.connect_output(net, cell, 0).expect("fresh net");
            b.connect_input(net, cells[(i + 1) % half], 0)
                .expect("fresh pin");
        }
    }
    b.finish().expect("rings build")
}

#[test]
fn a_perfect_cut_ends_the_portfolio_at_every_jobs_level() {
    let hg = two_rings(10);
    let cfg = BipartitionConfig::equal(&hg, 0.1).with_seed(3);
    let n = 8;
    let run = |jobs: usize| {
        Engine::new(jobs)
            .bipartition_many(&hg, &cfg, n)
            .expect("portfolio runs")
            .0
    };
    let reference = run(1);
    let last = reference.results.last().expect("a recorded start");
    assert_eq!(
        (last.result.cut, last.result.balanced),
        (0, true),
        "the portfolio stops at the first perfect start"
    );
    assert_eq!(reference.best_start(), last.index);
    assert!(
        (2..n).contains(&reference.results.len()),
        "starts before the perfect one are kept, later ones skipped"
    );
    assert_eq!(reference.degradation.requested, reference.results.len());
    assert!(!reference.degradation.is_degraded());
    for jobs in [2, 8] {
        let r = run(jobs);
        assert_eq!(
            r.fingerprint(&hg),
            reference.fingerprint(&hg),
            "early-exit set diverged at jobs={jobs}"
        );
        assert_eq!(r.degradation, reference.degradation);
    }
}

/// A one-device library whose utilization floor the base carve cannot
/// meet, so only the escalation ladder finds a feasible plan.
fn rescue_case() -> (Hypergraph, KWayConfig) {
    let hg = mapped(150, 7, 5);
    let lib = DeviceLibrary::new(vec![Device::new("F", 45, 200, 10, 0.9, 1.0)]);
    let cfg = KWayConfig::new(lib)
        .with_candidates(2)
        .with_max_attempts(4)
        .with_max_passes(4)
        .with_seed(1);
    (hg, cfg)
}

#[test]
fn the_rescue_phase_is_jobs_invariant() {
    let (hg, cfg) = rescue_case();
    let cert = |jobs: usize| {
        let (r, _) = Engine::new(jobs)
            .kway(&hg, &cfg, 2)
            .expect("the ladder rescues");
        assert!(
            r.rescued,
            "jobs={jobs}: the winner comes from the rescue phase"
        );
        r.certificate(&hg, &cfg).to_text()
    };
    let reference = cert(1);
    for jobs in [2, 8] {
        assert_eq!(cert(jobs), reference, "rescued certificate at jobs={jobs}");
    }
}

#[test]
fn without_escalation_the_rescue_case_is_infeasible() {
    let (hg, cfg) = rescue_case();
    match Engine::new(2).kway(&hg, &cfg.with_escalation(false), 2) {
        Err(PartitionError::InfeasibleLibrary { .. }) => {}
        other => panic!("expected InfeasibleLibrary, got {other:?}"),
    }
}

#[test]
fn invalid_requests_are_typed_invalid_input() {
    let hg = mapped(120, 6, 3);
    let engine = Engine::new(2);
    let bcfg = BipartitionConfig::equal(&hg, 0.1);
    let kcfg = KWayConfig::new(DeviceLibrary::xc3000());
    let empty = HypergraphBuilder::new()
        .finish()
        .expect("an empty graph builds");
    let ecfg = BipartitionConfig::equal(&empty, 0.1);
    let outcomes = [
        ("n = 0", engine.bipartition_many(&hg, &bcfg, 0).err()),
        ("tasks = 0", engine.kway(&hg, &kcfg, 0).err()),
        (
            "empty bipartition",
            engine.bipartition_many(&empty, &ecfg, 4).err(),
        ),
        ("empty kway", engine.kway(&empty, &kcfg, 4).err()),
    ];
    for (label, err) in outcomes {
        assert!(
            matches!(err, Some(PartitionError::InvalidInput { .. })),
            "{label}: {err:?}"
        );
    }
}

#[test]
fn kway_workers_count_fm_passes() {
    let hg = mapped(800, 40, 11);
    let cfg = KWayConfig::new(DeviceLibrary::xc3000())
        .with_candidates(2)
        .with_seed(4);
    let passes = |jobs: usize| -> u64 {
        let (r, _) = Engine::new(jobs)
            .kway(&hg, &cfg, 2)
            .expect("portfolio runs");
        r.workers.iter().map(|w| w.passes).sum()
    };
    let one = passes(1);
    assert!(one > 0, "k-way tasks run FM passes");
    assert_eq!(passes(8), one, "pass totals are per-task deterministic");
}

#[test]
fn impossible_bounds_are_infeasible_not_a_panic() {
    let hg = mapped(100, 20, 1);
    // Both sides must exceed the total area: unsatisfiable.
    let total = hg.total_area();
    let cfg = BipartitionConfig::bounded([total, total], [2 * total, 2 * total]);
    match Engine::new(1).bipartition_many(&hg, &cfg, 3) {
        Err(PartitionError::InfeasibleLibrary { attempts, .. }) => assert_eq!(attempts, 3),
        other => panic!("expected InfeasibleLibrary, got {other:?}"),
    }
}

#[test]
fn replication_beats_plain_on_average() {
    let hg = mapped(400, 20, 6);
    let base = BipartitionConfig::equal(&hg, 0.1).with_seed(1);
    let avg = |mode: ReplicationMode| {
        Engine::new(2)
            .bipartition_many(&hg, &base.clone().with_replication(mode), 5)
            .expect("portfolio runs")
            .0
            .avg_cut()
    };
    let (plain, repl) = (
        avg(ReplicationMode::None),
        avg(ReplicationMode::functional(0)),
    );
    assert!(
        repl <= plain,
        "functional replication should help on average: {repl} vs {plain}"
    );
}

#[test]
fn best_cut_is_at_most_the_average_cut() {
    let hg = mapped(300, 20, 2);
    let cfg = BipartitionConfig::equal(&hg, 0.1).with_seed(10);
    let (r, _) = Engine::new(2)
        .bipartition_many(&hg, &cfg, 5)
        .expect("portfolio runs");
    assert_eq!(r.results.len(), 5);
    assert!(r.best_cut() as f64 <= r.avg_cut());
    assert!(r.best().balanced);
    assert_eq!(r.avg_replicated(), 0.0);
    assert!(!r.degradation.is_degraded());
}
