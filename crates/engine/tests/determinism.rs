//! The portfolio engine's central contract: for a fixed seed, `--jobs N`
//! produces the byte-identical result as `--jobs 1` — including under a
//! tripped budget, where the degraded result must be deterministic in
//! the fixed-seed-order reduction.
//!
//! CI runs this suite twice, once with the default test-thread count
//! and once with `--test-threads=1`, as a loom-free cross-check that no
//! test depends on incidental scheduling.

use netpart_core::{
    BipartitionConfig, BipartitionResult, Budget, KWayConfig, PartitionError, ReplicationMode,
};
use netpart_engine::{Engine, KWayPortfolioResult, PortfolioResult};
use netpart_fpga::DeviceLibrary;
use netpart_hypergraph::Hypergraph;
use netpart_netlist::{generate, GeneratorConfig};
use netpart_techmap::{map, MapperConfig};
use std::sync::Arc;

fn mapped(gates: usize, dffs: usize, seed: u64) -> Hypergraph {
    let nl = generate(&GeneratorConfig::new(gates).with_dff(dffs).with_seed(seed));
    map(&nl, &MapperConfig::xc3000())
        .expect("generator output maps cleanly")
        .to_hypergraph(&nl)
}

const JOBS_LEVELS: [usize; 3] = [1, 2, 8];

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

fn kway(
    hg: &Hypergraph,
    cfg: &KWayConfig,
    tasks: usize,
    jobs: usize,
) -> Result<Arc<KWayPortfolioResult>, PartitionError> {
    Engine::new(jobs).kway(hg, cfg, tasks).map(|(r, _)| r)
}

#[test]
fn bipartition_portfolio_is_jobs_invariant() {
    let hg = mapped(300, 20, 2);
    let cfg = BipartitionConfig::equal(&hg, 0.1)
        .with_seed(10)
        .with_replication(ReplicationMode::functional(0));
    let reference = bipartition(&hg, &cfg, 6, 1).expect("jobs=1 baseline");
    let ref_print = reference.fingerprint(&hg);
    assert_eq!(reference.results.len(), 6, "all starts recorded");
    for jobs in JOBS_LEVELS {
        let r = bipartition(&hg, &cfg, 6, jobs).expect("portfolio runs");
        assert_eq!(
            r.fingerprint(&hg),
            ref_print,
            "jobs={jobs} must be byte-identical to jobs=1"
        );
        assert_eq!(r.best_cut(), reference.best_cut());
        assert_eq!(r.best_start(), reference.best_start());
        assert_eq!(r.degradation, reference.degradation);
    }
}

/// The sequential reference the portfolio must agree with, written
/// without the engine: start `i` is a plain `bipartition` seeded
/// `cfg.seed + i`, and the lowest balanced cut wins, ties going to the
/// lowest index.
fn sequential(hg: &Hypergraph, cfg: &BipartitionConfig, n: u64) -> (Vec<BipartitionResult>, usize) {
    let runs: Vec<_> = (0..n)
        .map(|i| netpart_core::bipartition(hg, &cfg.clone().with_seed(cfg.seed + i)))
        .collect();
    let best = (0..runs.len())
        .filter(|&i| runs[i].balanced)
        .min_by_key(|&i| (runs[i].cut, i))
        .expect("a balanced start");
    (runs, best)
}

#[test]
fn unbudgeted_portfolio_matches_the_sequential_harness() {
    let hg = mapped(300, 20, 5);
    let cfg = BipartitionConfig::equal(&hg, 0.1).with_seed(3);
    let (seq, best) = sequential(&hg, &cfg, 5);
    let par = bipartition(&hg, &cfg, 5, 4).expect("portfolio");
    assert_eq!(par.results.len(), seq.len());
    assert_eq!(par.best_cut(), seq[best].cut);
    assert_eq!(par.best_start(), best);
    for (s, p) in seq.iter().zip(par.results.iter()) {
        assert_eq!(s.cut, p.result.cut);
        assert_eq!(s.areas, p.result.areas);
        assert_eq!(s.replicated_cells, p.result.replicated_cells);
    }
}

#[test]
fn zero_wall_budget_is_degraded_and_still_jobs_invariant() {
    let hg = mapped(200, 10, 3);
    let cfg = BipartitionConfig::equal(&hg, 0.1)
        .with_seed(7)
        .with_budget(Budget::wall_ms(0));
    let reference = bipartition(&hg, &cfg, 20, 1).expect("guaranteed first start");
    let ref_print = reference.fingerprint(&hg);
    assert_eq!(
        reference.results.len(),
        1,
        "exactly the guaranteed first start"
    );
    assert!(reference.degradation.budget_exhausted);
    assert!(reference.degradation.is_degraded());
    for jobs in JOBS_LEVELS {
        let r = bipartition(&hg, &cfg, 20, jobs).expect("portfolio runs");
        assert_eq!(
            r.fingerprint(&hg),
            ref_print,
            "tripped-budget result must be byte-identical at jobs={jobs}"
        );
        assert_eq!(r.degradation, reference.degradation);
    }
}

#[test]
fn per_start_move_budget_is_jobs_invariant() {
    let hg = mapped(250, 10, 9);
    // A move allowance below one full pass: every start truncates at
    // the same deterministic point.
    let cfg = BipartitionConfig::equal(&hg, 0.1)
        .with_seed(1)
        .with_budget(Budget::none().with_max_moves(40));
    let reference = bipartition(&hg, &cfg, 4, 1);
    let ref_print = reference.as_ref().ok().map(|r| r.fingerprint(&hg));
    for jobs in JOBS_LEVELS {
        let r = bipartition(&hg, &cfg, 4, jobs);
        match (&reference, &r) {
            (Ok(a), Ok(b)) => {
                assert_eq!(Some(b.fingerprint(&hg)), ref_print);
                assert_eq!(a.degradation, b.degradation);
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            other => panic!("jobs={jobs} diverged from jobs=1: {other:?}"),
        }
    }
}

#[test]
fn kway_portfolio_is_jobs_invariant_for_fixed_tasks() {
    let hg = mapped(800, 40, 11);
    let cfg = KWayConfig::new(DeviceLibrary::xc3000())
        .with_candidates(4)
        .with_seed(1)
        .with_max_passes(8);
    let reference = kway(&hg, &cfg, 3, 1).expect("jobs=1 baseline");
    for jobs in JOBS_LEVELS {
        let r = kway(&hg, &cfg, 3, jobs).expect("portfolio runs");
        assert_eq!(r.winner, reference.winner, "winner task at jobs={jobs}");
        assert_eq!(
            r.result.evaluation.total_cost,
            reference.result.evaluation.total_cost
        );
        assert_eq!(r.result.devices, reference.result.devices);
        assert_eq!(r.feasible_tasks, reference.feasible_tasks);
        assert_eq!(r.rescued, reference.rescued);
        for c in hg.cell_ids() {
            assert_eq!(
                r.result.placement.copies(c),
                reference.result.placement.copies(c),
                "placement of cell {c:?} at jobs={jobs}"
            );
        }
    }
}

#[test]
fn engine_facade_is_jobs_invariant_too() {
    let hg = mapped(200, 10, 6);
    let cfg = BipartitionConfig::equal(&hg, 0.1).with_seed(5);
    let a = Engine::new(1)
        .bipartition_many(&hg, &cfg, 4)
        .expect("jobs=1")
        .0
        .fingerprint(&hg);
    let b = Engine::new(8)
        .bipartition_many(&hg, &cfg, 4)
        .expect("jobs=8")
        .0
        .fingerprint(&hg);
    assert_eq!(a, b);
}

#[test]
fn trace_skeleton_is_jobs_invariant() {
    // The observability contract at the library level: capture every
    // event in a BufferRecorder at each jobs level, reduce each event
    // to its deterministic skeleton (drop reserved-scope events, drop
    // timing fields), and demand identical JSONL.
    use netpart_obs::{to_jsonl, BufferRecorder, Recorder};

    let hg = mapped(400, 20, 3);
    let skeleton = |buffer: &BufferRecorder| -> String {
        let events: Vec<_> = buffer
            .take()
            .iter()
            .filter_map(netpart_obs::Event::deterministic_skeleton)
            .collect();
        assert!(!events.is_empty(), "expected a non-empty trace");
        to_jsonl(&events)
    };

    let cfg = BipartitionConfig::equal(&hg, 0.1)
        .with_seed(10)
        .with_replication(ReplicationMode::functional(0));
    let trace_bipartition = |jobs: usize| -> String {
        let buffer = Arc::new(BufferRecorder::new());
        let recorder: Arc<dyn Recorder> = Arc::clone(&buffer) as Arc<dyn Recorder>;
        Engine::new(jobs)
            .with_recorder(recorder)
            .bipartition_many(&hg, &cfg, 6)
            .expect("portfolio runs");
        skeleton(&buffer)
    };
    let reference = trace_bipartition(1);
    for jobs in JOBS_LEVELS {
        assert_eq!(
            trace_bipartition(jobs),
            reference,
            "bipartition trace skeleton diverged at jobs={jobs}"
        );
    }

    let kcfg = KWayConfig::new(DeviceLibrary::xc3000())
        .with_candidates(3)
        .with_seed(4);
    let trace_kway = |jobs: usize| -> String {
        let buffer = Arc::new(BufferRecorder::new());
        let recorder: Arc<dyn Recorder> = Arc::clone(&buffer) as Arc<dyn Recorder>;
        Engine::new(jobs)
            .with_recorder(recorder)
            .kway(&hg, &kcfg, 3)
            .expect("kway portfolio runs");
        skeleton(&buffer)
    };
    let kreference = trace_kway(1);
    for jobs in JOBS_LEVELS {
        assert_eq!(
            trace_kway(jobs),
            kreference,
            "kway trace skeleton diverged at jobs={jobs}"
        );
    }
}
