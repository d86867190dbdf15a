//! Differential harness for the multilevel V-cycle through the engine:
//!
//! * **disabled multilevel ≡ flat** — an engine with
//!   `MultilevelConfig::disabled()` (or a `min_cells` floor the circuit
//!   never reaches) produces *certificate-identical* solutions to the
//!   flat engine, byte for byte, over the pinned seed matrix. This is
//!   the degenerate-identity contract that gives paper-suite parity by
//!   construction.
//! * **jobs 1 ≡ jobs 8 with multilevel enabled** — the V-cycle rides
//!   inside each portfolio start, so the engine's determinism contract
//!   must survive it unchanged, including when coarsening actually
//!   engages (a low `min_cells` floor forces real V-cycles here).

use netpart::prelude::*;
use netpart::verify::gen;

/// The pinned differential seed matrix (kept in lockstep with
/// `tests/differential.rs` and DESIGN.md §10).
const SEEDS: [u64; 3] = [11, 29, 47];

/// A configuration that makes the suite's small circuits coarsen for
/// real instead of falling through the `min_cells` floor.
fn engaged_ml() -> MultilevelConfig {
    MultilevelConfig::new()
        .with_min_cells(48)
        .with_max_levels(8)
}

fn engine_cert(
    hg: &Hypergraph,
    cfg: &BipartitionConfig,
    runs: usize,
    jobs: usize,
    ml: Option<MultilevelConfig>,
) -> String {
    let engine = Engine::new(jobs).with_multilevel(ml);
    let (res, _) = engine
        .bipartition_many(hg, cfg, runs)
        .expect("portfolio completes");
    res.certificate(hg, cfg)
        .expect("winner exports a placement")
        .to_text()
}

#[test]
fn disabled_multilevel_engine_is_flat_identical() {
    for seed in SEEDS {
        let hg = gen::mapped(350, 30, seed);
        let cfg = BipartitionConfig::equal(&hg, 0.1)
            .with_seed(seed)
            .with_replication(ReplicationMode::functional(0));
        let flat = engine_cert(&hg, &cfg, 4, 1, None);
        for ml in [
            MultilevelConfig::disabled(),
            MultilevelConfig::new().with_min_cells(1_000_000),
        ] {
            let multi = engine_cert(&hg, &cfg, 4, 1, Some(ml));
            assert_eq!(flat, multi, "flat/multilevel diverged at seed {seed}");
        }
    }
}

#[test]
fn multilevel_bipartition_portfolio_is_jobs_invariant() {
    for seed in SEEDS {
        let hg = gen::mapped(400, 35, seed);
        let cfg = BipartitionConfig::equal(&hg, 0.1)
            .with_seed(seed)
            .with_replication(ReplicationMode::functional(0));
        let texts: Vec<String> = [1, 8]
            .iter()
            .map(|&jobs| engine_cert(&hg, &cfg, 6, jobs, Some(engaged_ml())))
            .collect();
        assert_eq!(
            texts[0], texts[1],
            "multilevel jobs 1 vs 8 diverged at seed {seed}"
        );
    }
}

#[test]
fn multilevel_kway_portfolio_is_jobs_invariant() {
    for seed in SEEDS {
        let hg = gen::mapped(700, 60, seed);
        let cfg = KWayConfig::new(DeviceLibrary::xc3000())
            .with_candidates(2)
            .with_seed(seed)
            .with_max_passes(8);
        let texts: Vec<String> = [1, 8]
            .iter()
            .map(|&jobs| {
                let engine = Engine::new(jobs).with_multilevel(Some(engaged_ml()));
                let (res, _) = engine.kway(&hg, &cfg, 3).expect("portfolio completes");
                res.certificate(&hg, &cfg).to_text()
            })
            .collect();
        assert_eq!(
            texts[0], texts[1],
            "multilevel k-way jobs 1 vs 8 diverged at seed {seed}"
        );
    }
}
