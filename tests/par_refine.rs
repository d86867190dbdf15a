//! Jobs-invariance of the deterministic intra-run parallel refiner:
//! `--jobs N` must be byte-identical to `--jobs 1` — refined side
//! vectors, outcome telemetry and serialized certificates — because
//! proposal regions are fixed independently of the worker count and
//! commits replay in fixed region order. Pinned over the differential
//! seed matrix, on both flat-portfolio and multilevel-initialized
//! solutions.

use netpart::core::{par_refine_sides, BipartitionConfig, EngineState};
use netpart::engine::Engine;
use netpart::multilevel::MultilevelConfig;
use netpart::obs::NoopRecorder;
use netpart::verify::gen;

/// The pinned differential seed matrix (see `tests/differential.rs`).
const SEEDS: [u64; 3] = [11, 29, 47];

const JOBS: [usize; 3] = [1, 2, 8];

#[test]
fn refined_sides_and_outcomes_are_jobs_invariant() {
    for seed in SEEDS {
        let hg = gen::mapped(400, 35, seed);
        let cfg = BipartitionConfig::equal(&hg, 0.1).with_seed(seed);
        let base = netpart::core::bipartition(&hg, &cfg);
        assert!(base.balanced);
        let pl = base.placement.as_ref().expect("replication-free");
        let sides0: Vec<u8> = hg
            .cell_ids()
            .map(|c| pl.part_of(c).expect("single copy").0 as u8)
            .collect();
        let mut first: Option<(Vec<u8>, netpart::core::ParRefineOutcome)> = None;
        for jobs in JOBS {
            let mut sides = sides0.clone();
            let out = par_refine_sides(&hg, &cfg, &mut sides, jobs, 32, &NoopRecorder);
            assert!(out.cut_after <= out.cut_before, "refiner worsened the cut");
            assert!(
                cfg.balanced(EngineState::new(&hg, &sides).areas()),
                "refiner left the area window at seed {seed}"
            );
            match &first {
                None => first = Some((sides, out)),
                Some((s1, o1)) => {
                    assert_eq!(s1, &sides, "sides diverged at jobs {jobs}, seed {seed}");
                    assert_eq!(o1, &out, "outcome diverged at jobs {jobs}, seed {seed}");
                }
            }
        }
    }
}

/// End-to-end through the engine facade: portfolio → `par_refine` →
/// certificate, compared byte-for-byte across jobs levels.
fn engine_cert(hg: &netpart::hypergraph::Hypergraph, seed: u64, jobs: usize, ml: bool) -> String {
    let cfg = BipartitionConfig::equal(hg, 0.1).with_seed(seed);
    let mut engine = Engine::new(jobs);
    if ml {
        engine = engine.with_multilevel(Some(
            MultilevelConfig::new()
                .with_min_cells(48)
                .with_max_levels(8),
        ));
    }
    let (stats, _) = engine
        .bipartition_many(hg, &cfg, 6)
        .expect("portfolio runs");
    let mut best = stats.best().clone();
    let out = engine
        .par_refine(hg, &cfg, &mut best)
        .expect("replication-free winner refines");
    assert!(out.cut_after <= out.cut_before);
    assert!(best.balanced, "refined winner left the window");
    best.certificate(hg, cfg.seed.wrapping_add(stats.best_start() as u64))
        .expect("refined winner exports a placement")
        .to_text()
}

#[test]
fn engine_par_refine_certificates_are_jobs_invariant_flat() {
    for seed in SEEDS {
        let hg = gen::mapped(400, 35, seed);
        let reference = engine_cert(&hg, seed, 1, false);
        for jobs in [2usize, 8] {
            assert_eq!(
                reference,
                engine_cert(&hg, seed, jobs, false),
                "flat certificate diverged at jobs {jobs}, seed {seed}"
            );
        }
    }
}

#[test]
fn engine_par_refine_certificates_are_jobs_invariant_multilevel() {
    for seed in SEEDS {
        let hg = gen::mapped(700, 50, seed);
        let reference = engine_cert(&hg, seed, 1, true);
        for jobs in [2usize, 8] {
            assert_eq!(
                reference,
                engine_cert(&hg, seed, jobs, true),
                "multilevel certificate diverged at jobs {jobs}, seed {seed}"
            );
        }
    }
}
