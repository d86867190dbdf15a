//! Differential harness: independent implementations that claim to
//! compute the same thing must produce *certificate-identical*
//! solutions — compared byte-for-byte through the serialized
//! [`SolutionCertificate`], so every claim (placement, masks, cut set,
//! areas, terminals, metrics) is covered at once.
//!
//! The equivalences here are the portfolio engine's determinism
//! contract — **jobs 1 ≡ jobs 8** (thread count never changes the
//! winning solution) and a test-local sequential loop ≡ one-worker
//! portfolio — over the fixed seed matrix [`SEEDS`] (the seeds CI pins;
//! see DESIGN.md §10). The gain-bucket pass ≡ lazy-heap reference check is
//! a `netpart-core` unit test, because the heap pass is test-only.

use netpart::prelude::*;
use netpart::verify::gen;

/// The pinned differential seed matrix. Changing these invalidates the
/// cross-references in DESIGN.md §10 — update both together.
const SEEDS: [u64; 3] = [11, 29, 47];

/// The winning certificate of `runs` plain `bipartition` calls seeded
/// `cfg.seed + i`: the lowest balanced cut wins, ties going to the
/// lowest index. Shares no code with the engine's starts.
fn sequential_cert_text(hg: &Hypergraph, cfg: &BipartitionConfig, runs: u64) -> String {
    let (seed, best) = (0..runs)
        .map(|i| {
            let seed = cfg.seed + i;
            (seed, bipartition(hg, &cfg.clone().with_seed(seed)))
        })
        .filter(|(_, r)| r.balanced)
        .min_by_key(|(seed, r)| (r.cut, *seed))
        .expect("a balanced start");
    best.certificate(hg, seed)
        .expect("winner exports a placement")
        .to_text()
}

#[test]
fn bipartition_portfolio_is_jobs_invariant() {
    for seed in SEEDS {
        let hg = gen::mapped(400, 35, seed);
        let cfg = BipartitionConfig::equal(&hg, 0.1)
            .with_seed(seed)
            .with_replication(ReplicationMode::functional(0));
        let texts: Vec<String> = [1, 8]
            .iter()
            .map(|&jobs| {
                Engine::new(jobs)
                    .bipartition_many(&hg, &cfg, 6)
                    .expect("portfolio completes")
                    .0
                    .certificate(&hg, &cfg)
                    .expect("winner exports a placement")
                    .to_text()
            })
            .collect();
        assert_eq!(texts[0], texts[1], "jobs 1 vs 8 diverged at seed {seed}");
    }
}

#[test]
fn kway_portfolio_is_jobs_invariant() {
    for seed in SEEDS {
        let hg = gen::mapped(700, 60, seed);
        let cfg = KWayConfig::new(DeviceLibrary::xc3000())
            .with_candidates(2)
            .with_seed(seed)
            .with_max_passes(8)
            .with_replication(ReplicationMode::functional(1));
        let texts: Vec<String> = [1, 8]
            .iter()
            .map(|&jobs| {
                Engine::new(jobs)
                    .kway(&hg, &cfg, 3)
                    .expect("portfolio completes")
                    .0
                    .certificate(&hg, &cfg)
                    .to_text()
            })
            .collect();
        assert_eq!(texts[0], texts[1], "jobs 1 vs 8 diverged at seed {seed}");
    }
}

#[test]
fn sequential_harness_matches_single_job_portfolio() {
    // For any seed, a plain loop over seeded starts and a one-worker
    // portfolio must elect the same winner.
    for seed in SEEDS {
        let hg = gen::mapped(300, 25, seed);
        let cfg = BipartitionConfig::equal(&hg, 0.1).with_seed(seed);
        let seq = sequential_cert_text(&hg, &cfg, 5);
        let par = Engine::new(1)
            .bipartition_many(&hg, &cfg, 5)
            .expect("portfolio completes")
            .0
            .certificate(&hg, &cfg)
            .expect("winner exports a placement")
            .to_text();
        assert_eq!(seq, par, "sequential vs portfolio diverged at seed {seed}");
    }
}
