//! Differential harness: independent implementations that claim to
//! compute the same thing must produce *certificate-identical*
//! solutions — compared byte-for-byte through the serialized
//! [`SolutionCertificate`], so every claim (placement, masks, cut set,
//! areas, terminals, metrics) is covered at once.
//!
//! Two equivalences, each over the fixed seed matrix [`SEEDS`] (the
//! seeds CI pins; see DESIGN.md §10):
//!
//! * **GainBuckets ≡ LazyHeap** — the incremental gain-bucket ladder
//!   and the lazy-heap baseline select identical move sequences
//!   (LIFO + lowest-cell-id tie order), so the winning solutions match.
//! * **jobs 1 ≡ jobs 8** — the parallel portfolio engine's determinism
//!   contract: thread count never changes the winning solution.

use netpart::prelude::*;
use netpart::verify::gen;

/// The pinned differential seed matrix. Changing these invalidates the
/// cross-references in DESIGN.md §10 — update both together.
const SEEDS: [u64; 3] = [11, 29, 47];

fn cert_text(hg: &Hypergraph, cfg: &BipartitionConfig, runs: usize) -> String {
    run_many(hg, cfg, runs)
        .expect("suite circuit partitions")
        .certificate(hg, cfg)
        .expect("winner exports a placement")
        .to_text()
}

#[test]
fn gain_buckets_and_lazy_heap_are_certificate_identical() {
    for seed in SEEDS {
        for mode in [ReplicationMode::None, ReplicationMode::functional(0)] {
            let hg = gen::mapped(350, 30, seed);
            let base = BipartitionConfig::equal(&hg, 0.1)
                .with_seed(seed)
                .with_replication(mode);
            let buckets = cert_text(
                &hg,
                &base.clone().with_selection(SelectionStrategy::GainBuckets),
                3,
            );
            let heap = cert_text(
                &hg,
                &base.clone().with_selection(SelectionStrategy::LazyHeap),
                3,
            );
            assert_eq!(
                buckets, heap,
                "strategies diverged at seed {seed} with {mode:?}"
            );
        }
    }
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
    // The engine wraps `run_start`; for any seed the sequential harness
    // and a one-worker portfolio must elect the same winner.
    for seed in SEEDS {
        let hg = gen::mapped(300, 25, seed);
        let cfg = BipartitionConfig::equal(&hg, 0.1).with_seed(seed);
        let seq = cert_text(&hg, &cfg, 5);
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
