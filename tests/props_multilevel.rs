//! Property tests on the multilevel coarsening invariants: weight
//! conservation, pin-projection totality, single-pin-net elimination,
//! and cut/area exactness of projection — checked end to end through
//! the independent verifier.
//!
//! Hand-rolled generators over `netpart-rng`, as in `tests/props_board.rs`:
//! case `i` draws its parameters from `Rng::seed_from_u64(i)`, so a
//! failure report names the case that reproduces it.

use netpart::hypergraph::NetId;
use netpart::multilevel::cut_of_sides;
use netpart::prelude::*;
use netpart::verify::gen;
use netpart_rng::Rng;

/// Cases per property.
const CASES: u64 = 12;

/// A configuration that coarsens the suite's small circuits for real.
fn engaged_ml() -> MultilevelConfig {
    MultilevelConfig::new()
        .with_min_cells(48)
        .with_max_levels(8)
}

/// Every level of every chain conserves total cell weight, never keeps
/// a net spanning fewer than two clusters, and maps each coarse net's
/// endpoint set to exactly the projected fine endpoint set (no pin
/// appears from nowhere, none is lost).
#[test]
fn coarsening_invariants() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let gates = rng.gen_range(300..900);
        let dffs = rng.gen_range(0..60);
        let seed = rng.gen_range(0..5_000) as u64;
        let hg = gen::mapped(gates, dffs, seed);
        let chain = build_chain(&hg, &engaged_ml(), ReplicationMode::None, seed);
        let mut fine: &Hypergraph = &hg;
        for level in &chain {
            assert_eq!(level.hg.total_area(), fine.total_area(), "case {case}");
            assert!(level.hg.n_cells() < fine.n_cells(), "case {case}");
            // Survival: kept nets span ≥ 2 clusters; the map covers
            // exactly the kept set.
            let kept = level.net_map.iter().flatten().count();
            assert_eq!(kept, level.hg.n_nets(), "case {case}");
            for net in level.hg.nets() {
                let mut cells: Vec<u32> = net.endpoints().map(|e| e.cell.0).collect();
                cells.sort_unstable();
                cells.dedup();
                assert!(cells.len() >= 2, "case {case}: single-cluster net survived");
            }
            // Pin projection totality: a coarse net's endpoint set is
            // exactly the image of its fine net's endpoints.
            for (f, mapped) in level.net_map.iter().enumerate() {
                let Some(cn) = mapped else { continue };
                let mut projected: Vec<u32> = fine
                    .net(NetId(f as u32))
                    .endpoints()
                    .map(|e| level.cell_map[e.cell.0 as usize])
                    .collect();
                projected.sort_unstable();
                projected.dedup();
                let mut coarse: Vec<u32> = level
                    .hg
                    .net(NetId(*cn))
                    .endpoints()
                    .map(|e| e.cell.0)
                    .collect();
                coarse.sort_unstable();
                coarse.dedup();
                assert_eq!(
                    projected, coarse,
                    "case {case}: pin image mismatch on fine net {f}"
                );
            }
            fine = &level.hg;
        }
    }
}

/// Projection is cut-exact: any coarse side assignment projects to a
/// fine assignment with the identical cut at every level.
#[test]
fn projection_preserves_cut_accounting() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let gates = rng.gen_range(300..800);
        let seed = rng.gen_range(0..5_000) as u64;
        let hg = gen::mapped(gates, 30, seed);
        let chain = build_chain(&hg, &engaged_ml(), ReplicationMode::None, seed);
        let mut fine: &Hypergraph = &hg;
        for level in &chain {
            let coarse_sides: Vec<u8> = (0..level.hg.n_cells())
                .map(|_| rng.gen_below(2) as u8)
                .collect();
            let fine_sides = level.project_sides(&coarse_sides);
            assert_eq!(
                cut_of_sides(&level.hg, &coarse_sides),
                cut_of_sides(fine, &fine_sides),
                "case {case}"
            );
            fine = &level.hg;
        }
    }
}

/// End to end: every multilevel result exports a certificate the
/// independent verifier accepts, and its reported cut and areas are the
/// placement's.
#[test]
fn ml_results_verify_cleanly() {
    for case in 0..CASES {
        let seed = Rng::seed_from_u64(case).gen_range(0..2_000) as u64;
        let hg = gen::mapped(600, 40, seed);
        let cfg = BipartitionConfig::equal(&hg, 0.15)
            .with_seed(seed)
            .with_replication(ReplicationMode::functional(0));
        let res = ml_bipartition(&hg, &cfg, &engaged_ml());
        assert!(res.balanced, "case {case}");
        let p = res.placement.as_ref().expect("functional mode exports");
        assert_eq!(p.cut_size(&hg), res.cut, "case {case}");
        assert_eq!(p.part_areas(&hg), res.areas.to_vec(), "case {case}");
        let cert = res.certificate(&hg, cfg.seed).expect("exports");
        let report = verify(&hg, &cert);
        assert!(
            report.is_clean(),
            "case {case}: verifier rejected: {report:?}"
        );
    }
}
