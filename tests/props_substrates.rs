//! Property tests on the substrates: netlist generation, BLIF round
//! trips, decomposition, mapping invariants and placements.
//!
//! Hand-rolled generators over `netpart-rng`, as in `tests/props_board.rs`:
//! case `i` draws its parameters from `Rng::seed_from_u64(i)`, so a
//! failure report names the case that reproduces it.

use netpart::hypergraph::{CellCopy, Pin};
use netpart::prelude::*;
use netpart::techmap::Unit;
use netpart::verify::gen::gen_netlist;
use netpart_rng::Rng;

/// Cases per property.
const CASES: u64 = 24;

/// Generated netlists always validate and honour their counts.
#[test]
fn generator_respects_config() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let gates = rng.gen_range(20..300);
        let dffs = rng.gen_range(0..40);
        let clustering = rng.gen_f64();
        let seed = rng.gen_range(0..10_000) as u64;
        let nl = gen_netlist(gates, dffs, clustering, seed);
        assert!(nl.validate().is_ok(), "case {case}");
        assert_eq!(nl.n_dffs(), dffs, "case {case}");
        assert_eq!(nl.n_gates(), gates + dffs, "case {case}");
    }
}

/// BLIF write → parse preserves structure, and a second round trip is
/// a fixpoint.
#[test]
fn blif_roundtrip() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let gates = rng.gen_range(20..200);
        let dffs = rng.gen_range(0..20);
        let seed = rng.gen_range(0..10_000) as u64;
        let nl = gen_netlist(gates, dffs, 0.6, seed);
        let text = write_blif(&nl);
        let back = parse_blif(&text).expect("own output parses");
        assert_eq!(back.n_gates(), nl.n_gates(), "case {case}");
        assert_eq!(back.n_dffs(), nl.n_dffs(), "case {case}");
        assert_eq!(back.primary_inputs().len(), nl.primary_inputs().len());
        assert_eq!(back.primary_outputs().len(), nl.primary_outputs().len());
        assert_eq!(write_blif(&back), text, "case {case}: not a fixpoint");
    }
}

/// Decomposition leaves narrow gates alone and always produces a
/// mappable netlist with the same interface.
#[test]
fn decompose_is_mappable() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let k = rng.gen_range(2..5);
        let seed = rng.gen_range(0..10_000) as u64;
        let nl = gen_netlist(100, 10, 0.5, seed);
        let out = decompose_wide_gates(&nl, k);
        assert!(out.validate().is_ok(), "case {case}");
        assert!(
            out.gates().all(|g| g.kind.is_dff() || g.inputs.len() <= k),
            "case {case}: a gate wider than {k} survived"
        );
        assert_eq!(out.primary_inputs().len(), nl.primary_inputs().len());
        assert_eq!(out.primary_outputs().len(), nl.primary_outputs().len());
        assert_eq!(out.n_dffs(), nl.n_dffs());
        let cfg = MapperConfig {
            max_inputs: k,
            ..MapperConfig::xc3000()
        };
        assert!(map(&out, &cfg).is_ok(), "case {case}: unmappable");
    }
}

/// Mapping covers every DFF exactly once and every CLB respects the
/// XC3000 constraints; the emitted hypergraph is consistent.
#[test]
fn mapping_invariants() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let gates = rng.gen_range(50..300);
        let dffs = rng.gen_range(0..40);
        let seed = rng.gen_range(0..10_000) as u64;
        let nl = gen_netlist(gates, dffs, 0.7, seed);
        let cfg = MapperConfig::xc3000();
        let m = map(&nl, &cfg).expect("generated netlists map");
        let mut total_dffs = 0usize;
        for clb in &m.clbs {
            assert!(clb.units.len() <= cfg.max_outputs, "case {case}");
            let mut inputs: Vec<_> = clb
                .units
                .iter()
                .flat_map(|u| m.unit_support(&nl, u))
                .collect();
            inputs.sort_unstable();
            inputs.dedup();
            assert!(inputs.len() <= cfg.max_inputs, "case {case}");
            let dffs_here: usize = clb.units.iter().map(|u| m.unit_dffs(u)).sum();
            assert!(dffs_here <= cfg.max_dffs, "case {case}");
            total_dffs += dffs_here;
            let ext = clb
                .units
                .iter()
                .filter(|u| matches!(u, Unit::ExtReg { .. }))
                .count();
            assert!(ext <= 1, "case {case}");
        }
        assert_eq!(total_dffs, nl.n_dffs(), "case {case}");

        let hg = m.to_hypergraph(&nl);
        let s = hg.stats();
        assert_eq!(s.clbs as usize, m.n_clbs(), "case {case}");
        assert_eq!(s.dffs as usize, nl.n_dffs(), "case {case}");
        assert_eq!(
            s.iobs as usize,
            nl.primary_inputs().len() + nl.primary_outputs().len(),
            "case {case}"
        );
    }
}

/// Placement invariants: replication splits outputs exactly once,
/// floats only inputs no kept output needs, and unreplication is an
/// exact inverse for cut metrics.
#[test]
fn placement_replication_roundtrip() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let seed = rng.gen_range(0..10_000) as u64;
        let pick = rng.gen_range(0..32);
        let nl = gen_netlist(120, 10, 0.6, seed);
        let hg = map(&nl, &MapperConfig::xc3000())
            .expect("maps")
            .to_hypergraph(&nl);
        let mut p = Placement::new_uniform(&hg, 2, PartId(0));
        let two_out: Vec<CellId> = hg
            .cell_ids()
            .filter(|&c| hg.cell(c).m_outputs() == 2 && !hg.cell(c).is_terminal())
            .collect();
        if two_out.is_empty() {
            continue;
        }
        let c = two_out[pick % two_out.len()];
        let before_cut = p.cut_size(&hg);
        let before_terms = p.part_terminal_counts(&hg);

        p.replicate(&hg, c, PartId(1), 0b10).expect("valid split");
        p.validate(&hg).expect("invariants hold under replication");
        // Exactly the adjacency-implied pins are connected on each copy.
        let adj = hg.cell(c).adjacency();
        for j in 0..hg.cell(c).n_inputs() {
            let on_orig = p.pin_connected(&hg, c, 0, Pin::Input(j as u16));
            let on_repl = p.pin_connected(&hg, c, 1, Pin::Input(j as u16));
            let global = adj.is_global_input(j);
            assert_eq!(on_orig, global || adj.depends(0, j), "case {case}, pin {j}");
            assert_eq!(on_repl, global || adj.depends(1, j), "case {case}, pin {j}");
        }

        p.unreplicate(c, PartId(0)).expect("merge back");
        p.validate(&hg)
            .expect("invariants hold after unreplication");
        assert_eq!(p.cut_size(&hg), before_cut, "case {case}");
        assert_eq!(p.part_terminal_counts(&hg), before_terms, "case {case}");
        assert_eq!(
            p.copies(c),
            &[CellCopy {
                part: PartId(0),
                outputs: 0b11
            }],
            "case {case}"
        );
    }
}

/// Bipartition results always satisfy: reported cut equals the
/// placement's cut; areas match; balance honours the config.
#[test]
fn bipartition_postconditions() {
    for case in 0..CASES {
        let seed = Rng::seed_from_u64(case).gen_range(0..2_000) as u64;
        let nl = gen_netlist(150, 12, 0.7, seed);
        let hg = map(&nl, &MapperConfig::xc3000())
            .expect("maps")
            .to_hypergraph(&nl);
        let cfg = BipartitionConfig::equal(&hg, 0.15)
            .with_seed(seed)
            .with_replication(ReplicationMode::functional(0));
        let res = bipartition(&hg, &cfg);
        assert!(res.balanced, "case {case}");
        let p = res.placement.expect("functional mode exports");
        p.validate(&hg).expect("placement invariants");
        assert_eq!(p.cut_size(&hg), res.cut, "case {case}");
        assert_eq!(p.part_areas(&hg), res.areas.to_vec(), "case {case}");
        assert_eq!(
            p.replicated_cell_count(),
            res.replicated_cells,
            "case {case}"
        );
    }
}
