//! Property tests: the paper's closed-form gain model (§III, eqs. 7–11)
//! must agree exactly with the engine's cut-delta computation, on random
//! mapped circuits and random placements.
//!
//! Hand-rolled generators over `netpart-rng`, as in `tests/props_board.rs`:
//! case `i` draws its parameters from `Rng::seed_from_u64(i)`, so a
//! failure report names the case that reproduces it.

use netpart::core::gain::{
    best_functional_gain, extract_vectors, functional_gain, single_move_gain, traditional_gain,
};
use netpart::core::{CellState, EngineState};
use netpart::prelude::*;
use netpart::verify::gen::mapped_with_sides;
use netpart_rng::Rng;

/// Cases per property.
const CASES: u64 = 24;

/// True iff every pin of the cell is on a distinct net (the vector
/// model's implicit assumption).
fn distinct_nets(hg: &Hypergraph, c: CellId) -> bool {
    let cell = hg.cell(c);
    let mut nets: Vec<NetId> = cell.incident_nets().collect();
    nets.sort_unstable();
    nets.windows(2).all(|w| w[0] != w[1])
}

/// A random circuit seed in `0..seeds` and side seed in `1..seeds`.
fn draw_seeds(rng: &mut Rng, seeds: usize) -> (u64, u64) {
    (
        rng.gen_range(0..seeds) as u64,
        rng.gen_range(1..seeds) as u64,
    )
}

/// Eq. 7 (single move) equals the engine's exact delta for every cell.
#[test]
fn eq7_matches_engine() {
    for case in 0..CASES {
        let (seed, side_seed) = draw_seeds(&mut Rng::seed_from_u64(case), 1000);
        let (hg, sides) = mapped_with_sides(120, 8, seed, side_seed);
        let engine = EngineState::new(&hg, &sides);
        for c in hg.cell_ids() {
            if !distinct_nets(&hg, c) {
                continue;
            }
            let v = extract_vectors(&hg, &engine, c).expect("single cells have vectors");
            let side = sides[c.0 as usize];
            let formula = single_move_gain(&v);
            let exact = engine.peek_gain(c, CellState::Single { side: 1 - side });
            assert_eq!(formula, exact, "case {case}, cell {c:?}");
        }
    }
}

/// Eq. 8 (traditional replication) equals the engine's exact delta.
#[test]
fn eq8_matches_engine() {
    for case in 0..CASES {
        let (seed, side_seed) = draw_seeds(&mut Rng::seed_from_u64(case), 1000);
        let (hg, sides) = mapped_with_sides(120, 8, seed, side_seed);
        let engine = EngineState::new(&hg, &sides);
        for c in hg.cell_ids() {
            if hg.cell(c).is_terminal() || !distinct_nets(&hg, c) {
                continue;
            }
            let v = extract_vectors(&hg, &engine, c).expect("single cells have vectors");
            let side = sides[c.0 as usize];
            let formula = traditional_gain(&v);
            let exact = engine.peek_gain(c, CellState::Traditional { orig_side: side });
            assert_eq!(formula, exact, "case {case}, cell {c:?}");
        }
    }
}

/// Eqs. 9–11 (functional replication) equal the engine's exact delta
/// for every replica-output choice.
#[test]
fn eq9_to_11_match_engine() {
    for case in 0..CASES {
        let (seed, side_seed) = draw_seeds(&mut Rng::seed_from_u64(case), 1000);
        let (hg, sides) = mapped_with_sides(120, 8, seed, side_seed);
        let engine = EngineState::new(&hg, &sides);
        for c in hg.cell_ids() {
            let cell = hg.cell(c);
            if cell.is_terminal() || cell.m_outputs() < 2 || !distinct_nets(&hg, c) {
                continue;
            }
            let v = extract_vectors(&hg, &engine, c).expect("single cells have vectors");
            let side = sides[c.0 as usize];
            let mut best_engine = i64::MIN;
            for o in 0..cell.m_outputs() {
                let formula = functional_gain(cell.adjacency(), &v, o);
                let exact = engine.peek_gain(
                    c,
                    CellState::Functional {
                        orig_side: side,
                        replica_mask: 1 << o,
                    },
                );
                assert_eq!(formula, exact, "case {case}, cell {c:?}, output {o}");
                best_engine = best_engine.max(exact);
            }
            let (_, g) = best_functional_gain(cell.adjacency(), &v).expect("m >= 2");
            assert_eq!(
                g, best_engine,
                "case {case}: eq. 11 takes the max (cell {c:?})"
            );
        }
    }
}

/// Applying any single state change realizes exactly the peeked gain,
/// and incremental bookkeeping matches a from-scratch rebuild.
#[test]
fn realized_gain_matches_peek() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let (seed, side_seed) = draw_seeds(&mut rng, 500);
        let pick = rng.gen_range(0..64);
        let (hg, sides) = mapped_with_sides(80, 6, seed, side_seed);
        let mut engine = EngineState::new(&hg, &sides);
        let logic: Vec<CellId> = hg
            .cell_ids()
            .filter(|&c| !hg.cell(c).is_terminal() && hg.cell(c).m_outputs() >= 2)
            .collect();
        if logic.is_empty() {
            continue;
        }
        let c = logic[pick % logic.len()];
        let side = sides[c.0 as usize];
        for st in [
            CellState::Single { side: 1 - side },
            CellState::Functional {
                orig_side: side,
                replica_mask: 1,
            },
            CellState::Traditional { orig_side: side },
        ] {
            let peek = engine.peek_gain(c, st);
            let before = engine.cut();
            let realized = engine.set_state(c, st);
            assert_eq!(peek, realized, "case {case}, {st:?}");
            assert_eq!(engine.cut() as i64, before as i64 - realized);
            assert!(engine.validate(), "case {case}: incremental state diverged");
            engine.set_state(c, CellState::Single { side });
            assert!(engine.validate(), "case {case}: undo diverged");
            assert_eq!(engine.cut(), before);
        }
    }
}

/// Across full FM passes — not just single probes — every applied
/// move's realized cut delta equals the gain the bucket pass predicted,
/// in all three replication modes. `gain_repairs` counts exactly the
/// applications whose realized delta diverged from the selection-time
/// prediction, so a clean run means the incremental bucket updates
/// never went stale.
#[test]
fn full_passes_never_go_stale() {
    for case in 0..CASES {
        let (seed, side_seed) = draw_seeds(&mut Rng::seed_from_u64(case), 500);
        let (hg, _) = mapped_with_sides(140, 10, seed, side_seed);
        for mode in [
            ReplicationMode::None,
            ReplicationMode::Traditional,
            ReplicationMode::functional(0),
        ] {
            let cfg = BipartitionConfig::equal(&hg, 0.1)
                .with_seed(side_seed)
                .with_replication(mode);
            let res = bipartition(&hg, &cfg);
            assert_eq!(
                res.gain_repairs, 0,
                "case {case}, {mode:?}: {} applied moves diverged from predicted gain",
                res.gain_repairs
            );
            assert!(res.balanced, "case {case}, {mode:?}: unbalanced");
            if let Some(p) = &res.placement {
                assert_eq!(
                    p.cut_size(&hg),
                    res.cut,
                    "case {case}, {mode:?}: reported cut disagrees with placement"
                );
            }
        }
    }
}
