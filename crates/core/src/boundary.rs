//! Boundary-seeded FM: the multilevel V-cycle's refiner, a second pass
//! over the engine's [`CsrGraph`] and [`EngineState`] (DESIGN §14.3).
//!
//! After projection a placement is already nearly right, so only cells
//! near the cut can improve it. This pass keeps the bucket pass's move
//! semantics (gain order, hill-climbing, lock-after-move, rollback to
//! the best balanced prefix) but seeds each pass from the **boundary
//! only**: the cells on a net with endpoints on both sides. Cells join
//! as moves walk nets next to them, so a pass costs time in proportion
//! to the region the cut sweeps through. Its moves are plain flips, and
//! the counts, the apply and the gain rule are the engine's own. It
//! draws no random numbers, so multilevel runs stay deterministic.

use crate::budget::RunClock;
use crate::config::BipartitionConfig;
use crate::csr::CsrGraph;
use crate::error::StopReason;
use crate::fm::{refill, PassScratch};
use crate::state::{pins_contribution, CellState, EngineState, StateBuffers};
use netpart_hypergraph::{CellId, Hypergraph};

/// What [`refine_sides`] did and what it left: the counts its engine
/// holds after the rollback, so a caller needs no recount.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Refinement {
    /// Passes run.
    pub passes: usize,
    /// Why the pass loop ended.
    pub stop: StopReason,
    /// Nets with endpoints on both sides of the refined sides. The pass
    /// only flips single copies, so this is the engine's cut.
    pub cut: usize,
    /// Total cell area on each side of the refined sides.
    pub areas: [u64; 2],
}

/// Refines a bipartition side vector in place with boundary-seeded FM
/// passes, stopping after `max_passes`, at convergence, or when `clock`
/// trips its wall deadline. Returns the passes run, why the loop ended,
/// and the refined sides' cut and areas. Only cells `0..hg.n_cells()`
/// of `sides` are used.
///
/// Every pass improves the objective (the cut plus the weighted pad
/// cost) over a balanced prefix or rolls back completely, so a balanced
/// input stays balanced and its objective never rises. The passes tick
/// no pass or move budget and emit no `fm.pass` events or spans.
///
/// # Panics
///
/// Panics if `sides` is shorter than the cell count or contains values
/// other than 0 and 1.
pub fn refine_sides(
    hg: &Hypergraph,
    cfg: &BipartitionConfig,
    sides: &mut [u8],
    max_passes: usize,
    clock: &RunClock,
) -> Refinement {
    let n = hg.n_cells();
    assert!(sides.len() >= n, "side per cell");
    let csr = CsrGraph::build(hg);
    let buffers = StateBuffers::default();
    let mut engine = EngineState::over(&csr, &sides[..n], cfg.terminal_weight, buffers);
    let mut scratch = PassScratch::default();
    let (mut passes, mut stop) = (0, StopReason::Converged);
    while passes < max_passes {
        if let Some(r) = clock.check_wall() {
            stop = r;
            break;
        }
        passes += 1;
        if !boundary_pass(&mut engine, cfg, &mut scratch) {
            break;
        }
        if passes == max_passes {
            stop = StopReason::PassLimit;
        }
    }
    for c in csr.cell_ids() {
        sides[c.index()] = side(engine.cell_state(c));
    }
    Refinement {
        passes,
        stop,
        cut: engine.cut(),
        areas: engine.areas(),
    }
}

/// The side of a single copy: the pass only flips cells.
fn side(state: CellState) -> u8 {
    match state {
        CellState::Single { side } => side,
        _ => unreachable!("the boundary pass only flips single copies"),
    }
}

/// A single copy moved to the other side.
fn flipped(state: CellState) -> CellState {
    CellState::Single {
        side: 1 - side(state),
    }
}

/// Connected endpoints on side `s`, from a net's `(sink, driver)` counts.
fn occupancy((sink, drv): ([u32; 2], [u32; 2]), s: usize) -> u32 {
    sink[s] + drv[s]
}

/// One FM pass over the boundary. Returns `true` when it kept a
/// balanced prefix that lowers the objective or, from an unbalanced
/// start, reaches balance.
///
/// Selection pops a lazy max-heap on `(gain, cell)`, skipping entries
/// whose gain is no longer the cell's; equal entries are
/// interchangeable, so push order never matters. A cell whose move
/// would break an area bound is parked until the next applied move.
fn boundary_pass(
    engine: &mut EngineState<'_>,
    cfg: &BipartitionConfig,
    scratch: &mut PassScratch,
) -> bool {
    // Own handle on the CSR arenas so net/neighbor slices stay
    // borrowable across the engine mutations below.
    let arenas = engine.csr().clone();
    let csr: &CsrGraph = &arenas;
    let PassScratch {
        locked,
        log,
        deferred: parked,
        before,
        in_touched,
        heap,
        gain,
        changed,
        ..
    } = scratch;
    let obj0 = engine.objective();
    let start_balanced = cfg.balanced(engine.areas());

    // Seed: every cell on a net with endpoints on both sides.
    heap.clear();
    refill(gain, csr.n_cells(), None);
    for nt in csr.net_ids() {
        if engine.net_side_occupancy(nt).contains(&0) {
            continue;
        }
        for &c in csr.cells_of(nt) {
            if gain[c.index()].is_none() {
                let g = engine.peek_gain(c, flipped(engine.cell_state(c)));
                gain[c.index()] = Some(g);
                heap.push((g, c.0));
            }
        }
    }

    refill(locked, csr.n_cells(), false);
    refill(in_touched, csr.n_cells(), false);
    log.clear();
    parked.clear();
    let mut best_obj = if start_balanced { obj0 } else { i64::MAX };
    let mut best_len = 0usize;

    while let Some((g, cell)) = heap.pop() {
        let c = CellId(cell);
        if locked[c.index()] || gain[c.index()] != Some(g) {
            continue;
        }
        let prev = engine.cell_state(c);
        let s = usize::from(side(prev));
        let o = 1 - s;
        let a = u64::from(csr.cell(c).area);
        let areas = engine.areas();
        if areas[s] < cfg.min_area[s] + a || areas[o] + a > cfg.max_area[o] {
            parked.push(c);
            continue;
        }

        let nets = csr.nets_of(c);
        before.clear();
        before.extend(nets.iter().map(|&nt| engine.net_counts(nt)));
        engine.set_state(c, flipped(prev));
        locked[c.index()] = true;
        log.push((c, prev));

        // Gain maintenance. A net left with more than 2 endpoints on the
        // cell's old side, that had more than 2 on its new side, moves no
        // gain of a cell with at most 2 pins on it: skip it. Elsewhere
        // each admitted neighbor takes its pin group's contribution
        // delta, and a new one joins with a full gain after the move.
        changed.clear();
        for (i, &nt) in nets.iter().enumerate() {
            let after = engine.net_counts(nt);
            if occupancy(before[i], o) > 2 && occupancy(after, s) > 2 {
                continue;
            }
            for (&t, &group) in csr.cells_of(nt).iter().zip(csr.net_groups(nt)) {
                if t == c || locked[t.index()] {
                    continue;
                }
                if !in_touched[t.index()] {
                    in_touched[t.index()] = true;
                    changed.push((t, gain[t.index()]));
                }
                if let Some(gt) = &mut gain[t.index()] {
                    let cur = engine.cell_state(t);
                    let new = flipped(cur);
                    let pins = csr.group_pins(group);
                    *gt += pins_contribution(cur, new, pins, after)
                        - pins_contribution(cur, new, pins, before[i]);
                }
            }
        }
        for &(t, old) in changed.iter() {
            in_touched[t.index()] = false;
            let now = match old {
                None => engine.peek_gain(t, flipped(engine.cell_state(t))),
                Some(old) => match gain[t.index()] {
                    Some(g) if g != old => g,
                    _ => continue,
                },
            };
            gain[t.index()] = Some(now);
            heap.push((now, t.0));
        }
        #[cfg(test)]
        check_gains(engine, csr, locked, gain);

        let obj = engine.objective();
        if cfg.balanced(engine.areas()) && obj < best_obj {
            best_obj = obj;
            best_len = log.len();
        }
        // The areas moved; parked cells may be legal again.
        for p in parked.drain(..) {
            if let (false, Some(g)) = (locked[p.index()], gain[p.index()]) {
                heap.push((g, p.0));
            }
        }
    }

    // Roll back to the best balanced prefix.
    for (c, prev) in log.drain(best_len..).rev() {
        engine.set_state(c, prev);
    }
    best_len > 0 && (best_obj < obj0 || !start_balanced)
}

/// Checks that every admitted, unlocked cell's maintained gain is its
/// [`EngineState::peek_gain`]. The walk rule is exact while no cell has
/// three or more pins on one net, so only such circuits are checked.
#[cfg(test)]
fn check_gains(engine: &EngineState<'_>, csr: &CsrGraph, locked: &[bool], gain: &[Option<i64>]) {
    if csr.max_group_pins() > 2 {
        return;
    }
    for c in csr.cell_ids() {
        if let (false, Some(g)) = (locked[c.index()], gain[c.index()]) {
            let new = flipped(engine.cell_state(c));
            assert_eq!(g, engine.peek_gain(c, new), "cell {c}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_hypergraph::{PartId, Placement};
    use netpart_rng::Rng;
    use netpart_verify::gen;

    /// A random side vector inside `cfg`'s area window, from the first
    /// seed after `seed` that gives one.
    fn balanced_sides(hg: &Hypergraph, cfg: &BipartitionConfig, seed: u64) -> Vec<u8> {
        (seed..)
            .map(|s| {
                let mut rng = Rng::seed_from_u64(s);
                (0..hg.n_cells())
                    .map(|_| u8::from(rng.gen_bool(0.5)))
                    .collect::<Vec<u8>>()
            })
            .find(|sides| {
                let mut areas = [0u64; 2];
                for (cell, &s) in hg.cells().iter().zip(sides) {
                    areas[usize::from(s)] += u64::from(cell.area());
                }
                cfg.balanced(areas)
            })
            .expect("some random assignment is balanced")
    }

    /// Every move of every pass runs [`check_gains`]: the maintained
    /// gains stay equal to a full recompute on mapped circuits, whose
    /// cells have at most two pins on a net.
    #[test]
    fn maintained_gains_equal_peek_gain() {
        for (gates, dffs, seed) in [(800, 50, 3), (1200, 80, 7), (600, 40, 11)] {
            let hg = gen::mapped(gates, dffs, seed);
            assert!(CsrGraph::build(&hg).max_group_pins() <= 2);
            let cfg = BipartitionConfig::equal(&hg, 0.1);
            let clock = RunClock::new(&cfg.budget, &cfg.fault);
            let sides0 = balanced_sides(&hg, &cfg, seed * 100);
            let mut sides = sides0.clone();
            let r = refine_sides(&hg, &cfg, &mut sides, 16, &clock);
            assert!(r.passes >= 2, "circuit {seed}: {} passes", r.passes);
            assert_ne!(sides, sides0, "circuit {seed}: no move kept");
            // The returned cut and areas are the refined sides'.
            let mut pl = Placement::new_uniform(&hg, 2, PartId(0));
            for c in hg.cell_ids() {
                pl.place(c, PartId(u16::from(sides[c.index()])));
            }
            assert_eq!(r.cut, pl.cut_size(&hg), "circuit {seed}");
            assert_eq!(r.areas.to_vec(), pl.part_areas(&hg), "circuit {seed}");
        }
    }

    /// Pads weighted on one side: the objective the pass minimizes
    /// includes the pad cost, and the maintained gains carry it.
    #[test]
    fn weighted_pads_keep_gains_exact_and_lower_the_objective() {
        let hg = gen::mapped(800, 50, 5);
        let cfg = BipartitionConfig::equal(&hg, 0.1).with_terminal_weight([1, 0]);
        let clock = RunClock::new(&cfg.budget, &cfg.fault);
        let sides0 = balanced_sides(&hg, &cfg, 500);
        let objective = |sides: &[u8]| {
            let csr = CsrGraph::build(&hg);
            let st = EngineState::over(&csr, sides, cfg.terminal_weight, StateBuffers::default());
            st.objective()
        };
        let mut sides = sides0.clone();
        refine_sides(&hg, &cfg, &mut sides, 16, &clock);
        assert!(objective(&sides) < objective(&sides0));
    }
}
