//! Deterministic intra-run parallel refinement over the CSR arenas.
//!
//! Portfolio parallelism (one thread per start) leaves a single run
//! serial. This module parallelizes *inside* one run, mt-KaHyPar
//! style, without giving up the `--jobs N ≡ --jobs 1` byte-identity
//! contract:
//!
//! 1. **Propose.** The cell range is split into a *fixed* number of
//!    disjoint contiguous regions — fixed regardless of the worker
//!    count. Workers evaluate regions against a frozen snapshot of the
//!    engine state (read-only shared borrow), collecting every
//!    positive-gain boundary flip in ascending cell order. A region's
//!    proposal list is a pure function of the snapshot and the region
//!    bounds, so *which* worker computes it cannot matter.
//! 2. **Commit.** A single thread replays the proposals in fixed order
//!    (region index ascending, then proposal order within the region),
//!    re-validating each flip's gain and the area window against the
//!    live state before applying it. Stale proposals (invalidated by an
//!    earlier commit this round) are dropped.
//! 3. Repeat until a round commits nothing or `max_rounds` is reached.
//!
//! Every committed flip strictly decreases the objective (cut plus
//! weighted pad cost), so the loop terminates, and the commit sequence
//! — hence the final state, trace events and certificates — is
//! byte-identical for any `jobs` value by construction
//! (`tests/par_refine.rs` pins this at the differential seed matrix).
//!
//! Replication-free by design: the refiner runs on plain side vectors,
//! as a post-pass polish of an already-balanced solution (the finest
//! V-cycle rung or a portfolio winner). It never replicates and never
//! moves a solution out of its area window.

use crate::config::BipartitionConfig;
use crate::state::{CellState, EngineState};
use netpart_hypergraph::{CellId, Hypergraph};
use netpart_obs::{Event, Level, Recorder, Span};

/// Fixed proposal-region count. Part of the determinism contract: the
/// region partition must not depend on the worker count, so any `jobs`
/// value sees identical proposal lists.
const REGIONS: usize = 64;

/// Telemetry of one [`par_refine_sides`] invocation. All fields are
/// `jobs`-invariant (they describe the deterministic proposal/commit
/// sequence, never the scheduling).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParRefineOutcome {
    /// Refinement rounds executed (including the final empty round).
    pub rounds: usize,
    /// Positive-gain proposals collected across all rounds.
    pub proposed: u64,
    /// Proposals that survived live re-validation and were applied.
    pub committed: u64,
    /// Cut size before refinement.
    pub cut_before: usize,
    /// Cut size after refinement (`<= cut_before`).
    pub cut_after: usize,
}

/// One region's proposals against a frozen snapshot: every
/// positive-gain boundary flip in `[lo, hi)`, ascending by cell id.
fn propose_region(engine: &EngineState<'_>, lo: usize, hi: usize) -> Vec<(u32, i64)> {
    let mut out = Vec::new();
    for i in lo..hi {
        let c = CellId(i as u32);
        let CellState::Single { side } = engine.cell_state(c) else {
            continue;
        };
        // Boundary filter: only cells with an incident net occupied on
        // the far side can gain from flipping.
        let far = 1 - side as usize;
        if !engine
            .incident_nets(c)
            .iter()
            .any(|&nt| engine.net_side_occupancy(nt)[far] > 0)
        {
            continue;
        }
        let flip = CellState::Single { side: 1 - side };
        let gain = engine.peek_gain(c, flip);
        if gain > 0 {
            out.push((c.0, gain));
        }
    }
    out
}

/// Whether flipping `c` keeps both sides inside the configured area
/// window (the refiner commits greedily, so balance must hold after
/// every single commit — stricter than the pass loop's rollback rule).
fn window_ok(engine: &EngineState<'_>, cfg: &BipartitionConfig, c: CellId, new: CellState) -> bool {
    let d = engine.area_delta(c, new);
    let a = engine.areas();
    (0..2).all(|s| {
        let v = a[s] as i64 + d[s];
        v >= 0 && (v as u64) >= cfg.min_area[s] && (v as u64) <= cfg.max_area[s]
    })
}

/// Refines a replication-free bipartition in place: `sides[i]` is cell
/// `i`'s side on entry and exit. Returns the deterministic outcome
/// telemetry; the refined `sides` (and everything derived from them) is
/// byte-identical for every `jobs >= 1`.
///
/// Emits one `fm.par_refine` debug event (deterministic fields only)
/// under a `fm`-scope span.
///
/// # Panics
///
/// Panics if `sides.len() != hg.n_cells()`, a side is not 0/1, or a
/// worker thread panics.
pub fn par_refine_sides(
    hg: &Hypergraph,
    cfg: &BipartitionConfig,
    sides: &mut [u8],
    jobs: usize,
    max_rounds: usize,
    recorder: &dyn Recorder,
) -> ParRefineOutcome {
    let span = Span::enter(recorder, "fm", "par_refine");
    let n = hg.n_cells();
    let jobs = jobs.max(1);
    let nregions = REGIONS.min(n.max(1));
    let bounds = move |r: usize| (r * n / nregions, (r + 1) * n / nregions);
    let mut engine = EngineState::new_weighted(hg, sides, cfg.terminal_weight);
    let cut_before = engine.cut();
    let mut rounds = 0usize;
    let mut proposed = 0u64;
    let mut committed = 0u64;
    while rounds < max_rounds {
        rounds += 1;
        // Propose against the frozen snapshot.
        let proposals: Vec<Vec<(u32, i64)>> = if jobs == 1 {
            (0..nregions)
                .map(|r| {
                    let (lo, hi) = bounds(r);
                    propose_region(&engine, lo, hi)
                })
                .collect()
        } else {
            let mut slots: Vec<Vec<(u32, i64)>> = vec![Vec::new(); nregions];
            let snapshot = &engine;
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..jobs)
                    .map(|k| {
                        s.spawn(move || {
                            let mut mine = Vec::new();
                            let mut r = k;
                            while r < nregions {
                                let (lo, hi) = bounds(r);
                                mine.push((r, propose_region(snapshot, lo, hi)));
                                r += jobs;
                            }
                            mine
                        })
                    })
                    .collect();
                for h in handles {
                    for (r, p) in h.join().expect("par-refine worker panicked") {
                        slots[r] = p;
                    }
                }
            });
            slots
        };
        // Commit in fixed order, re-validating against the live state.
        let mut committed_round = 0u64;
        for region in &proposals {
            proposed += region.len() as u64;
            for &(cell, _snapshot_gain) in region {
                let c = CellId(cell);
                let CellState::Single { side } = engine.cell_state(c) else {
                    continue;
                };
                let flip = CellState::Single { side: 1 - side };
                if engine.peek_gain(c, flip) <= 0 || !window_ok(&engine, cfg, c, flip) {
                    continue;
                }
                engine.set_state(c, flip);
                committed_round += 1;
            }
        }
        committed += committed_round;
        if committed_round == 0 {
            break;
        }
    }
    for c in hg.cell_ids() {
        let CellState::Single { side } = engine.cell_state(c) else {
            unreachable!("par refine only flips single cells");
        };
        sides[c.index()] = side;
    }
    let out = ParRefineOutcome {
        rounds,
        proposed,
        committed,
        cut_before,
        cut_after: engine.cut(),
    };
    drop(span);
    if recorder.enabled(Level::Debug) {
        recorder.record(
            &Event::new("fm", "par_refine", Level::Debug)
                .field("regions", nregions)
                .field("rounds", out.rounds)
                .field("proposed", out.proposed)
                .field("committed", out.committed)
                .field("cut_before", out.cut_before)
                .field("cut_after", out.cut_after),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_obs::NoopRecorder;

    fn mapped(gates: usize, seed: u64) -> Hypergraph {
        let nl = netpart_netlist::generate(
            &netpart_netlist::GeneratorConfig::new(gates)
                .with_dff(gates / 12)
                .with_seed(seed),
        );
        netpart_techmap::map(&nl, &netpart_techmap::MapperConfig::xc3000())
            .unwrap()
            .to_hypergraph(&nl)
    }

    #[test]
    fn refines_without_leaving_the_window_and_is_jobs_invariant() {
        let hg = mapped(300, 5);
        let cfg = BipartitionConfig::equal(&hg, 0.1).with_seed(5);
        let base = crate::fm::bipartition(&hg, &cfg);
        assert!(base.balanced);
        let p = base.placement.as_ref().expect("no replication");
        let sides0: Vec<u8> = hg
            .cell_ids()
            .map(|c| p.part_of(c).expect("single copy").0 as u8)
            .collect();
        let mut outcomes = Vec::new();
        let mut refined = Vec::new();
        for jobs in [1usize, 2, 8] {
            let mut sides = sides0.clone();
            let out = par_refine_sides(&hg, &cfg, &mut sides, jobs, 16, &NoopRecorder);
            assert!(out.cut_after <= out.cut_before);
            assert!(cfg.balanced(EngineState::new(&hg, &sides).areas()));
            outcomes.push(out);
            refined.push(sides);
        }
        assert_eq!(outcomes[0], outcomes[1], "jobs 1 vs 2 diverged");
        assert_eq!(outcomes[0], outcomes[2], "jobs 1 vs 8 diverged");
        assert_eq!(refined[0], refined[1]);
        assert_eq!(refined[0], refined[2]);
    }

    #[test]
    fn converged_input_is_a_fixpoint() {
        // A second refinement of an already-refined solution commits
        // nothing and leaves the sides untouched.
        let hg = mapped(200, 9);
        let cfg = BipartitionConfig::equal(&hg, 0.1).with_seed(9);
        let base = crate::fm::bipartition(&hg, &cfg);
        let p = base.placement.as_ref().expect("no replication");
        let mut sides: Vec<u8> = hg
            .cell_ids()
            .map(|c| p.part_of(c).expect("single copy").0 as u8)
            .collect();
        par_refine_sides(&hg, &cfg, &mut sides, 4, 16, &NoopRecorder);
        let frozen = sides.clone();
        let out = par_refine_sides(&hg, &cfg, &mut sides, 4, 16, &NoopRecorder);
        assert_eq!(out.committed, 0);
        assert_eq!(out.rounds, 1);
        assert_eq!(sides, frozen);
    }
}
