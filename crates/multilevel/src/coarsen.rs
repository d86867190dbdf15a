//! ψ-guarded heavy-edge matching and hypergraph contraction.
//!
//! One coarsening level is two steps. [`match_pairs`] pairs up logic
//! cells that share low-degree nets by seeded heavy-edge matching (the
//! classic `1/(deg−1)` edge-weight heuristic), and [`contract`] turns
//! the matched pairs into a smaller hypergraph. Contraction makes one
//! cluster per pair plus one per unmatched cell, so the chain judges a
//! matching by its pair count and contracts only a level it keeps. Two
//! policies make the matching replication-aware, following RePart's
//! observation that coarsening must not destroy the replication
//! candidates the refiner will want later:
//!
//! * the **ψ-guard** exempts cells whose replication potential `ψ`
//!   (eq. 4) reaches the configured replication threshold `T` — those
//!   cells survive every level un-merged, so the finest-level FM can
//!   still split their outputs;
//! * a **weight cap** bounds every cluster's area to a fraction of the
//!   total, keeping the balance window reachable at every level.
//!
//! Contraction keeps a fine net iff a sink lies in another cluster than
//! its driver (it spans at least two distinct coarse cells), and never
//! merges parallel nets — so the coarse cut of any projected placement
//! equals the fine cut *exactly*, which is the invariant the property
//! suite and the differential harnesses lean on, and what lets the
//! V-cycle carry a refined cut down to the next rung instead of
//! recounting it. It adds the kept nets in fine order, then builds each
//! coarse cell in one pass, and keeps only the cell map: no coarse
//! names and no net map.

use crate::level::CoarseLevel;
use netpart_core::ReplicationMode;
use netpart_hypergraph::{AdjacencyMatrix, CellKind, Hypergraph, HypergraphBuilder, NetId};
use netpart_rng::Rng;

/// Nets with more than this many endpoints are ignored by the matching
/// scorer (they carry almost no locality signal and make scoring
/// quadratic on star nets); contraction still handles them exactly.
const MAX_SCORED_DEGREE: usize = 32;

/// Placements mask a cell's outputs into a 32-bit [`OutputMask`]
/// (`netpart_hypergraph`), so no coarse cluster may drive more than 32
/// nets. Matching refuses any pair whose combined output-pin count
/// could exceed the mask — survival can only drop driven nets, so the
/// fine-level sum is a safe upper bound.
const MAX_CLUSTER_OUTPUTS: usize = 32;

/// Weight cap: no cluster may exceed this fraction of the total cell
/// area, keeping the balance window reachable at every level.
const MAX_CLUSTER_AREA: f64 = 0.03;

/// Whether the ψ-guard exempts a cell with replication potential `psi`
/// from being matched away under `mode`.
///
/// `Functional { threshold }` guards every cell the refiner could
/// legally replicate (`ψ ≥ T`), except that `ψ = 0` never guards —
/// a threshold of 0 admits every multi-output cell to replication, but
/// guarding *every* cell would forbid coarsening outright.
/// `Traditional` has no threshold, so any positive ψ guards.
/// `None` never guards.
fn psi_guards(mode: ReplicationMode, psi: usize) -> bool {
    match mode {
        ReplicationMode::None => false,
        ReplicationMode::Traditional => psi > 0,
        ReplicationMode::Functional { threshold } => psi > 0 && psi >= threshold as usize,
    }
}

/// A [`match_pairs`] entry for a cell left unmatched.
const UNMATCHED: u32 = u32::MAX;

/// Runs one ψ-guarded heavy-edge matching over `hg`.
///
/// Returns `(mate, matched, guarded)`: `mate[i]` is the cell paired
/// with cell `i`, or [`UNMATCHED`]; `matched` counts the pairs and
/// `guarded` the logic cells the ψ-guard exempted. Contracting the
/// matching makes exactly `n_cells − matched` clusters. The visit order
/// is seeded by `seed`, so the matching is a pure function of
/// `(hg, mode, seed)`.
pub(crate) fn match_pairs(
    hg: &Hypergraph,
    mode: ReplicationMode,
    seed: u64,
) -> (Vec<u32>, usize, usize) {
    let n = hg.n_cells();
    let cap = ((hg.total_area() as f64) * MAX_CLUSTER_AREA)
        .ceil()
        .max(2.0) as u64;

    // Terminals never merge, and neither do the cells the ψ-guard exempts.
    let mut blocked = vec![false; n];
    let mut guarded = 0usize;
    for (i, cell) in hg.cells().iter().enumerate() {
        let guard = !cell.is_terminal() && psi_guards(mode, cell.replication_potential());
        guarded += usize::from(guard);
        blocked[i] = guard || cell.is_terminal();
    }
    let mut order: Vec<u32> = (0..n as u32).filter(|&i| !blocked[i as usize]).collect();
    let mut rng = Rng::seed_from_u64(seed ^ 0x6d6c_636f_6172_7365); // "mlcoarse"
    rng.shuffle(&mut order);

    let mut mate: Vec<u32> = vec![UNMATCHED; n];
    let mut matched = 0usize;
    // Stamped scratch scoring: O(pins) per cell, no clearing.
    let mut score: Vec<f64> = vec![0.0; n];
    let mut stamp: Vec<u32> = vec![UNMATCHED; n];
    for (visit, &u) in order.iter().enumerate() {
        let ui = u as usize;
        if mate[ui] != UNMATCHED {
            continue;
        }
        let ua = u64::from(hg.cells()[ui].area());
        let uo = hg.cells()[ui].m_outputs();
        let mut best: Option<(f64, u32)> = None;
        for nid in hg.cells()[ui].incident_nets() {
            let net = hg.net(nid);
            let d = net.degree();
            if !(2..=MAX_SCORED_DEGREE).contains(&d) {
                continue;
            }
            let w = 1.0 / (d - 1) as f64;
            for ep in net.endpoints() {
                let v = ep.cell.0;
                let vi = v as usize;
                if v == u
                    || mate[vi] != UNMATCHED
                    || blocked[vi]
                    || ua + u64::from(hg.cells()[vi].area()) > cap
                    || uo + hg.cells()[vi].m_outputs() > MAX_CLUSTER_OUTPUTS
                {
                    continue;
                }
                if stamp[vi] != visit as u32 {
                    stamp[vi] = visit as u32;
                    score[vi] = 0.0;
                }
                score[vi] += w;
                let s = score[vi];
                // Highest score wins; ties break toward the lowest cell
                // id so the matching is independent of endpoint order.
                let better = match best {
                    None => true,
                    Some((bs, bv)) => s > bs || (s == bs && v < bv),
                };
                if better {
                    best = Some((s, v));
                }
            }
        }
        if let Some((_, v)) = best {
            mate[ui] = v;
            mate[v as usize] = u;
            matched += 1;
        }
    }
    (mate, matched, guarded)
}

/// Contracts `hg` along a [`match_pairs`] matching into the next
/// coarser level: each matched pair becomes one cluster, each other
/// cell a cluster of its own.
///
/// The kept nets are added first, in fine order. Then each cluster is
/// built in one pass: its pins are gathered into one reused buffer, the
/// cell is added and its pins are connected. Coarse cells and nets
/// carry empty names; no output names a coarse object.
pub(crate) fn contract(
    hg: &Hypergraph,
    mate: Vec<u32>,
    matched: usize,
    guarded: usize,
) -> CoarseLevel {
    const DROPPED: u32 = u32::MAX;
    let n = hg.n_cells();
    // --- cluster numbering (fine-id order: deterministic) ---------------
    // `mate` becomes the cell map in place: a cell whose mate precedes
    // it joins the mate's cluster, numbered already; every other cell
    // opens the next cluster. `members[cc]` holds the cluster's first
    // cell and its mate, or `UNMATCHED`.
    let mut cell_map = mate;
    let mut members: Vec<[u32; 2]> = Vec::with_capacity(n - matched);
    for i in 0..n {
        let m = cell_map[i];
        if m < i as u32 {
            let cc = cell_map[m as usize];
            cell_map[i] = cc;
            members[cc as usize][1] = i as u32;
        } else {
            cell_map[i] = members.len() as u32;
            members.push([i as u32, UNMATCHED]);
        }
    }

    // --- net survival ----------------------------------------------------
    // A fine net survives iff a sink lies in another cluster than its
    // driver, i.e. it touches ≥ 2 distinct coarse cells. Kept nets map
    // 1:1 in fine order (parallel nets are NOT merged — the unweighted
    // cut accounting must stay exact across levels).
    let mut net_map: Vec<u32> = Vec::with_capacity(hg.n_nets());
    let mut kept = 0u32;
    for net in hg.nets() {
        let driver_cc = cell_map[net.driver().cell.index()];
        let survives = net
            .sinks()
            .iter()
            .any(|e| cell_map[e.cell.index()] != driver_cc);
        net_map.push(if survives { kept } else { DROPPED });
        kept += u32::from(survives);
    }
    let mut b = HypergraphBuilder::with_capacity(members.len(), kept as usize);
    for _ in 0..kept {
        b.add_net(String::new());
    }

    // --- one pass per cluster ---------------------------------------------
    // Each coarse cell touches each kept net at most once: as the driver
    // (output pin) when it contains the fine driver, else as one sink.
    // Pins are gathered in fine order (members ascending, inputs then
    // outputs), so an untouched singleton reproduces its fine pin lists
    // exactly and can reuse its adjacency matrix (preserving ψ).
    let mut net_stamp: Vec<u32> = vec![UNMATCHED; kept as usize];
    let mut pins: Vec<(NetId, bool)> = Vec::new();
    for (cc, pair) in members.iter().enumerate() {
        let cc = cc as u32;
        let mems = if pair[1] == UNMATCHED {
            &pair[..1]
        } else {
            &pair[..]
        };
        pins.clear();
        for &f in mems {
            let cell = &hg.cells()[f as usize];
            for &nid in cell.input_nets().iter().chain(cell.output_nets()) {
                let cn = net_map[nid.index()];
                if cn == DROPPED || net_stamp[cn as usize] == cc {
                    continue;
                }
                net_stamp[cn as usize] = cc;
                let is_out = cell_map[hg.net(nid).driver().cell.index()] == cc;
                pins.push((NetId(cn), is_out));
            }
        }
        let m_out = pins.iter().filter(|&&(_, out)| out).count();
        let n_in = pins.len() - m_out;
        let rep = &hg.cells()[mems[0] as usize];
        let (kind, adjacency) = if mems.len() == 1 && rep.is_terminal() {
            (rep.kind(), AdjacencyMatrix::pad())
        } else {
            let area: u32 = mems.iter().map(|&f| hg.cells()[f as usize].area()).sum();
            let dff: u32 = mems
                .iter()
                .map(|&f| hg.cells()[f as usize].kind().dff())
                .sum();
            let adj = if mems.len() == 1 && n_in == rep.n_inputs() && m_out == rep.m_outputs() {
                // Pin set untouched by contraction: keep the fine
                // dependency structure so ψ survives to this level.
                rep.adjacency().clone()
            } else {
                AdjacencyMatrix::full(n_in, m_out)
            };
            (CellKind::Logic { area, dff }, adj)
        };
        let cell = b.add_cell(String::new(), kind, n_in, m_out, adjacency);
        let (mut j, mut o) = (0, 0);
        for &(net, is_out) in &pins {
            let r = if is_out {
                o += 1;
                b.connect_output(net, cell, o - 1)
            } else {
                j += 1;
                b.connect_input(net, cell, j - 1)
            };
            r.expect("contraction produces consistent pins");
        }
    }
    let coarse = b
        .finish()
        .expect("contraction preserves hypergraph validity");
    debug_assert_eq!(coarse.total_area(), hg.total_area());

    CoarseLevel {
        hg: coarse,
        cell_map,
        matched,
        guarded,
    }
}
