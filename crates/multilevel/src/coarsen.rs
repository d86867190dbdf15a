//! ψ-guarded heavy-edge matching and hypergraph contraction.
//!
//! One [`coarsen_once`] call produces one [`CoarseLevel`]: a seeded
//! heavy-edge matching pairs up logic cells that share low-degree nets
//! (the classic `1/(deg−1)` edge-weight heuristic), then the matched
//! pairs are contracted into a smaller hypergraph. Two policies make
//! the matching replication-aware, following RePart's observation that
//! coarsening must not destroy the replication candidates the refiner
//! will want later:
//!
//! * the **ψ-guard** exempts cells whose replication potential `ψ`
//!   (eq. 4) reaches the configured replication threshold `T` — those
//!   cells survive every level un-merged, so the finest-level FM can
//!   still split their outputs;
//! * a **weight cap** bounds every cluster's area to a fraction of the
//!   total, keeping the balance window reachable at every level.
//!
//! Contraction keeps a fine net iff it spans at least two distinct
//! coarse cells, and never merges parallel nets — so the coarse cut of
//! any projected placement equals the fine cut *exactly*, which is the
//! invariant the property suite and the differential harnesses lean on.

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
pub fn psi_guards(mode: ReplicationMode, psi: usize) -> bool {
    match mode {
        ReplicationMode::None => false,
        ReplicationMode::Traditional => psi > 0,
        ReplicationMode::Functional { threshold } => psi > 0 && psi >= threshold as usize,
    }
}

/// Runs one ψ-guarded heavy-edge matching + contraction step over `hg`.
///
/// Returns `None` when no pair can be matched (every logic cell is
/// guarded, isolated, or over the weight cap) — the caller stops
/// coarsening there. The matching visit order is seeded by `seed`, so
/// the level is a pure function of `(hg, mode, seed)`.
pub fn coarsen_once(hg: &Hypergraph, mode: ReplicationMode, seed: u64) -> Option<CoarseLevel> {
    let n = hg.n_cells();
    if n == 0 {
        return None;
    }
    let cap = ((hg.total_area() as f64) * MAX_CLUSTER_AREA)
        .ceil()
        .max(2.0) as u64;

    // --- ψ-guard and matching -------------------------------------------
    let mut guarded_flag = vec![false; n];
    let mut guarded = 0usize;
    for (i, cell) in hg.cells().iter().enumerate() {
        if !cell.is_terminal() && psi_guards(mode, cell.replication_potential()) {
            guarded_flag[i] = true;
            guarded += 1;
        }
    }

    let mut order: Vec<u32> = (0..n as u32)
        .filter(|&i| {
            let c = &hg.cells()[i as usize];
            !c.is_terminal() && !guarded_flag[i as usize]
        })
        .collect();
    let mut rng = Rng::seed_from_u64(seed ^ 0x6d6c_636f_6172_7365); // "mlcoarse"
    rng.shuffle(&mut order);

    const UNMATCHED: u32 = u32::MAX;
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
                    || guarded_flag[vi]
                    || hg.cells()[vi].is_terminal()
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
    if matched == 0 {
        return None;
    }

    // --- cluster numbering (fine-id order: deterministic) ---------------
    let mut cell_map: Vec<u32> = vec![UNMATCHED; n];
    let mut members: Vec<Vec<u32>> = Vec::with_capacity(n - matched);
    for i in 0..n as u32 {
        let m = mate[i as usize];
        let rep = if m != UNMATCHED { i.min(m) } else { i };
        if rep == i {
            cell_map[i as usize] = members.len() as u32;
            members.push(vec![i]);
        } else {
            let cc = cell_map[rep as usize];
            cell_map[i as usize] = cc;
            members[cc as usize].push(i);
        }
    }
    let n_coarse = members.len();

    // --- net survival ----------------------------------------------------
    // A fine net survives iff it touches ≥ 2 distinct coarse cells; kept
    // nets map 1:1 (parallel nets are NOT merged — the unweighted cut
    // accounting must stay exact across levels).
    let mut net_map: Vec<Option<u32>> = vec![None; hg.n_nets()];
    let mut driver_cc: Vec<u32> = vec![0; hg.n_nets()];
    let mut kept = 0u32;
    let mut span_scratch: Vec<u32> = Vec::new();
    for (ni, net) in hg.nets().iter().enumerate() {
        driver_cc[ni] = cell_map[net.driver().cell.index()];
        span_scratch.clear();
        span_scratch.extend(net.endpoints().map(|e| cell_map[e.cell.index()]));
        span_scratch.sort_unstable();
        span_scratch.dedup();
        if span_scratch.len() >= 2 {
            net_map[ni] = Some(kept);
            kept += 1;
        }
    }

    // --- coarse pin lists -------------------------------------------------
    // Each coarse cell touches each kept net at most once: as the driver
    // (output pin) when it contains the fine driver, else as one sink.
    // Pins are enumerated in fine order (members ascending, inputs then
    // outputs), so an untouched singleton reproduces its fine pin lists
    // exactly and can reuse its adjacency matrix (preserving ψ).
    let mut conns: Vec<Vec<(u32, bool)>> = vec![Vec::new(); n_coarse];
    let mut net_stamp: Vec<u32> = vec![UNMATCHED; kept as usize];
    for (cc, mems) in members.iter().enumerate() {
        for &f in mems {
            let cell = &hg.cells()[f as usize];
            let pins = cell
                .input_nets()
                .iter()
                .chain(cell.output_nets().iter())
                .copied();
            for nid in pins {
                let Some(cn) = net_map[nid.index()] else {
                    continue;
                };
                if net_stamp[cn as usize] == cc as u32 {
                    continue;
                }
                net_stamp[cn as usize] = cc as u32;
                conns[cc].push((cn, driver_cc[nid.index()] == cc as u32));
            }
        }
    }

    // --- build ------------------------------------------------------------
    let mut b = HypergraphBuilder::with_capacity(n_coarse, kept as usize);
    for (cc, mems) in members.iter().enumerate() {
        let n_in = conns[cc].iter().filter(|&&(_, out)| !out).count();
        let m_out = conns[cc].len() - n_in;
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
        b.add_cell(rep.name(), kind, n_in, m_out, adjacency);
    }
    for (ni, net) in hg.nets().iter().enumerate() {
        if net_map[ni].is_some() {
            b.add_net(net.name());
        }
    }
    let mut next_in: Vec<usize> = vec![0; n_coarse];
    let mut next_out: Vec<usize> = vec![0; n_coarse];
    for (cc, list) in conns.iter().enumerate() {
        for &(cn, is_out) in list {
            let cell = netpart_hypergraph::CellId(cc as u32);
            let net = NetId(cn);
            let r = if is_out {
                let o = next_out[cc];
                next_out[cc] += 1;
                b.connect_output(net, cell, o)
            } else {
                let j = next_in[cc];
                next_in[cc] += 1;
                b.connect_input(net, cell, j)
            };
            r.expect("contraction produces consistent pins");
        }
    }
    let coarse = b
        .finish()
        .expect("contraction preserves hypergraph validity");
    debug_assert_eq!(coarse.total_area(), hg.total_area());

    Some(CoarseLevel {
        hg: coarse,
        cell_map,
        net_map,
        matched,
        guarded,
    })
}
