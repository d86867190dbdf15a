//! Direct multi-way refinement of a k-way partition.
//!
//! The recursive carver commits each cut before seeing later ones; this
//! post-pass repairs that greediness with k-way-aware local moves:
//!
//! * **cell moves** between parts (pads included), accepted when they
//!   reduce total terminal usage `Σ t_Pj` (the numerator of the paper's
//!   eq. 2) without breaking any part's device feasibility;
//! * **unreplication cleanup**: a replicated pair whose merge no longer
//!   costs interconnect is collapsed, recovering CLB area.
//!
//! This is the "multi-way refinement" extension listed in DESIGN.md §12.

use netpart_fpga::DeviceLibrary;
use netpart_hypergraph::{CellId, Hypergraph, NetId, PartId, Placement};

/// Outcome of a refinement run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RefineStats {
    /// Accepted cell moves.
    pub moves: usize,
    /// Total terminal usage `Σ t_Pj` before refinement.
    pub terminals_before: usize,
    /// Total terminal usage after refinement.
    pub terminals_after: usize,
}

/// Incremental k-way bookkeeping: per-net endpoint and pad counts per
/// part, per-part areas and terminal usage.
struct RefState<'a> {
    hg: &'a Hypergraph,
    n_parts: usize,
    /// Connected endpoints of each net in each part.
    counts: Vec<u32>,
    /// Connected *pad* endpoints of each net in each part.
    pads: Vec<u32>,
    part_areas: Vec<u64>,
    part_terms: Vec<i64>,
}

impl<'a> RefState<'a> {
    fn idx(&self, net: NetId, part: usize) -> usize {
        net.index() * self.n_parts + part
    }

    fn new(hg: &'a Hypergraph, placement: &Placement) -> Self {
        let n_parts = placement.n_parts();
        let mut st = RefState {
            hg,
            n_parts,
            counts: vec![0; hg.n_nets() * n_parts],
            pads: vec![0; hg.n_nets() * n_parts],
            part_areas: placement.part_areas(hg),
            part_terms: vec![0; n_parts],
        };
        for nid in hg.net_ids() {
            for ep in hg.net(nid).endpoints() {
                let is_pad = hg.cell(ep.cell).is_terminal();
                for (ci, copy) in placement.copies(ep.cell).iter().enumerate() {
                    if placement.pin_connected(hg, ep.cell, ci, ep.pin) {
                        let i = st.idx(nid, copy.part.index());
                        st.counts[i] += 1;
                        if is_pad {
                            st.pads[i] += 1;
                        }
                    }
                }
            }
        }
        for nid in hg.net_ids() {
            for p in 0..n_parts {
                st.part_terms[p] += st.net_iobs(nid, p);
            }
        }
        st
    }

    /// IOBs net `nid` consumes in `part` under the current counts.
    fn net_iobs(&self, nid: NetId, part: usize) -> i64 {
        let touches = self.counts[self.idx(nid, part)] > 0;
        if !touches {
            return 0;
        }
        let spans = (0..self.n_parts)
            .filter(|&p| self.counts[self.idx(nid, p)] > 0)
            .count();
        let crossing = i64::from(spans >= 2);
        i64::from(self.pads[self.idx(nid, part)]).max(crossing)
    }

    /// Applies (or simulates) moving every connected endpoint of `cell`'s
    /// single copy from `from` to `to`, returning the per-part terminal
    /// deltas it causes. When `commit` is false the state is restored.
    fn move_deltas(
        &mut self,
        cell: CellId,
        from: usize,
        to: usize,
        commit: bool,
    ) -> Vec<(usize, i64)> {
        let cellref = self.hg.cell(cell);
        let is_pad = cellref.is_terminal();
        let mut nets: Vec<NetId> = cellref.incident_nets().collect();
        nets.sort_unstable();
        nets.dedup();
        // Parts whose IOB count can change: every part touching the nets.
        let mut affected: Vec<usize> = Vec::new();
        for &nid in &nets {
            for p in 0..self.n_parts {
                if self.counts[self.idx(nid, p)] > 0 {
                    affected.push(p);
                }
            }
        }
        affected.push(to);
        affected.sort_unstable();
        affected.dedup();

        let before: Vec<i64> = affected
            .iter()
            .map(|&p| nets.iter().map(|&n| self.net_iobs(n, p)).sum())
            .collect();
        // How many endpoints of each net belong to this cell.
        for &nid in &nets {
            let k = Self::pin_count_on(self.hg, cell, nid);
            let (i_from, i_to) = (self.idx(nid, from), self.idx(nid, to));
            self.counts[i_from] -= k;
            self.counts[i_to] += k;
            if is_pad {
                self.pads[i_from] -= k;
                self.pads[i_to] += k;
            }
        }
        let mut deltas = Vec::with_capacity(affected.len());
        for (i, &p) in affected.iter().enumerate() {
            let after: i64 = nets.iter().map(|&n| self.net_iobs(n, p)).sum();
            deltas.push((p, after - before[i]));
        }
        if commit {
            let a = u64::from(cellref.area());
            self.part_areas[from] -= a;
            self.part_areas[to] += a;
            for &(p, d) in &deltas {
                self.part_terms[p] += d;
            }
        } else {
            for &nid in &nets {
                let k = Self::pin_count_on(self.hg, cell, nid);
                let (i_from, i_to) = (self.idx(nid, from), self.idx(nid, to));
                self.counts[i_to] -= k;
                self.counts[i_from] += k;
                if is_pad {
                    self.pads[i_to] -= k;
                    self.pads[i_from] += k;
                }
            }
        }
        deltas
    }

    /// How many pins of `cell` attach to `nid`.
    fn pin_count_on(hg: &Hypergraph, cell: CellId, nid: NetId) -> u32 {
        let c = hg.cell(cell);
        let on = |nets: &[NetId]| nets.iter().filter(|&&n| n == nid).count() as u32;
        on(c.input_nets()) + on(c.output_nets())
    }

    fn total_terms(&self) -> i64 {
        self.part_terms.iter().sum()
    }
}

/// Refines a k-way placement in place; `devices[p]` is the library index
/// of part `p`'s device (unchanged by refinement).
///
/// Runs up to `max_passes` sweeps; each sweep tries, for every
/// single-copy cell, the parts its nets touch, accepting the best move
/// that strictly reduces `Σ t_Pj` while keeping every affected part
/// feasible. Returns the acceptance statistics.
///
/// # Panics
///
/// Panics if `devices` is shorter than the placement's part count.
pub fn refine_kway(
    hg: &Hypergraph,
    placement: &mut Placement,
    devices: &[usize],
    library: &DeviceLibrary,
    max_passes: usize,
) -> RefineStats {
    assert!(devices.len() >= placement.n_parts(), "device per part");
    let mut st = RefState::new(hg, placement);
    let terminals_before = st.total_terms() as usize;
    let mut stats = RefineStats {
        moves: 0,
        terminals_before,
        terminals_after: terminals_before,
    };
    let feasible = |st: &RefState<'_>, p: usize| -> bool {
        let d = library.device(devices[p]);
        // Empty parts stay empty-feasible.
        if st.part_areas[p] == 0 && st.part_terms[p] == 0 {
            return true;
        }
        d.fits(st.part_areas[p], st.part_terms[p].max(0) as u64)
    };

    for _ in 0..max_passes.max(1) {
        let mut improved = false;
        for cell in hg.cell_ids() {
            if placement.is_replicated(cell) {
                continue;
            }
            let from = placement.copies(cell)[0].part.index();
            // Candidate targets: parts the cell's nets already touch.
            let mut targets: Vec<usize> = Vec::new();
            for nid in hg.cell(cell).incident_nets() {
                for p in 0..st.n_parts {
                    if p != from && st.counts[st.idx(nid, p)] > 0 {
                        targets.push(p);
                    }
                }
            }
            targets.sort_unstable();
            targets.dedup();
            let mut best: Option<(i64, usize)> = None;
            for &to in &targets {
                // Area feasibility first (cheap).
                let a = u64::from(hg.cell(cell).area());
                let dto = library.device(devices[to]);
                if st.part_areas[to] + a > dto.max_clbs() {
                    continue;
                }
                let deltas = st.move_deltas(cell, from, to, false);
                let total: i64 = deltas.iter().map(|&(_, d)| d).sum();
                if total >= best.map_or(0, |(b, _)| b) {
                    continue;
                }
                // Terminal feasibility of every affected part.
                let ok = deltas.iter().all(|&(p, d)| {
                    let t = st.part_terms[p] + d;
                    let dev = library.device(devices[p]);
                    t <= i64::from(dev.iobs())
                }) && {
                    // The source part must stay above its device's lower
                    // utilization bound (or empty out entirely); the
                    // target only grows, so its lower bound still holds.
                    let dfrom = library.device(devices[from]);
                    let from_area = st.part_areas[from] - a;
                    from_area == 0 || from_area >= dfrom.min_clbs()
                };
                if ok {
                    best = Some((total, to));
                }
            }
            if let Some((_, to)) = best {
                st.move_deltas(cell, from, to, true);
                placement.place(cell, PartId(to as u16));
                // Keep feasibility honest even under bookkeeping drift.
                debug_assert!(feasible(&st, to) && feasible(&st, from));
                stats.moves += 1;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    stats.terminals_after = st.total_terms() as usize;
    stats
}

/// Collapses replicated cells whose merge does not increase total
/// terminal usage, preferring the merge direction with the lower usage.
/// Returns the number of unreplications applied.
pub fn unreplicate_cleanup(
    hg: &Hypergraph,
    placement: &mut Placement,
    devices: &[usize],
    library: &DeviceLibrary,
) -> usize {
    assert!(devices.len() >= placement.n_parts(), "device per part");
    let mut applied = 0usize;
    for cell in hg.cell_ids() {
        if !placement.is_replicated(cell) || placement.copies(cell).len() != 2 {
            continue;
        }
        let parts: Vec<PartId> = placement.copies(cell).iter().map(|c| c.part).collect();
        let saved = placement.copies(cell).to_vec();
        let base_terms: usize = placement.part_terminal_counts(hg).iter().sum();
        let mut best: Option<(usize, PartId)> = None;
        for &target in &parts {
            placement.unreplicate(cell, target).expect("part in range");
            let counts = placement.part_terminal_counts(hg);
            let terms: usize = counts.iter().sum();
            let areas = placement.part_areas(hg);
            let ok = (0..placement.n_parts()).all(|p| {
                let d = library.device(devices[p]);
                let t = counts[p] as u64;
                (areas[p] == 0 && t == 0) || d.fits(areas[p], t)
            });
            if ok && terms <= base_terms && best.is_none_or(|(b, _)| terms < b) {
                best = Some((terms, target));
            }
            placement.set_copies(cell, saved.clone());
        }
        if let Some((_, target)) = best {
            placement.unreplicate(cell, target).expect("part in range");
            applied += 1;
        }
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kway::{kway_partition, KWayConfig};
    use crate::ReplicationMode;
    use netpart_fpga::evaluate;
    use netpart_netlist::{generate, GeneratorConfig};
    use netpart_techmap::{map, MapperConfig};

    fn mapped(gates: usize, dffs: usize, seed: u64) -> Hypergraph {
        let nl = generate(&GeneratorConfig::new(gates).with_dff(dffs).with_seed(seed));
        map(&nl, &MapperConfig::xc3000())
            .unwrap()
            .to_hypergraph(&nl)
    }

    #[test]
    fn refinement_never_hurts_and_stays_feasible() {
        let hg = mapped(900, 50, 3);
        let lib = DeviceLibrary::xc3000();
        let cfg = KWayConfig::new(lib.clone())
            .with_candidates(2)
            .with_seed(9)
            .with_max_passes(8);
        let mut res = kway_partition(&hg, &cfg).unwrap();
        let before = evaluate(&hg, &res.placement, &lib, &res.devices);
        let stats = refine_kway(&hg, &mut res.placement, &res.devices, &lib, 4);
        res.placement.validate(&hg).unwrap();
        let after = evaluate(&hg, &res.placement, &lib, &res.devices);
        assert!(after.feasible, "refinement must preserve feasibility");
        assert!(
            stats.terminals_after <= stats.terminals_before,
            "refinement must not increase Σ t_Pj"
        );
        assert!(after.avg_iob_util <= before.avg_iob_util + 1e-9);
        assert_eq!(after.total_cost, before.total_cost, "devices unchanged");
    }

    #[test]
    fn refine_bookkeeping_matches_scratch_evaluation() {
        let hg = mapped(700, 30, 5);
        let lib = DeviceLibrary::xc3000();
        let cfg = KWayConfig::new(lib.clone())
            .with_candidates(2)
            .with_seed(2)
            .with_max_passes(8);
        let mut res = kway_partition(&hg, &cfg).unwrap();
        let stats = refine_kway(&hg, &mut res.placement, &res.devices, &lib, 3);
        let scratch: usize = res.placement.part_terminal_counts(&hg).iter().sum();
        assert_eq!(stats.terminals_after, scratch);
    }

    #[test]
    fn unreplication_cleanup_preserves_feasibility() {
        let hg = mapped(900, 50, 7);
        let lib = DeviceLibrary::xc3000();
        let cfg = KWayConfig::new(lib.clone())
            .with_candidates(2)
            .with_seed(4)
            .with_max_passes(8)
            .with_replication(ReplicationMode::functional(0));
        let mut res = kway_partition(&hg, &cfg).unwrap();
        let before = evaluate(&hg, &res.placement, &lib, &res.devices);
        let _n = unreplicate_cleanup(&hg, &mut res.placement, &res.devices, &lib);
        res.placement.validate(&hg).unwrap();
        let after = evaluate(&hg, &res.placement, &lib, &res.devices);
        assert!(after.feasible);
        assert!(after.avg_iob_util <= before.avg_iob_util + 1e-9);
    }
}
