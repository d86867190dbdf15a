//! Flat CSR (compressed sparse row) arenas over the hypergraph's
//! pin-level connectivity — the data layout the FM hot path runs on.
//!
//! [`Hypergraph`] keeps per-cell `Vec<NetId>` pin lists and per-net
//! `Vec<Endpoint>` sink lists: convenient to build, but every hot-path
//! query chases a pointer per cell and re-derives the distinct incident
//! nets with a sort+dedup allocation per call. [`CsrGraph`] flattens all
//! of it once per run into contiguous index-range arrays:
//!
//! * `cells → distinct nets` (ascending, exactly the order the old
//!   `incident_nets` sort+dedup produced), with the cell's pins on each
//!   net packed alongside as a sub-range — so a per-net gain evaluation
//!   touches only that net's pins instead of scanning the whole cell.
//!   Each pin record carries the pin's output-dependency mask
//!   ([`CsrPin::mask`]), so the functional-replication connectivity rule
//!   reads one word instead of the cell's adjacency matrix;
//! * `nets → distinct cells` in **first-seen endpoint order** (driver
//!   first, then sinks, duplicates dropped at their first occurrence) —
//!   exactly the order the pass loops used to derive with a linear
//!   `seen` scan per move, so neighbor updates keep electing identical
//!   move sequences. Each `(cell, net)` group also records the cell's
//!   position in that order ([`CsrGraph::positions_of`]), so the bucket
//!   pass can recover a cell's first-seen rank on a net it never walks,
//!   and each net records its cells' groups ([`CsrGraph::net_groups`]),
//!   so a neighbor walk reads a cell's pins on the net without a search.
//!
//! Both orders are part of the determinism contract: the CSR port must
//! be byte-identical to the pointer-chasing baseline (golden tables,
//! the `baseline` module's differential tests), so the arenas encode
//! the traversal orders, not merely the connectivity.

use netpart_hypergraph::{CellId, Hypergraph, NetId, OutputMask, Pin};

/// High bit of a packed pin code: set for output pins.
const OUT_BIT: u32 = 1 << 31;

/// One pin of a `(cell, net)` group: the packed pin code (bit 31 =
/// output, low bits = pin index) and the outputs the pin serves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct CsrPin {
    code: u32,
    /// The pin's output-dependency mask: `1 << o` for output `o`; for
    /// input `j`, the outputs that depend on it
    /// ([`AdjacencyMatrix::input_mask`], 0 for a global input).
    ///
    /// [`AdjacencyMatrix::input_mask`]: netpart_hypergraph::AdjacencyMatrix::input_mask
    pub(crate) mask: OutputMask,
}

impl CsrPin {
    pub(crate) fn new(pin: Pin, mask: OutputMask) -> Self {
        let code = match pin {
            Pin::Input(j) => u32::from(j),
            Pin::Output(o) => OUT_BIT | u32::from(o),
        };
        CsrPin { code, mask }
    }

    /// Returns `true` for an output (driver) pin.
    pub(crate) fn is_output(self) -> bool {
        self.code & OUT_BIT != 0
    }

    /// The pin this record packs.
    #[cfg(test)]
    fn pin(self) -> Pin {
        if self.is_output() {
            Pin::Output((self.code & !OUT_BIT) as u16)
        } else {
            Pin::Input(self.code as u16)
        }
    }
}

/// The flattened connectivity arenas. Immutable once built; shared
/// across pass loops, snapshots and worker threads via `Arc`.
#[derive(Debug)]
pub(crate) struct CsrGraph {
    /// `cells → distinct nets` range bounds (`len = n_cells + 1`).
    cell_net_start: Vec<u32>,
    /// Distinct incident nets per cell, ascending within each cell.
    cell_nets: Vec<NetId>,
    /// Pin sub-range bounds per `(cell, net)` group, indexed parallel
    /// to `cell_nets` (`len = cell_nets.len() + 1`).
    group_start: Vec<u32>,
    /// Pin records grouped by `(cell, net)`, inputs before outputs in
    /// pin order within each group.
    group_pins: Vec<CsrPin>,
    /// Per `(cell, net)` group, parallel to `cell_nets`: the cell's
    /// index in that net's `cells_of` slice.
    group_pos: Vec<u32>,
    /// `nets → distinct cells` range bounds (`len = n_nets + 1`).
    net_cell_start: Vec<u32>,
    /// Distinct cells per net in first-seen endpoint order.
    net_cells: Vec<CellId>,
    /// Parallel to `net_cells`: the index of that cell's pin group on
    /// the net (into `cell_nets` and `group_start`).
    net_groups: Vec<u32>,
    /// Maximum distinct-incident-net count over all cells (the FM
    /// in-range gain bound `p_max`).
    max_cell_degree: usize,
    /// Maximum pin count of one `(cell, net)` group: the most pins any
    /// single cell has on any one net.
    max_group_pins: usize,
}

impl CsrGraph {
    /// Flattens `hg` into CSR arenas. `O(pins log pins)` once per run.
    pub(crate) fn build(hg: &Hypergraph) -> Self {
        let n = hg.n_cells();
        let mut cell_net_start = Vec::with_capacity(n + 1);
        cell_net_start.push(0u32);
        let mut cell_nets: Vec<NetId> = Vec::new();
        let mut group_start = vec![0u32];
        let mut group_pins: Vec<CsrPin> = Vec::new();
        let mut pairs: Vec<(NetId, CsrPin)> = Vec::new();
        let mut max_cell_degree = 0usize;
        let mut max_group_pins = 0usize;
        for c in hg.cell_ids() {
            let cell = hg.cell(c);
            // Terminal pads never replicate, so their input masks are
            // never read; their placeholder matrices carry no columns.
            let input_mask = |j: usize| {
                if cell.is_terminal() {
                    0
                } else {
                    cell.adjacency().input_mask(j)
                }
            };
            pairs.clear();
            pairs.extend(
                cell.input_nets()
                    .iter()
                    .enumerate()
                    .map(|(j, &nt)| (nt, CsrPin::new(Pin::Input(j as u16), input_mask(j)))),
            );
            pairs.extend(
                cell.output_nets()
                    .iter()
                    .enumerate()
                    .map(|(o, &nt)| (nt, CsrPin::new(Pin::Output(o as u16), 1 << o))),
            );
            // Stable sort: within one net the pins keep cell-pin order
            // (inputs in pin order, then outputs in pin order).
            pairs.sort_by_key(|&(nt, _)| nt);
            let mut i = 0;
            let first_group = cell_nets.len();
            while i < pairs.len() {
                let nt = pairs[i].0;
                cell_nets.push(nt);
                let g0 = group_pins.len();
                while i < pairs.len() && pairs[i].0 == nt {
                    group_pins.push(pairs[i].1);
                    i += 1;
                }
                // A net has one driver, so only a group's last pin can
                // be an output (`state::group_conn` relies on it).
                debug_assert!(
                    group_pins[g0..group_pins.len() - 1]
                        .iter()
                        .all(|p| !p.is_output()),
                    "one output per group, after the inputs"
                );
                max_group_pins = max_group_pins.max(group_pins.len() - g0);
                group_start.push(group_pins.len() as u32);
            }
            cell_net_start.push(cell_nets.len() as u32);
            max_cell_degree = max_cell_degree.max(cell_nets.len() - first_group);
        }

        let mut net_cell_start = Vec::with_capacity(hg.n_nets() + 1);
        net_cell_start.push(0u32);
        let mut net_cells: Vec<CellId> = Vec::new();
        let mut net_groups: Vec<u32> = Vec::with_capacity(cell_nets.len());
        // First-seen dedup via a per-cell stamp of the last net that
        // recorded it (no net id equals the sentinel).
        let mut stamp = vec![u32::MAX; n];
        // Nets are visited in ascending id order, which is the order of
        // each cell's groups, so a per-cell cursor names the group of
        // the `(cell, net)` pair being recorded.
        let mut group_pos = vec![0u32; cell_nets.len()];
        let mut cursor: Vec<u32> = cell_net_start[..n].to_vec();
        for nt in hg.net_ids() {
            let first = net_cells.len();
            for ep in hg.net(nt).endpoints() {
                let ci = ep.cell.index();
                if stamp[ci] != nt.0 {
                    stamp[ci] = nt.0;
                    let g = cursor[ci] as usize;
                    debug_assert_eq!(cell_nets[g], nt, "net and cell incidence disagree");
                    group_pos[g] = (net_cells.len() - first) as u32;
                    cursor[ci] += 1;
                    net_cells.push(ep.cell);
                    net_groups.push(g as u32);
                }
            }
            net_cell_start.push(net_cells.len() as u32);
        }

        CsrGraph {
            cell_net_start,
            cell_nets,
            group_start,
            group_pins,
            group_pos,
            net_cell_start,
            net_cells,
            net_groups,
            max_cell_degree,
            max_group_pins,
        }
    }

    /// The distinct nets incident to `c`, ascending.
    pub(crate) fn nets_of(&self, c: CellId) -> &[NetId] {
        let (s, e) = (
            self.cell_net_start[c.index()] as usize,
            self.cell_net_start[c.index() + 1] as usize,
        );
        &self.cell_nets[s..e]
    }

    /// Parallel to [`CsrGraph::nets_of`]: `c`'s index in each of its
    /// nets' [`CsrGraph::cells_of`] slices.
    pub(crate) fn positions_of(&self, c: CellId) -> &[u32] {
        let (s, e) = (
            self.cell_net_start[c.index()] as usize,
            self.cell_net_start[c.index() + 1] as usize,
        );
        &self.group_pos[s..e]
    }

    /// `(net, pin records)` groups of `c`, in ascending net order.
    pub(crate) fn groups(&self, c: CellId) -> impl Iterator<Item = (NetId, &[CsrPin])> + '_ {
        let (s, e) = (
            self.cell_net_start[c.index()] as usize,
            self.cell_net_start[c.index() + 1] as usize,
        );
        (s..e).map(move |g| (self.cell_nets[g], self.group_pins(g as u32)))
    }

    /// The pin records of group `g`: a [`CsrGraph::net_groups`] entry.
    #[inline]
    pub(crate) fn group_pins(&self, g: u32) -> &[CsrPin] {
        let g = g as usize;
        let (ps, pe) = (
            self.group_start[g] as usize,
            self.group_start[g + 1] as usize,
        );
        &self.group_pins[ps..pe]
    }

    /// The pin records of `c` on `net` (empty when not incident).
    #[cfg(test)]
    pub(crate) fn pins_on(&self, c: CellId, net: NetId) -> &[CsrPin] {
        let (s, e) = (
            self.cell_net_start[c.index()] as usize,
            self.cell_net_start[c.index() + 1] as usize,
        );
        match self.cell_nets[s..e].binary_search(&net) {
            Ok(i) => self.group_pins((s + i) as u32),
            Err(_) => &[],
        }
    }

    /// The distinct cells on `net` in first-seen endpoint order
    /// (driver's cell first).
    pub(crate) fn cells_of(&self, net: NetId) -> &[CellId] {
        let (s, e) = (
            self.net_cell_start[net.index()] as usize,
            self.net_cell_start[net.index() + 1] as usize,
        );
        &self.net_cells[s..e]
    }

    /// Parallel to [`CsrGraph::cells_of`]: the pin group of each of
    /// `net`'s cells on `net`, for [`CsrGraph::group_pins`].
    pub(crate) fn net_groups(&self, net: NetId) -> &[u32] {
        let (s, e) = (
            self.net_cell_start[net.index()] as usize,
            self.net_cell_start[net.index() + 1] as usize,
        );
        &self.net_groups[s..e]
    }

    /// Maximum distinct-incident-net count over all cells (`p_max`).
    pub(crate) fn max_cell_degree(&self) -> usize {
        self.max_cell_degree
    }

    /// The most pins any single cell has on any one net: a bound on how
    /// far one cell's state change can move a net's per-side sink or
    /// driver count.
    pub(crate) fn max_group_pins(&self) -> usize {
        self.max_group_pins
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_hypergraph::{AdjacencyMatrix, CellKind, HypergraphBuilder};

    /// A cell with two pins on one net plus a self-looping net pair,
    /// exercising dedup in both directions.
    fn shared_pin_graph() -> (Hypergraph, CellId, CellId) {
        let mut b = HypergraphBuilder::new();
        let pa = b.add_cell("a", CellKind::input_pad(), 0, 1, AdjacencyMatrix::pad());
        let d = b.add_cell(
            "D",
            CellKind::logic(1),
            2,
            1,
            AdjacencyMatrix::from_rows(2, &[&[0, 1]]),
        );
        let na = b.add_net("na");
        let nx = b.add_net("nx");
        b.connect_output(na, pa, 0).unwrap();
        b.connect_input(na, d, 0).unwrap();
        b.connect_input(na, d, 1).unwrap();
        b.connect_output(nx, d, 0).unwrap();
        let px = b.add_cell("X", CellKind::output_pad(), 1, 0, AdjacencyMatrix::pad());
        b.connect_input(nx, px, 0).unwrap();
        (b.finish().unwrap(), pa, d)
    }

    #[test]
    fn matches_sort_dedup_incident_nets() {
        let (hg, _, d) = shared_pin_graph();
        let csr = CsrGraph::build(&hg);
        for c in hg.cell_ids() {
            let mut nets: Vec<NetId> = hg.cell(c).incident_nets().collect();
            nets.sort_unstable();
            nets.dedup();
            assert_eq!(csr.nets_of(c), nets.as_slice(), "cell {c}");
        }
        assert_eq!(csr.nets_of(d).len(), 2, "na deduped, nx kept");
        assert_eq!(csr.max_cell_degree(), 2);
        assert_eq!(csr.max_group_pins(), 2, "D has both inputs on na");
    }

    #[test]
    fn groups_keep_pin_order_and_cover_all_pins() {
        let (hg, _, d) = shared_pin_graph();
        let csr = CsrGraph::build(&hg);
        let groups: Vec<(NetId, Vec<Pin>)> = csr
            .groups(d)
            .map(|(nt, pins)| (nt, pins.iter().map(|p| p.pin()).collect()))
            .collect();
        assert_eq!(
            groups,
            vec![
                (NetId(0), vec![Pin::Input(0), Pin::Input(1)]),
                (NetId(1), vec![Pin::Output(0)]),
            ]
        );
        assert_eq!(csr.pins_on(d, NetId(0)).len(), 2);
        assert_eq!(csr.pins_on(d, NetId(1)).len(), 1);
        assert!(csr.pins_on(d, NetId(2)).is_empty(), "not incident");
    }

    #[test]
    fn pin_records_carry_output_masks() {
        let (hg, pa, d) = shared_pin_graph();
        let csr = CsrGraph::build(&hg);
        for c in hg.cell_ids() {
            let cell = hg.cell(c);
            for (_, pins) in csr.groups(c) {
                for p in pins {
                    let want = match p.pin() {
                        Pin::Output(o) => 1 << o,
                        Pin::Input(_) if cell.is_terminal() => 0,
                        Pin::Input(j) => cell.adjacency().input_mask(j as usize),
                    };
                    assert_eq!(p.mask, want, "cell {c} pin {:?}", p.pin());
                }
            }
        }
        // D's output depends on both inputs; the pad drives its net.
        let masks = |c| csr.groups(c).flat_map(|(_, ps)| ps.iter().map(|p| p.mask));
        assert_eq!(masks(d).collect::<Vec<_>>(), vec![0b1, 0b1, 0b1]);
        assert_eq!(masks(pa).collect::<Vec<_>>(), vec![0b1]);
    }

    #[test]
    fn net_cells_first_seen_driver_first() {
        let (hg, pa, d) = shared_pin_graph();
        let csr = CsrGraph::build(&hg);
        // na: driver pad a, then D (its duplicate sink pin dropped).
        assert_eq!(csr.cells_of(NetId(0)), &[pa, d]);
        // Mirror the old per-move dedup: first-seen endpoint order.
        for nt in hg.net_ids() {
            let mut seen: Vec<CellId> = Vec::new();
            for ep in hg.net(nt).endpoints() {
                if !seen.contains(&ep.cell) {
                    seen.push(ep.cell);
                }
            }
            assert_eq!(csr.cells_of(nt), seen.as_slice(), "net {nt}");
        }
    }

    #[test]
    fn net_groups_name_each_cells_pins_on_the_net() {
        let (hg, _, _) = shared_pin_graph();
        let csr = CsrGraph::build(&hg);
        for nt in hg.net_ids() {
            let (cells, groups) = (csr.cells_of(nt), csr.net_groups(nt));
            assert_eq!(cells.len(), groups.len());
            for (&c, &g) in cells.iter().zip(groups) {
                assert_eq!(
                    csr.group_pins(g),
                    csr.pins_on(c, nt),
                    "cell {c} on net {nt}"
                );
            }
        }
    }

    #[test]
    fn positions_index_each_cell_on_its_nets() {
        let (hg, _, _) = shared_pin_graph();
        let csr = CsrGraph::build(&hg);
        for c in hg.cell_ids() {
            let (nets, pos) = (csr.nets_of(c), csr.positions_of(c));
            assert_eq!(nets.len(), pos.len());
            for (&nt, &p) in nets.iter().zip(pos) {
                assert_eq!(csr.cells_of(nt)[p as usize], c, "cell {c} on net {nt}");
            }
        }
    }
}
