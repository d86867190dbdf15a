//! Flat CSR (compressed sparse row) arenas over a circuit's pin-level
//! connectivity — the data layout the FM hot path and the k-way carve
//! run on.
//!
//! [`Hypergraph`] keeps per-cell `Vec<NetId>` pin lists and per-net
//! `Vec<Endpoint>` sink lists: convenient to build, but every hot-path
//! query chases a pointer per cell and re-derives the distinct incident
//! nets with a sort+dedup allocation per call. [`CsrGraph`] flattens all
//! of it into contiguous index-range arrays, together with everything
//! else the kernel reads of a cell (area, pad flag, output count, ψ), so
//! a bipartition needs no [`Hypergraph`] at all:
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
//!   so a neighbor walk reads a cell's pins on the net without a search;
//! * `nets → endpoints` in connection order ([`CsrGraph::net_pins`]):
//!   the driver, then every sink pin as connected. The FM kernel never
//!   reads it; the carve's extraction does, because a piece's first-seen
//!   order is that of its *kept* endpoints: a cell with two sink pins on
//!   one net, whose copy drops the first, moves behind the cells
//!   between its two pins.
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
    pub(crate) fn pin(self) -> Pin {
        if self.is_output() {
            Pin::Output((self.code & !OUT_BIT) as u16)
        } else {
            Pin::Input(self.code as u16)
        }
    }
}

/// Per-cell attributes the FM kernel reads alongside the connectivity.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(crate) struct CellAttrs {
    /// Area in elementary circuit units (0 for a pad).
    pub(crate) area: u32,
    /// The replication potential ψ (eq. 4).
    pub(crate) psi: u32,
    /// Output pin count (at most 32).
    pub(crate) outputs: u8,
    /// Whether the cell is a terminal (I/O pad).
    pub(crate) pad: bool,
}

/// One endpoint of a net, in connection order: the endpoint cell's
/// place in the net's [`CsrGraph::cells_of`] slice and its pin record
/// (an index into the pin arena, see [`CsrGraph::pin`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct NetPin {
    pub(crate) slot: u32,
    pub(crate) rec: u32,
}

/// `group_pos` marker of a group whose cell no endpoint has visited yet
/// (only ever seen while a graph is being written).
const UNSEEN: u32 = u32::MAX;

/// The flattened circuit: everything the FM kernel and the k-way carve
/// read. Nothing changes it while a state reads it. A flat run builds
/// one per call from a hypergraph ([`CsrGraph::build`]); the carve
/// writes its pieces in place, into recycled arenas (`crate::extract`).
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct CsrGraph {
    /// Per-cell area, pad flag, output count and ψ.
    cells: Vec<CellAttrs>,
    /// `cells → distinct nets` range bounds (`len = n_cells + 1`).
    cell_net_start: Vec<u32>,
    /// Distinct incident nets per cell, ascending within each cell.
    cell_nets: Vec<NetId>,
    /// Pin sub-range bounds per `(cell, net)` group, indexed parallel
    /// to `cell_nets` (`len = cell_nets.len() + 1`).
    group_start: Vec<u32>,
    /// Pin records grouped by `(cell, net)`, inputs before outputs in
    /// pin order within each group. A cell's groups, and so its pins,
    /// are contiguous.
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
    /// `nets → endpoints` range bounds (`len = n_nets + 1`).
    net_pin_start: Vec<u32>,
    /// Every net's endpoints in connection order: the driver, then the
    /// sinks as they were connected.
    net_pins: Vec<NetPin>,
    /// Maximum distinct-incident-net count over all cells (the FM
    /// in-range gain bound `p_max`).
    max_cell_degree: usize,
    /// Maximum pin count of one `(cell, net)` group: the most pins any
    /// single cell has on any one net.
    max_group_pins: usize,
    /// Σ area over all cells.
    total_area: u64,
    /// Σ pins over pad cells: the IOBs the circuit needs on one device.
    pad_pins: u64,
}

impl CsrGraph {
    /// Flattens `hg` into CSR arenas. `O(pins log pins)` once per run.
    pub(crate) fn build(hg: &Hypergraph) -> Self {
        let mut g = CsrGraph::default();
        g.clear();
        let mut pairs: Vec<(NetId, CsrPin)> = Vec::new();
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
            for (i, &(nt, pin)) in pairs.iter().enumerate() {
                g.push_pin(pin);
                if pairs.get(i + 1).is_none_or(|&(next, _)| next != nt) {
                    g.end_group(nt);
                }
            }
            g.end_cell(CellAttrs {
                area: cell.area(),
                psi: cell.replication_potential() as u32,
                outputs: cell.m_outputs() as u8,
                pad: cell.is_terminal(),
            });
        }

        // Nets are visited in ascending id order, which is the order of
        // each cell's groups, so a per-cell cursor names the group of
        // the `(cell, net)` pair being recorded; a per-cell stamp of the
        // last net that advanced it (no net id equals the sentinel)
        // tells a repeated endpoint of the cell on the same net.
        let mut cursor: Vec<u32> = g.cell_net_start[..hg.n_cells()].to_vec();
        let mut stamp = vec![u32::MAX; hg.n_cells()];
        for nt in hg.net_ids() {
            for ep in hg.net(nt).endpoints() {
                let ci = ep.cell.index();
                if stamp[ci] != nt.0 {
                    stamp[ci] = nt.0;
                    cursor[ci] += 1;
                }
                let group = cursor[ci] - 1;
                debug_assert_eq!(
                    g.cell_nets[group as usize], nt,
                    "net and cell incidence disagree"
                );
                let code = CsrPin::new(ep.pin, 0).code;
                let rec = (g.group_start[group as usize]..g.group_start[group as usize + 1])
                    .find(|&r| g.group_pins[r as usize].code == code)
                    .expect("every endpoint has a pin record");
                g.push_endpoint(ep.cell, group, rec);
            }
            g.end_net();
        }
        g
    }

    /// Empties every arena, keeping its capacity, so the graph can be
    /// written again: cells first (pins by [`CsrGraph::push_pin`],
    /// closed into groups by [`CsrGraph::end_group`] and into cells by
    /// [`CsrGraph::end_cell`]), then nets (endpoints in connection order
    /// by [`CsrGraph::push_endpoint`], closed by [`CsrGraph::end_net`]).
    pub(crate) fn clear(&mut self) {
        self.cells.clear();
        self.cell_net_start.clear();
        self.cell_net_start.push(0);
        self.cell_nets.clear();
        self.group_start.clear();
        self.group_start.push(0);
        self.group_pins.clear();
        self.group_pos.clear();
        self.net_cell_start.clear();
        self.net_cell_start.push(0);
        self.net_cells.clear();
        self.net_groups.clear();
        self.net_pin_start.clear();
        self.net_pin_start.push(0);
        self.net_pins.clear();
        self.max_cell_degree = 0;
        self.max_group_pins = 0;
        self.total_area = 0;
        self.pad_pins = 0;
    }

    /// Copies `src` arena by arena, each into its own capacity, so a
    /// recycled graph allocates only to grow.
    pub(crate) fn copy_from(&mut self, src: &Self) {
        let CsrGraph {
            cells,
            cell_net_start,
            cell_nets,
            group_start,
            group_pins,
            group_pos,
            net_cell_start,
            net_cells,
            net_groups,
            net_pin_start,
            net_pins,
            max_cell_degree,
            max_group_pins,
            total_area,
            pad_pins,
        } = self;
        cells.clone_from(&src.cells);
        cell_net_start.clone_from(&src.cell_net_start);
        cell_nets.clone_from(&src.cell_nets);
        group_start.clone_from(&src.group_start);
        group_pins.clone_from(&src.group_pins);
        group_pos.clone_from(&src.group_pos);
        net_cell_start.clone_from(&src.net_cell_start);
        net_cells.clone_from(&src.net_cells);
        net_groups.clone_from(&src.net_groups);
        net_pin_start.clone_from(&src.net_pin_start);
        net_pins.clone_from(&src.net_pins);
        *max_cell_degree = src.max_cell_degree;
        *max_group_pins = src.max_group_pins;
        *total_area = src.total_area;
        *pad_pins = src.pad_pins;
    }

    /// Appends a pin record to the open group; returns its index.
    pub(crate) fn push_pin(&mut self, pin: CsrPin) -> u32 {
        self.group_pins.push(pin);
        (self.group_pins.len() - 1) as u32
    }

    /// Closes the open group as the open cell's pins on `net` (nets
    /// ascending within a cell); returns the group's index.
    pub(crate) fn end_group(&mut self, net: NetId) -> u32 {
        let g0 = *self.group_start.last().expect("cleared arenas") as usize;
        let pins = &self.group_pins[g0..];
        // A net has one driver, so only a group's last pin can be an
        // output (`state::group_conn` relies on it).
        debug_assert!(
            pins[..pins.len() - 1].iter().all(|p| !p.is_output()),
            "one output per group, after the inputs"
        );
        self.max_group_pins = self.max_group_pins.max(pins.len());
        self.group_start.push(self.group_pins.len() as u32);
        self.cell_nets.push(net);
        self.group_pos.push(UNSEEN);
        (self.cell_nets.len() - 1) as u32
    }

    /// Closes the open cell, whose groups were just ended.
    pub(crate) fn end_cell(&mut self, attrs: CellAttrs) {
        let first = *self.cell_net_start.last().expect("cleared arenas") as usize;
        let groups = self.cell_nets.len();
        self.max_cell_degree = self.max_cell_degree.max(groups - first);
        self.total_area += u64::from(attrs.area);
        if attrs.pad {
            let pins = self.group_start[groups] - self.group_start[first];
            self.pad_pins += u64::from(pins);
        }
        self.cells.push(attrs);
        self.cell_net_start.push(groups as u32);
    }

    /// Appends the open net's next endpoint in connection order: pin
    /// record `rec` of `cell`, in the cell's `group` on that net.
    pub(crate) fn push_endpoint(&mut self, cell: CellId, group: u32, rec: u32) {
        let first = *self.net_cell_start.last().expect("cleared arenas") as usize;
        let pos = &mut self.group_pos[group as usize];
        if *pos == UNSEEN {
            *pos = (self.net_cells.len() - first) as u32;
            self.net_cells.push(cell);
            self.net_groups.push(group);
        }
        self.net_pins.push(NetPin { slot: *pos, rec });
    }

    /// Closes the open net.
    pub(crate) fn end_net(&mut self) {
        self.net_cell_start.push(self.net_cells.len() as u32);
        self.net_pin_start.push(self.net_pins.len() as u32);
    }

    /// Number of cells.
    pub(crate) fn n_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets.
    pub(crate) fn n_nets(&self) -> usize {
        self.net_cell_start.len() - 1
    }

    /// Number of `(cell, net)` pin groups.
    pub(crate) fn n_groups(&self) -> usize {
        self.cell_nets.len()
    }

    /// Number of pin records.
    pub(crate) fn n_pins(&self) -> usize {
        self.group_pins.len()
    }

    /// Cell ids in ascending order.
    pub(crate) fn cell_ids(&self) -> impl Iterator<Item = CellId> {
        (0..self.cells.len() as u32).map(CellId)
    }

    /// Net ids in ascending order.
    pub(crate) fn net_ids(&self) -> impl Iterator<Item = NetId> {
        (0..self.n_nets() as u32).map(NetId)
    }

    /// The attributes of `c`.
    #[inline]
    pub(crate) fn cell(&self, c: CellId) -> CellAttrs {
        self.cells[c.index()]
    }

    /// Σ area over all cells.
    pub(crate) fn total_area(&self) -> u64 {
        self.total_area
    }

    /// Σ pins over pad cells: with no net crossing, each net costs its
    /// pad pins, so this is the IOB count of the whole circuit on one
    /// device ([`Placement::part_terminals`] of a one-part placement).
    ///
    /// [`Placement::part_terminals`]: netpart_hypergraph::Placement::part_terminals
    pub(crate) fn pad_pins(&self) -> u64 {
        self.pad_pins
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

    /// The pin record range of `c`: its groups' pins, contiguous.
    pub(crate) fn pin_range(&self, c: CellId) -> std::ops::Range<u32> {
        let (s, e) = (
            self.cell_net_start[c.index()] as usize,
            self.cell_net_start[c.index() + 1] as usize,
        );
        self.group_start[s]..self.group_start[e]
    }

    /// The group index range of `c`, in ascending net order.
    pub(crate) fn group_range(&self, c: CellId) -> std::ops::Range<u32> {
        self.cell_net_start[c.index()]..self.cell_net_start[c.index() + 1]
    }

    /// The net of group `g`.
    pub(crate) fn group_net(&self, g: u32) -> NetId {
        self.cell_nets[g as usize]
    }

    /// The pin record range of group `g`.
    pub(crate) fn group_pin_range(&self, g: u32) -> std::ops::Range<u32> {
        self.group_start[g as usize]..self.group_start[g as usize + 1]
    }

    /// Pin record `rec`.
    #[inline]
    pub(crate) fn pin(&self, rec: u32) -> CsrPin {
        self.group_pins[rec as usize]
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

    /// `net`'s endpoints in connection order: the driver, then the
    /// sinks as connected.
    pub(crate) fn net_pins(&self, net: NetId) -> &[NetPin] {
        let (s, e) = (
            self.net_pin_start[net.index()] as usize,
            self.net_pin_start[net.index() + 1] as usize,
        );
        &self.net_pins[s..e]
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
