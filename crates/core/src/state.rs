//! The bipartitioner's mutable state: cell placement/replication states,
//! per-net connected-endpoint counts and incremental cut maintenance.
//!
//! Cut semantics (uniform across plain moves, functional and traditional
//! replication): a net is **cut** iff some side holds a connected *sink*
//! of the net but no connected *driver*. With single-driver nets this is
//! the ordinary "spans both sides" rule; with traditional replication
//! (drivers on both sides) output nets drop out of the cut, exactly as
//! the paper's gain eq. 8 accounts.
//!
//! The hot path runs on the flat [`CsrGraph`] arenas, which carry every
//! cell attribute the engine reads, so a state needs no [`Hypergraph`]:
//! per-net endpoint counts live in one cache-dense array of packed
//! [`NetCounts`] records, and every per-move traversal walks contiguous
//! index ranges instead of chasing the hypergraph's per-cell vectors.

use crate::csr::{CsrGraph, CsrPin};
use netpart_hypergraph::{CellCopy, CellId, Hypergraph, NetId, PartId, Pin, Placement};
use std::ops::Deref;
use std::sync::Arc;

/// Placement/replication state of one cell in a bipartition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CellState {
    /// One copy on `side`.
    Single {
        /// The side holding the only copy.
        side: u8,
    },
    /// Functionally replicated: the original on `orig_side` keeps the
    /// outputs *not* in `replica_mask`; the replica on the other side
    /// keeps `replica_mask` and only the inputs those outputs read.
    Functional {
        /// Side of the original copy.
        orig_side: u8,
        /// Outputs kept by the replica (non-empty proper subset).
        replica_mask: u32,
    },
    /// Traditionally replicated: the replica connects every pin of the
    /// original (both copies drive all output nets).
    Traditional {
        /// Side of the original copy.
        orig_side: u8,
    },
}

impl CellState {
    /// Returns `true` if the cell has two copies.
    pub fn is_replicated(self) -> bool {
        !matches!(self, CellState::Single { .. })
    }
}

/// Mask with the low `m` bits set.
pub(crate) fn full_mask(m: usize) -> u32 {
    debug_assert!(m <= 32);
    if m == 32 {
        u32::MAX
    } else {
        (1u32 << m) - 1
    }
}

/// Connection flags of one pin: `conn[s]` = connected on side `s`.
type Conn = [bool; 2];

/// Per-net connected-endpoint counters, packed so one record (16 bytes,
/// four per cache line) carries everything a cut/occupancy query needs.
/// Occupancy is derived (`sink + drv`) rather than stored.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct NetCounts {
    /// Connected sink endpoints per side.
    sink: [u32; 2],
    /// Connected driver endpoints per side (0..=2).
    drv: [u32; 2],
}

impl NetCounts {
    fn occ(self) -> [u32; 2] {
        [self.sink[0] + self.drv[0], self.sink[1] + self.drv[1]]
    }

    fn spans(self) -> bool {
        let o = self.occ();
        o[0] > 0 && o[1] > 0
    }
}

/// The CSR arenas an [`EngineState`] reads: its own, built by
/// [`EngineState::new`] (shared with the states it validates against),
/// or a caller's, borrowed for the state's lifetime — a flat run's or a
/// k-way carve piece's. Cloning either is cheap, so a pass loop holds
/// its own handle and keeps arena slices across state mutations.
#[derive(Clone, Debug)]
pub(crate) enum Arenas<'a> {
    /// Built for this state.
    Owned(Arc<CsrGraph>),
    /// The caller's.
    Borrowed(&'a CsrGraph),
}

impl Deref for Arenas<'_> {
    type Target = CsrGraph;

    fn deref(&self) -> &CsrGraph {
        match self {
            Arenas::Owned(csr) => csr,
            Arenas::Borrowed(csr) => csr,
        }
    }
}

/// The per-cell and per-net vectors of an [`EngineState`], handed from
/// one state to the next so a workspace allocates them once.
#[derive(Debug, Default)]
pub(crate) struct StateBuffers {
    state: Vec<CellState>,
    counts: Vec<NetCounts>,
}

/// The mutable engine state for one bipartition.
#[derive(Clone, Debug)]
pub struct EngineState<'a> {
    /// The flat connectivity arenas the hot path traverses.
    csr: Arenas<'a>,
    state: Vec<CellState>,
    /// Packed per-net endpoint counts (sinks and drivers per side).
    counts: Vec<NetCounts>,
    areas: [u64; 2],
    cut: usize,
    /// Extra objective cost per terminal cell residing on each side
    /// (models the IOB a pad consumes wherever it lives; the k-way
    /// carver weights the chunk side to relieve its terminal budget).
    terminal_weight: [i64; 2],
    /// Current Σ terminal-weight over pad cells.
    pad_cost: i64,
}

impl<'a> EngineState<'a> {
    /// Builds the state from an initial side per cell.
    ///
    /// # Panics
    ///
    /// Panics if `sides.len() != hg.n_cells()` or a side is not 0/1.
    pub fn new(hg: &Hypergraph, sides: &[u8]) -> Self {
        Self::new_weighted(hg, sides, [0, 0])
    }

    /// Builds the state with a per-side terminal weight: each pad cell on
    /// side `s` adds `terminal_weight[s]` to the objective the gains
    /// optimize (the cut itself always counts 1 per net).
    ///
    /// # Panics
    ///
    /// Panics if `sides.len() != hg.n_cells()` or a side is not 0/1.
    pub fn new_weighted(hg: &Hypergraph, sides: &[u8], terminal_weight: [i64; 2]) -> Self {
        let csr = Arenas::Owned(Arc::new(CsrGraph::build(hg)));
        Self::with_arenas(csr, sides, terminal_weight, StateBuffers::default())
    }

    /// [`EngineState::new_weighted`] over the caller's CSR arenas, in
    /// vectors taken from `buffers` ([`EngineState::into_buffers`] hands
    /// them back).
    ///
    /// # Panics
    ///
    /// Panics if `sides.len() != csr.n_cells()` or a side is not 0/1.
    pub(crate) fn over(
        csr: &'a CsrGraph,
        sides: &[u8],
        terminal_weight: [i64; 2],
        buffers: StateBuffers,
    ) -> Self {
        Self::with_arenas(Arenas::Borrowed(csr), sides, terminal_weight, buffers)
    }

    fn with_arenas(
        csr: Arenas<'a>,
        sides: &[u8],
        terminal_weight: [i64; 2],
        buffers: StateBuffers,
    ) -> Self {
        assert_eq!(sides.len(), csr.n_cells(), "one side per cell");
        assert!(sides.iter().all(|&s| s < 2), "sides are 0 or 1");
        let StateBuffers {
            mut state,
            mut counts,
        } = buffers;
        state.clear();
        state.extend(sides.iter().map(|&s| CellState::Single { side: s }));
        counts.clear();
        counts.resize(csr.n_nets(), NetCounts::default());
        let mut st = EngineState {
            csr,
            state,
            counts,
            areas: [0; 2],
            cut: 0,
            terminal_weight,
            pad_cost: 0,
        };
        for c in st.csr.cell_ids() {
            let s = sides[c.index()] as usize;
            let cell = st.csr.cell(c);
            st.areas[s] += u64::from(cell.area);
            if cell.pad {
                st.pad_cost += terminal_weight[s];
            }
            let cs = st.state[c.index()];
            for (net, pins) in st.csr.groups(c) {
                let nc = &mut st.counts[net.index()];
                *nc = nc.shifted([0; 4], group_conn(cs, pins));
            }
        }
        st.cut = st.counts.iter().filter(|c| c.is_cut()).count();
        st
    }

    /// Gives up the state's vectors for the next state to reuse.
    pub(crate) fn into_buffers(self) -> StateBuffers {
        StateBuffers {
            state: self.state,
            counts: self.counts,
        }
    }

    /// The CSR arenas (cheap to clone; the pass loops hold their own
    /// handle so slices stay borrowable across state mutations).
    pub(crate) fn csr(&self) -> &Arenas<'a> {
        &self.csr
    }

    /// Current state of a cell.
    pub fn cell_state(&self, c: CellId) -> CellState {
        self.state[c.index()]
    }

    /// The current cut size.
    pub fn cut(&self) -> usize {
        self.cut
    }

    /// Current per-side areas (replicas counted on both sides).
    pub fn areas(&self) -> [u64; 2] {
        self.areas
    }

    /// The objective the gains decrease: the cut plus the weighted pad
    /// cost.
    pub(crate) fn objective(&self) -> i64 {
        self.cut as i64 + self.pad_cost
    }

    /// The extra objective cost of a pad on each side.
    pub(crate) fn terminal_weight(&self) -> [i64; 2] {
        self.terminal_weight
    }

    /// Number of replicated cells.
    pub fn replicated_cells(&self) -> usize {
        self.state.iter().filter(|s| s.is_replicated()).count()
    }

    /// Returns `true` if the net is currently cut.
    pub fn is_cut(&self, net: NetId) -> bool {
        self.counts[net.index()].is_cut()
    }

    /// Connected `(sink, driver)` endpoint counts of a net per side —
    /// the snapshot the incremental bucket pass diffs around a move.
    pub(crate) fn net_counts(&self, net: NetId) -> ([u32; 2], [u32; 2]) {
        let nc = self.counts[net.index()];
        (nc.sink, nc.drv)
    }

    /// Connected endpoints (sinks plus drivers) of a net per side.
    pub fn net_side_occupancy(&self, net: NetId) -> [u32; 2] {
        self.counts[net.index()].occ()
    }

    /// Number of nets with connected endpoints on both sides. A
    /// superset of the cut (a traditionally replicated driver occupies
    /// both sides without cutting its output nets); reported as the
    /// `spanning` field of `fm.pass` trace events. Counted on demand,
    /// in O(nets): no move maintains it.
    pub fn spanning_nets(&self) -> usize {
        self.counts.iter().filter(|c| c.spans()).count()
    }

    /// The paper's *criticality* of the net on pin `pin` of an
    /// unreplicated cell `c` of `hg` (the circuit the state was built
    /// for): whether moving that single pin to the other side would
    /// change the net's cut state (used to build the `Q^I`, `Q^O`
    /// vectors of §III).
    ///
    /// Returns `false` for replicated cells (the vectors are defined on
    /// unreplicated cells).
    pub fn pin_critical(&self, hg: &Hypergraph, c: CellId, pin: Pin) -> bool {
        let CellState::Single { side } = self.state[c.index()] else {
            return false;
        };
        let s = side as usize;
        let cell = hg.cell(c);
        let net = match pin {
            Pin::Input(j) => cell.input_net(j as usize),
            Pin::Output(o) => cell.output_net(o as usize),
        };
        let nc = self.counts[net.index()];
        let (mut sc, mut dc) = (nc.sink, nc.drv);
        let before = cut_from(sc, dc);
        match pin {
            Pin::Input(_) => {
                sc[s] -= 1;
                sc[1 - s] += 1;
            }
            Pin::Output(_) => {
                dc[s] -= 1;
                dc[1 - s] += 1;
            }
        }
        cut_from(sc, dc) != before
    }

    /// The objective decrease of moving a terminal cell between sides
    /// under the configured weights (0 for logic cells).
    fn pad_cost_gain(&self, c: CellId, old: CellState, new: CellState) -> i64 {
        if !self.csr.cell(c).pad {
            return 0;
        }
        let side_of = |st: CellState| match st {
            CellState::Single { side } => side as usize,
            CellState::Functional { orig_side, .. } | CellState::Traditional { orig_side } => {
                orig_side as usize
            }
        };
        self.terminal_weight[side_of(old)] - self.terminal_weight[side_of(new)]
    }

    /// Contribution of one net to the gain of changing `c` from `old`
    /// to `new`, evaluated against explicit endpoint `counts`: the
    /// net's cut state before minus after applying the pin deltas of
    /// `c` on `net` (looked up as a CSR pin group — only that net's
    /// pins are touched, never the whole cell).
    ///
    /// [`EngineState::peek_gain`] sums [`pins_contribution`] over a
    /// cell's incident nets against the live counts, and the incremental
    /// bucket pass re-evaluates it against before/after count snapshots
    /// of the nets a move touched — so delta-updated candidate gains
    /// agree with the from-scratch gains by construction. Test-only: the
    /// unit tests check that these per-net terms sum to the peeked gain.
    #[cfg(test)]
    pub(crate) fn net_contribution(
        &self,
        c: CellId,
        old: CellState,
        new: CellState,
        net: NetId,
        counts: ([u32; 2], [u32; 2]),
    ) -> i64 {
        pins_contribution(old, new, self.csr.pins_on(c, net), counts)
    }

    /// The gain (objective decrease: cut plus weighted pad cost) of
    /// changing `c` to `new`, without mutating the state.
    pub fn peek_gain(&self, c: CellId, new: CellState) -> i64 {
        let old = self.state[c.index()];
        let mut gain = self.pad_cost_gain(c, old, new);
        for (net, pins) in self.csr.groups(c) {
            let nc = self.counts[net.index()];
            gain += pins_contribution(old, new, pins, (nc.sink, nc.drv));
        }
        gain
    }

    /// Per-side area change of moving `c` to `new`.
    pub fn area_delta(&self, c: CellId, new: CellState) -> [i64; 2] {
        let a = i64::from(self.csr.cell(c).area);
        let occ = |st: CellState| -> [i64; 2] {
            match st {
                CellState::Single { side } => {
                    let mut v = [0; 2];
                    v[side as usize] = a;
                    v
                }
                _ => [a, a],
            }
        };
        let old = occ(self.state[c.index()]);
        let newv = occ(new);
        [newv[0] - old[0], newv[1] - old[1]]
    }

    /// Applies a state change, updating counts, areas and the cut size.
    /// Returns the realised gain (cut decrease).
    pub fn set_state(&mut self, c: CellId, new: CellState) -> i64 {
        let old = self.state[c.index()];
        if old == new {
            return 0;
        }
        let pad_gain = self.pad_cost_gain(c, old, new);
        self.pad_cost -= pad_gain;
        let ad = self.area_delta(c, new);
        let mut gain = pad_gain;
        {
            // Split borrows: walk the CSR groups while mutating the
            // packed counters in one flat pass per incident net.
            let Self {
                ref csr,
                ref mut counts,
                ref mut cut,
                ..
            } = *self;
            for (net, pins) in csr.groups(c) {
                let nc = &mut counts[net.index()];
                let before = nc.is_cut();
                *nc = nc.shifted(group_conn(old, pins), group_conn(new, pins));
                let after = nc.is_cut();
                gain += i64::from(before) - i64::from(after);
                *cut = (*cut as i64 + i64::from(after) - i64::from(before)) as usize;
            }
        }
        self.areas[0] = (self.areas[0] as i64 + ad[0]) as u64;
        self.areas[1] = (self.areas[1] as i64 + ad[1]) as u64;
        self.state[c.index()] = new;
        gain
    }

    /// Exports the state as a 2-part [`Placement`] of `hg`, the circuit
    /// the state was built for.
    ///
    /// Traditionally replicated cells have no placement representation
    /// (their copies share output nets); collapse them first or avoid
    /// [`CellState::Traditional`] when a placement is needed.
    ///
    /// # Panics
    ///
    /// Panics if any cell is in [`CellState::Traditional`], or if `hg`
    /// has a different cell count.
    pub fn to_placement(&self, hg: &Hypergraph) -> Placement {
        assert_eq!(hg.n_cells(), self.state.len(), "the state's circuit");
        let mut p = Placement::new_uniform(hg, 2, PartId(0));
        for c in hg.cell_ids() {
            match self.state[c.index()] {
                CellState::Single { side } => p.place(c, PartId(u16::from(side))),
                CellState::Functional {
                    orig_side,
                    replica_mask,
                } => {
                    let full = full_mask(self.csr.cell(c).outputs.into());
                    p.set_copies(
                        c,
                        vec![
                            CellCopy {
                                part: PartId(u16::from(orig_side)),
                                outputs: full & !replica_mask,
                            },
                            CellCopy {
                                part: PartId(u16::from(1 - orig_side)),
                                outputs: replica_mask,
                            },
                        ],
                    );
                }
                CellState::Traditional { .. } => {
                    panic!("traditional replication has no Placement representation")
                }
            }
        }
        p
    }

    /// Recomputes every derived quantity from scratch and compares with
    /// the incrementally maintained values. Test/debug aid.
    pub fn validate(&self) -> bool {
        let fresh = {
            let sides: Vec<u8> = self
                .state
                .iter()
                .map(|s| match s {
                    CellState::Single { side } => *side,
                    CellState::Functional { orig_side, .. }
                    | CellState::Traditional { orig_side } => *orig_side,
                })
                .collect();
            let mut f = EngineState::with_arenas(
                self.csr.clone(),
                &sides,
                self.terminal_weight,
                StateBuffers::default(),
            );
            for c in self.csr.cell_ids() {
                f.set_state(c, self.state[c.index()]);
            }
            f
        };
        fresh.counts == self.counts
            && fresh.cut == self.cut
            && fresh.areas == self.areas
            && fresh.pad_cost == self.pad_cost
    }
}

impl NetCounts {
    #[inline]
    fn is_cut(self) -> bool {
        cut_from(self.sink, self.drv)
    }

    /// The counts after one pin group's connections change from `old`
    /// to `new` (both [`group_conn`] results). Each count subtracts
    /// before it adds, so a debug build panics on a group that claims
    /// more connections than the net counts.
    #[inline]
    fn shifted(self, old: [u32; 4], new: [u32; 4]) -> NetCounts {
        NetCounts {
            sink: [
                self.sink[0] - old[0] + new[0],
                self.sink[1] - old[1] + new[1],
            ],
            drv: [self.drv[0] - old[2] + new[2], self.drv[1] - old[3] + new[3]],
        }
    }
}

/// The uniform cut rule: some side holds a connected sink but no
/// connected driver while the other side has one.
#[inline]
fn cut_from(sc: [u32; 2], dc: [u32; 2]) -> bool {
    ((sc[0] > 0) & (dc[0] == 0) & (dc[1] > 0)) | ((sc[1] > 0) & (dc[1] == 0) & (dc[0] > 0))
}

/// Connection flags of one pin record under `state`: `conn[s]` holds
/// iff the copy on side `s` connects the pin (§II). A single copy
/// connects every pin on its side and a traditional replica connects
/// every pin on both. A functional split connects a pin on each side
/// whose kept outputs intersect the pin's output-dependency mask —
/// `mask & !replica_mask` on `orig_side`, `mask & replica_mask` on the
/// other — except a global input (mask 0), which is connected on both.
fn pin_conn(state: CellState, pin: CsrPin) -> Conn {
    match state {
        CellState::Single { side } => {
            let mut conn = [false; 2];
            conn[side as usize] = true;
            conn
        }
        CellState::Traditional { .. } => [true, true],
        CellState::Functional {
            orig_side,
            replica_mask,
        } => {
            if pin.mask == 0 {
                return [true, true];
            }
            let s = orig_side as usize;
            let mut conn = [false; 2];
            conn[s] = pin.mask & !replica_mask != 0;
            conn[1 - s] = pin.mask & replica_mask != 0;
            conn
        }
    }
}

/// Connected endpoints of one `(cell, net)` pin group under `state`:
/// `[sinks on side 0, sinks on side 1, drivers on side 0, drivers on
/// side 1]`, the sum of [`pin_conn`] over the group's pins.
///
/// A group lists its inputs before its outputs and holds at most one
/// output, since a net has one driver. A single copy or a traditional
/// replica connects every pin, so those states read the counts off the
/// group's length and last pin; only a functional split walks the pins.
#[inline]
pub(crate) fn group_conn(state: CellState, pins: &[CsrPin]) -> [u32; 4] {
    let outs = u32::from(pins.last().is_some_and(|p| p.is_output()));
    let ins = pins.len() as u32 - outs;
    match state {
        CellState::Single { side: 0 } => [ins, 0, outs, 0],
        CellState::Single { .. } => [0, ins, 0, outs],
        CellState::Traditional { .. } => [ins, ins, outs, outs],
        CellState::Functional { .. } => {
            let mut conn = [0; 4];
            for &pin in pins {
                let [c0, c1] = pin_conn(state, pin);
                let k = if pin.is_output() { 2 } else { 0 };
                conn[k] += u32::from(c0);
                conn[k + 1] += u32::from(c1);
            }
            conn
        }
    }
}

/// Cut-state contribution of one net's pin group to a state change:
/// before minus after, applying only the connection change of `pins`
/// (the changing cell's pin records on that net) to the explicit
/// `counts`.
#[inline]
pub(crate) fn pins_contribution(
    old: CellState,
    new: CellState,
    pins: &[CsrPin],
    counts: ([u32; 2], [u32; 2]),
) -> i64 {
    let (sink, drv) = counts;
    let nc = NetCounts { sink, drv };
    let after = nc.shifted(group_conn(old, pins), group_conn(new, pins));
    i64::from(nc.is_cut()) - i64::from(after.is_cut())
}

/// Whether a net's endpoint counts moving from `before` to `after` is
/// *quiet*: no cell on the net sees any [`pins_contribution`] change,
/// whatever its current and candidate states.
///
/// `max_pins` bounds the pins one cell has on one net
/// ([`CsrGraph::max_group_pins`]). A transition is quiet when the driver
/// counts are unchanged and each side's sink count is unchanged or,
/// before and after, above `max_pins`. [`pins_contribution`] reads the
/// counts only through [`cut_from`], which tests `drv` values and
/// `sink[s] > 0`, against the counts as given and after one cell's pin
/// deltas, which move a sink count by at least `-max_pins`. Every such
/// test therefore has the same outcome before and after.
pub(crate) fn quiet_transition(
    before: ([u32; 2], [u32; 2]),
    after: ([u32; 2], [u32; 2]),
    max_pins: u32,
) -> bool {
    let ((sink0, drv0), (sink1, drv1)) = (before, after);
    drv0 == drv1
        && (0..2).all(|s| sink0[s] == sink1[s] || (sink0[s] > max_pins && sink1[s] > max_pins))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_hypergraph::{AdjacencyMatrix, CellKind, HypergraphBuilder};

    /// The Fig. 1 fixture: cell M (in {a,b,c}, out {X,Y}; X←{a,b},
    /// Y←{b,c}), pads around it.
    fn fig1() -> (Hypergraph, CellId, [NetId; 5]) {
        let mut b = HypergraphBuilder::new();
        let pads: Vec<_> = ["a", "b", "c"]
            .iter()
            .map(|n| b.add_cell(*n, CellKind::input_pad(), 0, 1, AdjacencyMatrix::pad()))
            .collect();
        let m = b.add_cell(
            "M",
            CellKind::logic(1),
            3,
            2,
            AdjacencyMatrix::from_rows(3, &[&[0, 1], &[1, 2]]),
        );
        let px = b.add_cell("X", CellKind::output_pad(), 1, 0, AdjacencyMatrix::pad());
        let py = b.add_cell("Y", CellKind::output_pad(), 1, 0, AdjacencyMatrix::pad());
        let nets: Vec<NetId> = ["na", "nb", "nc", "nx", "ny"]
            .iter()
            .map(|n| b.add_net(*n))
            .collect();
        for i in 0..3 {
            b.connect_output(nets[i], pads[i], 0).unwrap();
            b.connect_input(nets[i], m, i).unwrap();
        }
        b.connect_output(nets[3], m, 0).unwrap();
        b.connect_input(nets[3], px, 0).unwrap();
        b.connect_output(nets[4], m, 1).unwrap();
        b.connect_input(nets[4], py, 0).unwrap();
        (
            b.finish().unwrap(),
            m,
            [nets[0], nets[1], nets[2], nets[3], nets[4]],
        )
    }

    #[test]
    fn initial_counts_and_cut() {
        let (hg, m, _) = fig1();
        // Pads a,b on side 0; pad c, X, Y on side 1; M on side 0.
        let sides = vec![0, 0, 1, 0, 1, 1];
        let st = EngineState::new(&hg, &sides);
        // nc: driver (pad c) on 1, sink (M input) on 0 → cut.
        // nx: driver (M) on 0, sink (pad X) on 1 → cut.
        // ny: driver on 0, sink on 1 → cut.
        assert_eq!(st.cut(), 3);
        assert_eq!(st.areas(), [1, 0]);
        assert!(st.validate());
        let _ = m;
    }

    #[test]
    fn move_gain_matches_apply() {
        let (hg, m, _) = fig1();
        let sides = vec![0, 0, 1, 0, 1, 1];
        let mut st = EngineState::new(&hg, &sides);
        let g = st.peek_gain(m, CellState::Single { side: 1 });
        // Moving M to side 1: na, nb become cut (+2), nc, nx, ny uncut (−3)
        // → net gain +1.
        assert_eq!(g, 1);
        let realized = st.set_state(m, CellState::Single { side: 1 });
        assert_eq!(realized, 1);
        assert_eq!(st.cut(), 2);
        assert!(st.validate());
    }

    #[test]
    fn functional_replication_gain() {
        let (hg, m, _) = fig1();
        // Everything on side 0 except pads c and Y on side 1.
        let sides = vec![0, 0, 1, 0, 0, 1];
        let mut st = EngineState::new(&hg, &sides);
        // cut: nc (c pad on 1 feeds M on 0), ny (M on 0 feeds Y pad on 1).
        assert_eq!(st.cut(), 2);
        // Replicate M with the replica keeping output Y (bit 1) on side 1:
        // replica connects b,c and drives ny locally; original keeps X with
        // a,b. nc now sinks only on side 1 (replica) → uncut. ny driver
        // moves to side 1 → uncut. nb gains a sink on side 1 → cut.
        let new = CellState::Functional {
            orig_side: 0,
            replica_mask: 0b10,
        };
        assert_eq!(st.peek_gain(m, new), 1);
        st.set_state(m, new);
        assert_eq!(st.cut(), 1);
        assert_eq!(st.areas(), [1, 1]);
        assert_eq!(st.replicated_cells(), 1);
        assert!(st.validate());
        // Unreplicate back to side 0 restores the original cut.
        st.set_state(m, CellState::Single { side: 0 });
        assert_eq!(st.cut(), 2);
        assert_eq!(st.areas(), [1, 0]);
        assert!(st.validate());
    }

    #[test]
    fn traditional_replication_covers_output_nets() {
        let (hg, m, _) = fig1();
        // Pads a,b,c on side 0, M on side 0, X and Y pads on side 1.
        let sides = vec![0, 0, 0, 0, 1, 1];
        let mut st = EngineState::new(&hg, &sides);
        assert_eq!(st.cut(), 2); // nx, ny exported
                                 // Traditional replication: copies on both sides drive nx and ny,
                                 // so both leave the cut; inputs a,b,c all become cut.
        let new = CellState::Traditional { orig_side: 0 };
        assert_eq!(st.peek_gain(m, new), 2 - 3);
        st.set_state(m, new);
        assert_eq!(st.cut(), 3);
        assert!(st.validate());
    }

    #[test]
    fn occupancy_and_spanning_track_moves() {
        let (hg, m, nets) = fig1();
        let sides = vec![0, 0, 1, 0, 1, 1];
        let mut st = EngineState::new(&hg, &sides);
        // nc, nx, ny have endpoints on both sides; na, nb are local.
        assert_eq!(st.spanning_nets(), 3);
        assert_eq!(st.net_side_occupancy(nets[0]), [2, 0]);
        assert_eq!(st.net_side_occupancy(nets[2]), [1, 1]);
        st.set_state(m, CellState::Single { side: 1 });
        // M on side 1: na, nb now span; nc, nx, ny collapse to side 1.
        assert_eq!(st.spanning_nets(), 2);
        assert_eq!(st.net_side_occupancy(nets[2]), [0, 2]);
        assert!(st.validate());
        // Replication occupies both sides of every net M touches.
        st.set_state(m, CellState::Traditional { orig_side: 1 });
        assert_eq!(st.spanning_nets(), 5);
        assert!(st.validate());
    }

    #[test]
    fn peek_gain_is_sum_of_net_contributions() {
        let (hg, m, _) = fig1();
        let sides = vec![0, 0, 1, 0, 1, 1];
        let st = EngineState::new(&hg, &sides);
        for new in [
            CellState::Single { side: 1 },
            CellState::Traditional { orig_side: 0 },
            CellState::Functional {
                orig_side: 0,
                replica_mask: 0b10,
            },
        ] {
            let old = st.cell_state(m);
            let sum: i64 = st
                .csr
                .nets_of(m)
                .iter()
                .map(|&n| st.net_contribution(m, old, new, n, st.net_counts(n)))
                .sum();
            assert_eq!(sum, st.peek_gain(m, new));
        }
    }

    #[test]
    fn global_input_stays_connected_on_both_copies() {
        // G: inputs a, b, clk; X ← {a}, Y ← {b}; clk controls no output.
        let mut b = HypergraphBuilder::new();
        let [pa, pb, pclk] = ["a", "b", "clk"]
            .map(|n| b.add_cell(n, CellKind::input_pad(), 0, 1, AdjacencyMatrix::pad()));
        let g = b.add_cell(
            "G",
            CellKind::logic(1),
            3,
            2,
            AdjacencyMatrix::from_rows(3, &[&[0], &[1]]),
        );
        let px = b.add_cell("X", CellKind::output_pad(), 1, 0, AdjacencyMatrix::pad());
        let py = b.add_cell("Y", CellKind::output_pad(), 1, 0, AdjacencyMatrix::pad());
        let [na, nb, nclk, nx, ny] = ["na", "nb", "nclk", "nx", "ny"].map(|n| b.add_net(n));
        for (j, (net, pad)) in [(na, pa), (nb, pb), (nclk, pclk)].into_iter().enumerate() {
            b.connect_output(net, pad, 0).unwrap();
            b.connect_input(net, g, j).unwrap();
        }
        b.connect_output(nx, g, 0).unwrap();
        b.connect_input(nx, px, 0).unwrap();
        b.connect_output(ny, g, 1).unwrap();
        b.connect_input(ny, py, 0).unwrap();
        let hg = b.finish().unwrap();
        // clk and Y on side 1, everything else on side 0.
        let mut st = EngineState::new(&hg, &[0, 0, 1, 0, 0, 1]);
        // The replica on side 1 keeps Y; both copies still need clk, so
        // the original's clk sink on side 0 keeps nclk cut.
        st.set_state(
            g,
            CellState::Functional {
                orig_side: 0,
                replica_mask: 0b10,
            },
        );
        assert_eq!(st.net_side_occupancy(nclk), [1, 2]);
        assert!(st.is_cut(nclk));
        assert!(!st.is_cut(ny));
        let p = st.to_placement(&hg);
        assert_eq!(p.cut_size(&hg), st.cut());
        assert!(st.validate());
    }

    /// Every state of a two-output cell: single on either side,
    /// traditionally replicated, and functionally split with either
    /// output on the replica.
    fn two_output_states() -> Vec<CellState> {
        (0..2u8)
            .flat_map(|s| {
                [
                    CellState::Single { side: s },
                    CellState::Traditional { orig_side: s },
                    CellState::Functional {
                        orig_side: s,
                        replica_mask: 0b01,
                    },
                    CellState::Functional {
                        orig_side: s,
                        replica_mask: 0b10,
                    },
                ]
            })
            .collect()
    }

    /// Every pin group of 1..=`max_pins` pins of a two-output cell:
    /// inputs of every dependency mask (global included) in pin order,
    /// then at most one output.
    fn small_groups(max_pins: u32) -> Vec<Vec<CsrPin>> {
        let input_masks = [0, 0b01, 0b10, 0b11];
        let mut groups: Vec<Vec<CsrPin>> = Vec::new();
        for n_in in 0..=max_pins {
            for combo in 0..4usize.pow(n_in) {
                let inputs: Vec<CsrPin> = (0..n_in)
                    .map(|j| {
                        let mask = input_masks[combo / 4usize.pow(j) % 4];
                        CsrPin::new(Pin::Input(j as u16), mask)
                    })
                    .collect();
                for output in [None, Some(0u16), Some(1)] {
                    let mut g = inputs.clone();
                    g.extend(output.map(|o| CsrPin::new(Pin::Output(o), 1 << o)));
                    if !g.is_empty() && g.len() <= max_pins as usize {
                        groups.push(g);
                    }
                }
            }
        }
        groups
    }

    /// Whether `counts` can hold the group's own connections under
    /// `state`; smaller counts never occur.
    fn holds(counts: ([u32; 2], [u32; 2]), state: CellState, pins: &[CsrPin]) -> bool {
        let own = group_conn(state, pins);
        let (sink, drv) = counts;
        (0..2).all(|s| sink[s] >= own[s] && drv[s] >= own[2 + s])
    }

    /// The per-pin gain rule [`pins_contribution`] replaced: reconnect
    /// each pin of the group through [`pin_conn`], one count at a time,
    /// and test the cut rule as a short-circuiting scan.
    fn per_pin_contribution(
        old: CellState,
        new: CellState,
        pins: &[CsrPin],
        counts: ([u32; 2], [u32; 2]),
    ) -> i64 {
        let cut =
            |sc: [u32; 2], dc: [u32; 2]| (0..2).any(|s| sc[s] > 0 && dc[s] == 0 && dc[1 - s] > 0);
        let (mut sink, mut drv) = counts;
        let before = cut(sink, drv);
        for &pin in pins {
            let slots = if pin.is_output() { &mut drv } else { &mut sink };
            let (o, n) = (pin_conn(old, pin), pin_conn(new, pin));
            for s in 0..2 {
                slots[s] = slots[s] + u32::from(n[s]) - u32::from(o[s]);
            }
        }
        i64::from(before) - i64::from(cut(sink, drv))
    }

    #[test]
    fn group_conn_sums_pin_conn() {
        // Every state of a two-output cell and every group of up to
        // three pins: the group counts equal the per-pin connections
        // summed, sinks from inputs and drivers from the output.
        let mut checked = 0;
        for pins in small_groups(3) {
            for state in two_output_states() {
                let mut want = [0u32; 4];
                for &pin in &pins {
                    let k = if pin.is_output() { 2 } else { 0 };
                    let conn = pin_conn(state, pin);
                    want[k] += u32::from(conn[0]);
                    want[k + 1] += u32::from(conn[1]);
                }
                assert_eq!(group_conn(state, &pins), want, "{state:?}, pins {pins:?}");
                checked += 1;
            }
        }
        // Groups by input count 0..=3: 2 + 4·3 + 16·3 + 64.
        assert_eq!(checked, 8 * (2 + 12 + 48 + 64), "groups x states");
    }

    #[test]
    fn group_contribution_matches_per_pin_reference() {
        // All small counts: sinks 0..=4 and drivers 0..=2 per side, every
        // group of up to three pins and every (current, candidate) pair.
        let states = two_output_states();
        let groups = small_groups(3);
        let mut checked = 0u64;
        for sink in (0..=4).flat_map(|a| (0..=4).map(move |b| [a, b])) {
            for drv in (0..=2).flat_map(|a| (0..=2).map(move |b| [a, b])) {
                for pins in &groups {
                    for &cur in &states {
                        if !holds((sink, drv), cur, pins) {
                            continue;
                        }
                        for &new in &states {
                            assert_eq!(
                                pins_contribution(cur, new, pins, (sink, drv)),
                                per_pin_contribution(cur, new, pins, (sink, drv)),
                                "{sink:?}/{drv:?}, {cur:?} -> {new:?}, pins {pins:?}"
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked > 500_000, "{checked} cases");
    }

    #[test]
    fn quiet_transitions_change_no_contribution() {
        // Exhaustive over small counts: every group of up to `max_pins`
        // pins of a two-output cell (inputs of every dependency mask,
        // at most one output), every (current, candidate) state pair,
        // equal driver counts 0..=2 and sink counts 0..=max_pins+2 per
        // side. Counts smaller than the group's own connections under
        // the current state never occur, so they are skipped.
        let states = two_output_states();
        let (mut checked, mut sinks_moved) = (0u64, 0u64);
        for max_pins in 1..=3u32 {
            let groups = small_groups(max_pins);
            let side_pairs: Vec<(u32, u32)> = (0..=max_pins + 2)
                .flat_map(|b| (0..=max_pins + 2).map(move |a| (b, a)))
                .collect();
            for drv in (0..=2).flat_map(|d0| (0..=2).map(move |d1| [d0, d1])) {
                for &(b0, a0) in &side_pairs {
                    for &(b1, a1) in &side_pairs {
                        let (before, after) = (([b0, b1], drv), ([a0, a1], drv));
                        if !quiet_transition(before, after, max_pins) {
                            continue;
                        }
                        sinks_moved += u64::from(before != after);
                        for pins in &groups {
                            for &cur in &states {
                                if !holds(before, cur, pins) || !holds(after, cur, pins) {
                                    continue;
                                }
                                for &new in &states {
                                    assert_eq!(
                                        pins_contribution(cur, new, pins, before),
                                        pins_contribution(cur, new, pins, after),
                                        "max_pins {max_pins}, {before:?} -> {after:?}, \
                                         {cur:?} -> {new:?}, pins {pins:?}"
                                    );
                                    checked += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(sinks_moved > 0 && checked > 1_000_000, "{checked} cases");
        // A sink count reaching `max_pins` from above is not quiet.
        assert!(!quiet_transition(([3, 0], [1, 0]), ([2, 0], [1, 0]), 2));
        assert!(!quiet_transition(([5, 0], [1, 0]), ([5, 0], [0, 1]), 2));
    }

    #[test]
    fn placement_export_matches_state() {
        let (hg, m, _) = fig1();
        let sides = vec![0, 0, 1, 0, 0, 1];
        let mut st = EngineState::new(&hg, &sides);
        st.set_state(
            m,
            CellState::Functional {
                orig_side: 0,
                replica_mask: 0b10,
            },
        );
        let p = st.to_placement(&hg);
        p.validate(&hg).unwrap();
        assert_eq!(p.cut_size(&hg), st.cut());
        assert_eq!(
            [p.part_area(&hg, PartId(0)), p.part_area(&hg, PartId(1))],
            [1, 1]
        );
    }

    #[test]
    #[should_panic(expected = "no Placement representation")]
    fn traditional_export_panics() {
        let (hg, m, _) = fig1();
        let mut st = EngineState::new(&hg, &[0; 6]);
        st.set_state(m, CellState::Traditional { orig_side: 0 });
        let _ = st.to_placement(&hg);
    }
}
