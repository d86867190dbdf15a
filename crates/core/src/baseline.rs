//! The pointer-chasing reference implementation of the engine state:
//! the independent oracle the CSR-arena [`EngineState`] is checked
//! against. Test-only.
//!
//! [`RefEngineState`] is the pre-CSR [`EngineState`]
//! verbatim: per-call `incident_nets` sort+dedup, per-net rescans of the
//! whole cell's pin list, separate sink/driver/occupancy count vectors.
//! It shares no traversal code with the CSR arenas, so any ordering or
//! accounting drift in the flat layout surfaces as a gain/cut/occupancy
//! divergence under the randomized move scripts of the tests below. It
//! stays because it is the only oracle for the CSR state's incremental
//! counters: the certificate verifier checks final solutions, not the
//! per-move gains the FM passes select on.

use crate::state::{full_mask, CellState, EngineState};
use netpart_hypergraph::{CellId, Hypergraph, NetId, Pin};

/// Connection flags of one pin: `conn[s]` = connected on side `s`.
type Conn = [bool; 2];

/// The pre-CSR engine state: identical semantics to
/// [`EngineState`], pointer-y data layout.
#[derive(Clone, Debug)]
pub struct RefEngineState<'a> {
    hg: &'a Hypergraph,
    state: Vec<CellState>,
    sink_cnt: Vec<[u32; 2]>,
    drv_cnt: Vec<[u32; 2]>,
    occ_cnt: Vec<[u32; 2]>,
    spanning: usize,
    areas: [u64; 2],
    cut: usize,
    terminal_weight: [i64; 2],
    pad_cost: i64,
}

impl<'a> RefEngineState<'a> {
    /// Builds the state from an initial side per cell.
    ///
    /// # Panics
    ///
    /// Panics if `sides.len() != hg.n_cells()` or a side is not 0/1.
    pub fn new(hg: &'a Hypergraph, sides: &[u8]) -> Self {
        Self::new_weighted(hg, sides, [0, 0])
    }

    /// Builds the state with a per-side terminal weight.
    ///
    /// # Panics
    ///
    /// Panics if `sides.len() != hg.n_cells()` or a side is not 0/1.
    pub fn new_weighted(hg: &'a Hypergraph, sides: &[u8], terminal_weight: [i64; 2]) -> Self {
        assert_eq!(sides.len(), hg.n_cells(), "one side per cell");
        assert!(sides.iter().all(|&s| s < 2), "sides are 0 or 1");
        let mut st = RefEngineState {
            hg,
            state: sides
                .iter()
                .map(|&s| CellState::Single { side: s })
                .collect(),
            sink_cnt: vec![[0; 2]; hg.n_nets()],
            drv_cnt: vec![[0; 2]; hg.n_nets()],
            occ_cnt: vec![[0; 2]; hg.n_nets()],
            spanning: 0,
            areas: [0; 2],
            cut: 0,
            terminal_weight,
            pad_cost: 0,
        };
        for c in hg.cell_ids() {
            let s = sides[c.index()] as usize;
            st.areas[s] += u64::from(hg.cell(c).area());
            if hg.cell(c).is_terminal() {
                st.pad_cost += terminal_weight[s];
            }
            let cs = st.state[c.index()];
            for (net, pin) in Self::cell_pins(hg, c) {
                let conn = Self::pin_conn(hg, c, cs, pin);
                for (side, &connected) in conn.iter().enumerate() {
                    if connected {
                        match pin {
                            Pin::Output(_) => st.drv_cnt[net.index()][side] += 1,
                            Pin::Input(_) => st.sink_cnt[net.index()][side] += 1,
                        }
                        st.occ_cnt[net.index()][side] += 1;
                    }
                }
            }
        }
        st.cut = hg.net_ids().filter(|&n| st.is_cut(n)).count();
        st.spanning = st.occ_cnt.iter().filter(|o| o[0] > 0 && o[1] > 0).count();
        st
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

    /// Number of replicated cells.
    pub fn replicated_cells(&self) -> usize {
        self.state.iter().filter(|s| s.is_replicated()).count()
    }

    /// Returns `true` if the net is currently cut.
    pub fn is_cut(&self, net: NetId) -> bool {
        Self::cut_from(self.sink_cnt[net.index()], self.drv_cnt[net.index()])
    }

    fn cut_from(sc: [u32; 2], dc: [u32; 2]) -> bool {
        (0..2).any(|s| sc[s] > 0 && dc[s] == 0 && dc[1 - s] > 0)
    }

    /// Connected endpoints (sinks plus drivers) of a net per side.
    pub fn net_side_occupancy(&self, net: NetId) -> [u32; 2] {
        self.occ_cnt[net.index()]
    }

    /// Number of nets with connected endpoints on both sides.
    pub fn spanning_nets(&self) -> usize {
        self.spanning
    }

    /// `(net, pin)` pairs of a cell, one per pin.
    fn cell_pins(hg: &Hypergraph, c: CellId) -> impl Iterator<Item = (NetId, Pin)> + '_ {
        let cell = hg.cell(c);
        cell.input_nets()
            .iter()
            .enumerate()
            .map(|(j, &n)| (n, Pin::Input(j as u16)))
            .chain(
                cell.output_nets()
                    .iter()
                    .enumerate()
                    .map(|(o, &n)| (n, Pin::Output(o as u16))),
            )
    }

    /// Connection flags of a pin under a hypothetical state.
    fn pin_conn(hg: &Hypergraph, c: CellId, state: CellState, pin: Pin) -> Conn {
        let cell = hg.cell(c);
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
                let s = orig_side as usize;
                let full = full_mask(cell.m_outputs());
                let orig_mask = full & !replica_mask;
                let mut conn = [false; 2];
                match pin {
                    Pin::Output(o) => {
                        conn[s] = orig_mask & (1 << o) != 0;
                        conn[1 - s] = replica_mask & (1 << o) != 0;
                    }
                    Pin::Input(j) => {
                        let adj = cell.adjacency();
                        let j = j as usize;
                        if adj.is_global_input(j) {
                            return [true, true];
                        }
                        // Connected iff a kept output's row reads `j`.
                        let reads = |mask: u32| {
                            (0..adj.m_outputs()).any(|o| mask >> o & 1 == 1 && adj.depends(o, j))
                        };
                        conn[s] = reads(orig_mask);
                        conn[1 - s] = reads(replica_mask);
                    }
                }
                conn
            }
        }
    }

    /// The distinct nets incident to a cell (per-call sort+dedup — the
    /// allocation the CSR arenas exist to eliminate).
    fn incident_nets(hg: &Hypergraph, c: CellId) -> Vec<NetId> {
        let mut nets: Vec<NetId> = hg.cell(c).incident_nets().collect();
        nets.sort_unstable();
        nets.dedup();
        nets
    }

    fn pad_cost_gain(&self, c: CellId, old: CellState, new: CellState) -> i64 {
        if !self.hg.cell(c).is_terminal() {
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

    fn net_contribution(
        hg: &Hypergraph,
        c: CellId,
        old: CellState,
        new: CellState,
        net: NetId,
        counts: ([u32; 2], [u32; 2]),
    ) -> i64 {
        let (mut sc, mut dc) = counts;
        let before = Self::cut_from(sc, dc);
        for (n2, pin) in Self::cell_pins(hg, c) {
            if n2 != net {
                continue;
            }
            let oc = Self::pin_conn(hg, c, old, pin);
            let nc = Self::pin_conn(hg, c, new, pin);
            for side in 0..2 {
                let delta = i64::from(nc[side]) - i64::from(oc[side]);
                let slot = match pin {
                    Pin::Output(_) => &mut dc[side],
                    Pin::Input(_) => &mut sc[side],
                };
                *slot = (*slot as i64 + delta) as u32;
            }
        }
        i64::from(before) - i64::from(Self::cut_from(sc, dc))
    }

    /// The gain of changing `c` to `new`, without mutating the state.
    pub fn peek_gain(&self, c: CellId, new: CellState) -> i64 {
        let old = self.state[c.index()];
        let mut gain = self.pad_cost_gain(c, old, new);
        for net in Self::incident_nets(self.hg, c) {
            let counts = (self.sink_cnt[net.index()], self.drv_cnt[net.index()]);
            gain += Self::net_contribution(self.hg, c, old, new, net, counts);
        }
        gain
    }

    /// Per-side area change of moving `c` to `new`.
    pub fn area_delta(&self, c: CellId, new: CellState) -> [i64; 2] {
        let a = i64::from(self.hg.cell(c).area());
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
        let mut gain = self.pad_cost_gain(c, old, new);
        self.pad_cost -= self.pad_cost_gain(c, old, new);
        for net in Self::incident_nets(self.hg, c) {
            let before = self.is_cut(net);
            let occ = self.occ_cnt[net.index()];
            let spanned = occ[0] > 0 && occ[1] > 0;
            for (n2, pin) in Self::cell_pins(self.hg, c) {
                if n2 != net {
                    continue;
                }
                let oc = Self::pin_conn(self.hg, c, old, pin);
                let nc = Self::pin_conn(self.hg, c, new, pin);
                for side in 0..2 {
                    let delta = i64::from(nc[side]) - i64::from(oc[side]);
                    let slot = match pin {
                        Pin::Output(_) => &mut self.drv_cnt[net.index()][side],
                        Pin::Input(_) => &mut self.sink_cnt[net.index()][side],
                    };
                    *slot = (*slot as i64 + delta) as u32;
                    let occ_slot = &mut self.occ_cnt[net.index()][side];
                    *occ_slot = (*occ_slot as i64 + delta) as u32;
                }
            }
            let occ = self.occ_cnt[net.index()];
            let spans = occ[0] > 0 && occ[1] > 0;
            self.spanning = (self.spanning as i64 + i64::from(spans) - i64::from(spanned)) as usize;
            let after = self.is_cut(net);
            gain += i64::from(before) - i64::from(after);
            self.cut = (self.cut as i64 + i64::from(after) - i64::from(before)) as usize;
        }
        let ad = self.area_delta(c, new);
        self.areas[0] = (self.areas[0] as i64 + ad[0]) as u64;
        self.areas[1] = (self.areas[1] as i64 + ad[1]) as u64;
        self.state[c.index()] = new;
        gain
    }
}

/// Mirror of [`EngineState`]'s differential surface on the reference
/// implementation, so the test suite can drive both uniformly.
impl RefEngineState<'_> {
    /// Clones the live [`EngineState`]'s cell states into a fresh
    /// reference state over `hg`, the engine's circuit (counts rebuilt
    /// from scratch) — the differential suite's synchronization
    /// primitive.
    pub fn mirror_of<'b>(hg: &'b Hypergraph, engine: &EngineState<'_>) -> RefEngineState<'b> {
        let sides: Vec<u8> =
            hg.cell_ids()
                .map(|c| match engine.cell_state(c) {
                    CellState::Single { side } => side,
                    CellState::Functional { orig_side, .. }
                    | CellState::Traditional { orig_side } => orig_side,
                })
                .collect();
        let mut st = RefEngineState::new(hg, &sides);
        for c in hg.cell_ids() {
            st.set_state(c, engine.cell_state(c));
        }
        st
    }
}

mod tests {
    //! Differential proof that the CSR-arena engine state
    //! ([`EngineState`]) is semantically identical to the pointer-chasing
    //! reference ([`RefEngineState`]).
    //!
    //! The two implementations share no traversal code: the reference
    //! sort+dedups incident nets per call and rescans whole pin lists,
    //! while the CSR state walks flat index ranges over packed counters.
    //! Driving both through identical randomized move scripts — every move
    //! kind the pass loop can elect, including replication and
    //! unreplication — and comparing every observable (hypothetical gains,
    //! area deltas, realized gains, cut, areas, spanning count, per-net
    //! occupancy and cut flags) therefore catches any accounting drift the
    //! flat layout could have introduced.

    use super::*;
    use netpart_verify::gen;

    /// The pinned differential seed matrix (DESIGN.md §10).
    const SEEDS: [u64; 3] = [11, 29, 47];

    /// Moves scripted per circuit. Large enough to visit replication and
    /// unreplication states repeatedly on every suite circuit.
    const STEPS: usize = 400;

    /// A self-contained SplitMix64 so the move script depends on nothing
    /// but this file.
    struct Script(u64);

    impl Script {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Which replication states the script may elect.
    #[derive(Clone, Copy, PartialEq)]
    enum Mode {
        None,
        Traditional,
        Functional,
    }

    /// Every state the pass loop could put `c` into under `mode`, minus
    /// the current one. Functional masks are non-empty proper subsets of
    /// the cell's outputs; terminals never replicate.
    fn candidates(hg: &Hypergraph, c: CellId, cur: CellState, mode: Mode) -> Vec<CellState> {
        let mut out = vec![CellState::Single { side: 0 }, CellState::Single { side: 1 }];
        let cell = hg.cell(c);
        if !cell.is_terminal() {
            match mode {
                Mode::Traditional => {
                    out.push(CellState::Traditional { orig_side: 0 });
                    out.push(CellState::Traditional { orig_side: 1 });
                }
                Mode::Functional if cell.m_outputs() >= 2 => {
                    for mask in [1u32, (1 << (cell.m_outputs() - 1))] {
                        out.push(CellState::Functional {
                            orig_side: 0,
                            replica_mask: mask,
                        });
                        out.push(CellState::Functional {
                            orig_side: 1,
                            replica_mask: mask,
                        });
                    }
                }
                _ => {}
            }
        }
        out.retain(|&s| s != cur);
        out
    }

    /// Compares every per-net observable of the two states.
    fn assert_nets_equal(hg: &Hypergraph, csr: &EngineState<'_>, base: &RefEngineState<'_>) {
        for nt in hg.net_ids() {
            assert_eq!(
                csr.net_side_occupancy(nt),
                base.net_side_occupancy(nt),
                "occupancy diverged on net {}",
                hg.net(nt).name()
            );
            assert_eq!(
                csr.is_cut(nt),
                base.is_cut(nt),
                "cut flag diverged on net {}",
                hg.net(nt).name()
            );
        }
    }

    fn drive(seed: u64, mode: Mode) {
        let hg = gen::mapped(350, 30, seed);
        let n = hg.n_cells();
        let mut script = Script(seed ^ 0x6373_725f_6469_6666); // "csr_diff"
        let sides: Vec<u8> = (0..n).map(|_| (script.next() & 1) as u8).collect();
        let tw = [1i64, 2]; // asymmetric, so pad-cost gains are exercised
        let mut csr = EngineState::new_weighted(&hg, &sides, tw);
        let mut base = RefEngineState::new_weighted(&hg, &sides, tw);

        assert_eq!(csr.cut(), base.cut(), "initial cut");
        assert_eq!(csr.areas(), base.areas(), "initial areas");
        assert_eq!(csr.spanning_nets(), base.spanning_nets());
        assert_nets_equal(&hg, &csr, &base);

        for step in 0..STEPS {
            let c = CellId(script.below(n) as u32);
            let cur = csr.cell_state(c);
            assert_eq!(cur, base.cell_state(c), "state diverged at step {step}");
            let cands = candidates(&hg, c, cur, mode);
            for &cand in &cands {
                assert_eq!(
                    csr.peek_gain(c, cand),
                    base.peek_gain(c, cand),
                    "peek_gain diverged at step {step}, cell {c:?}, cand {cand:?}"
                );
                assert_eq!(csr.area_delta(c, cand), base.area_delta(c, cand));
            }
            if cands.is_empty() {
                continue;
            }
            let pick = cands[script.below(cands.len())];
            let realized = csr.set_state(c, pick);
            assert_eq!(
                realized,
                base.set_state(c, pick),
                "realized gain diverged at step {step}, cell {c:?}, move {pick:?}"
            );
            assert_eq!(csr.cut(), base.cut(), "cut diverged at step {step}");
            assert_eq!(csr.areas(), base.areas(), "areas diverged at step {step}");
            assert_eq!(csr.spanning_nets(), base.spanning_nets());
            assert_eq!(csr.replicated_cells(), base.replicated_cells());
        }

        // Full end-of-script audit: every net, the CSR state's own
        // rebuild-and-compare validator, and the mirror constructor.
        assert_nets_equal(&hg, &csr, &base);
        assert!(csr.validate(), "CSR state failed self-validation");
        let mirror = RefEngineState::mirror_of(&hg, &csr);
        assert_eq!(mirror.cut(), csr.cut());
        assert_eq!(mirror.areas(), csr.areas());
        assert_eq!(mirror.replicated_cells(), csr.replicated_cells());
    }

    #[test]
    fn csr_state_matches_baseline_without_replication() {
        for seed in SEEDS {
            drive(seed, Mode::None);
        }
    }

    #[test]
    fn csr_state_matches_baseline_under_traditional_replication() {
        for seed in SEEDS {
            drive(seed, Mode::Traditional);
        }
    }

    #[test]
    fn csr_state_matches_baseline_under_functional_replication() {
        for seed in SEEDS {
            drive(seed, Mode::Functional);
        }
    }
}
