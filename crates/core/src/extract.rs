//! Sub-circuit extraction for the recursive k-way partitioner.
//!
//! After a carve step bipartitions a piece of the circuit, each side it
//! carves on becomes a circuit of its own: copies of the cells on that
//! side (with their kept outputs and connected inputs), plus pseudo I/O
//! pads standing in for every net that crosses to the other side. The
//! paper's recursive formulation (\[3\], §I) partitions this remainder
//! again until it fits a device.
//!
//! A [`Piece`] is such a circuit in the CSR form the FM kernel runs on,
//! plus the map back to the top-level circuit. [`extract_side`] writes a
//! child piece straight from its parent's arenas, the bipartition's
//! final cell states and net counts, into a recycled piece — one pass
//! over the parent, no [`Hypergraph`], no allocation once the arenas
//! have grown. Its numbering is the one a hypergraph round trip gives
//! (`extract_rest` into a `HypergraphBuilder`, then `CsrGraph::build`;
//! `extract_rest` stays as the tests' oracle):
//!
//! * cells: the kept copies in parent cell order, then the pseudo pads
//!   in net order — an `xout` pad where the side drives a net the other
//!   side also touches, an `xin` pad where the side does not drive it;
//! * nets: in parent order, skipping nets with no endpoint on the side;
//! * each net's endpoints: the driver, then the `xout` pad, then the
//!   kept sinks in parent sink order;
//! * a functionally split copy's input masks: the parent masks
//!   compressed to the copy's kept outputs (a global input, mask 0,
//!   stays global), and ψ recounted from them.
//!
//! Terminal-count note: a crossing net that *also* keeps a real pad on
//! the side gets a pseudo pad on top of it, so the piece counts that net
//! at 2 IOBs where the final global evaluation
//! ([`Placement::part_terminal_counts`]) shares the pad's wire and counts 1.
//! Pieces only *guide* carving, so this slight conservatism is safe; the
//! global evaluation is authoritative.
//!
//! [`Placement::part_terminal_counts`]: netpart_hypergraph::Placement::part_terminal_counts

use crate::csr::{CellAttrs, CsrGraph, CsrPin, NetPin};
use crate::state::{full_mask, CellState, EngineState};
#[cfg(test)]
use netpart_hypergraph::{AdjacencyMatrix, CellKind, HypergraphBuilder, PartId, Placement};
use netpart_hypergraph::{CellId, Hypergraph, NetId, Pin};

/// A circuit the carve bipartitions: its CSR arenas, and for every cell
/// the top-level cell it descends from with the top-level output mask
/// its outputs correspond to, or `None` for a pseudo pad introduced at
/// a cut.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Piece {
    pub(crate) csr: CsrGraph,
    pub(crate) origin: Vec<Option<(CellId, u32)>>,
}

impl Piece {
    /// The whole circuit: every cell maps to itself with all outputs.
    pub(crate) fn whole(hg: &Hypergraph) -> Self {
        Piece {
            csr: CsrGraph::build(hg),
            origin: hg
                .cells()
                .iter()
                .enumerate()
                .map(|(i, c)| Some((CellId(i as u32), full_mask(c.m_outputs()))))
                .collect(),
        }
    }

    /// Copies `src` into this piece's own arenas.
    pub(crate) fn copy_from(&mut self, src: &Self) {
        self.csr.copy_from(&src.csr);
        self.origin.clone_from(&src.origin);
    }
}

/// Projects a copy's current-space output mask into top-level space:
/// bit `i` of `current` selects the `i`-th set bit of `top`.
pub(crate) fn project_mask(top: u32, current: u32) -> u32 {
    let mut out = 0u32;
    let mut top_bits = top;
    let mut i = 0;
    while top_bits != 0 {
        let bit = top_bits & top_bits.wrapping_neg();
        if current & (1 << i) != 0 {
            out |= bit;
        }
        top_bits ^= bit;
        i += 1;
    }
    out
}

/// Compresses `mask` to the outputs `kept` selects: bit `i` of the
/// result is the bit of `mask` at `kept`'s `i`-th set bit (the inverse
/// of [`project_mask`]).
fn compress_mask(mask: u32, kept: u32) -> u32 {
    let mut out = 0u32;
    let mut kept_bits = kept;
    let mut i = 0;
    while kept_bits != 0 {
        let bit = kept_bits & kept_bits.wrapping_neg();
        if mask & bit != 0 {
            out |= 1 << i;
        }
        kept_bits ^= bit;
        i += 1;
    }
    out
}

/// The pseudo pad a net with an endpoint on side `s` needs, from its
/// `(sink, driver)` counts per side.
#[derive(Clone, Copy, PartialEq, Eq)]
enum PseudoPad {
    /// `xin`: the side does not drive the net, so a pad imports it.
    Import,
    /// `xout`: the side drives the net and the other side touches it
    /// too, so a pad exports it.
    Export,
}

fn pseudo_pad((sink, drv): ([u32; 2], [u32; 2]), s: usize) -> Option<PseudoPad> {
    if drv[s] == 0 {
        Some(PseudoPad::Import)
    } else if sink[1 - s] + drv[1 - s] > 0 {
        Some(PseudoPad::Export)
    } else {
        None
    }
}

/// The outputs the copy on side `side` of a cell in `state` keeps, or
/// `None` when the side holds no copy of it; `full` is the cell's
/// all-outputs mask.
///
/// # Panics
///
/// Panics on a traditional replica: both of its copies drive its
/// output nets, so neither side holds a copy of its own.
pub(crate) fn kept_on(state: CellState, side: u8, full: u32) -> Option<u32> {
    match state {
        CellState::Single { side: at } => (at == side).then_some(full),
        CellState::Functional {
            orig_side,
            replica_mask,
        } => Some(if orig_side == side {
            full & !replica_mask
        } else {
            replica_mask
        }),
        CellState::Traditional { .. } => {
            panic!("a traditional replica has no copy of its own on a side")
        }
    }
}

/// Marks a parent net, cell, group or pin record with no counterpart in
/// the child.
const NONE: u32 = u32::MAX;

/// The parent-to-child id maps of one extraction, kept from one
/// extraction to the next.
#[derive(Debug, Default)]
pub(crate) struct ExtractScratch {
    net: Vec<u32>,
    cell: Vec<u32>,
    /// Valid for the groups and pin records of kept cells only.
    group: Vec<u32>,
    rec: Vec<u32>,
    /// A split copy's kept input pins, ascending.
    inputs: Vec<u16>,
}

/// Grows `v` to at least `n` entries.
fn cover(v: &mut Vec<u32>, n: usize) {
    if v.len() < n {
        v.resize(n, NONE);
    }
}

/// Writes into `child` the piece of `parent` on side `side` of a
/// bipartition whose final state is `engine`, a state over
/// `parent.csr`. See the module docs for the numbering.
///
/// # Panics
///
/// Panics if a cell is traditionally replicated ([`kept_on`]).
pub(crate) fn extract_side(
    parent: &Piece,
    engine: &EngineState<'_>,
    side: u8,
    child: &mut Piece,
    scratch: &mut ExtractScratch,
) {
    let p = &parent.csr;
    let s = usize::from(side);
    let ExtractScratch {
        net: net_map,
        cell: cell_map,
        group: group_map,
        rec: rec_map,
        inputs,
    } = scratch;
    let out = &mut child.csr;
    out.clear();
    child.origin.clear();

    net_map.clear();
    let mut kept_nets = 0u32;
    for nt in p.net_ids() {
        let (sink, drv) = engine.net_counts(nt);
        if sink[s] + drv[s] > 0 {
            net_map.push(kept_nets);
            kept_nets += 1;
        } else {
            net_map.push(NONE);
        }
    }
    let child_net = |nt: NetId| NetId(net_map[nt.index()]);

    // Cells: the copy of each parent cell on the side, in parent order.
    cell_map.clear();
    cover(group_map, p.n_groups());
    cover(rec_map, p.n_pins());
    for c in p.cell_ids() {
        let attrs = p.cell(c);
        let state = engine.cell_state(c);
        let Some(kept) = kept_on(state, side, full_mask(attrs.outputs.into())) else {
            cell_map.push(NONE);
            continue;
        };
        cell_map.push(out.n_cells() as u32);
        child.origin.push(
            parent.origin[c.index()].map(|(top, top_mask)| (top, project_mask(top_mask, kept))),
        );
        if !state.is_replicated() {
            // The single copy keeps every pin as it is.
            for g in p.group_range(c) {
                for r in p.group_pin_range(g) {
                    rec_map[r as usize] = out.push_pin(p.pin(r));
                }
                group_map[g as usize] = out.end_group(child_net(p.group_net(g)));
            }
            out.end_cell(attrs);
            continue;
        }
        // A split copy connects its kept outputs and the inputs they
        // read, renumbered in pin order.
        let connected = |pin: CsrPin| match pin.pin() {
            Pin::Output(o) => kept & (1 << o) != 0,
            Pin::Input(_) => pin.mask == 0 || pin.mask & kept != 0,
        };
        inputs.clear();
        for r in p.pin_range(c) {
            let pin = p.pin(r);
            if let Pin::Input(j) = pin.pin() {
                if connected(pin) {
                    inputs.push(j);
                }
            }
        }
        inputs.sort_unstable();
        let mut psi = 0u32;
        for g in p.group_range(c) {
            let mut any = false;
            for r in p.group_pin_range(g) {
                let pin = p.pin(r);
                if !connected(pin) {
                    rec_map[r as usize] = NONE;
                    continue;
                }
                let renumbered = match pin.pin() {
                    Pin::Output(o) => {
                        let o = (kept & ((1u32 << o) - 1)).count_ones();
                        CsrPin::new(Pin::Output(o as u16), 1 << o)
                    }
                    Pin::Input(j) => {
                        let mask = compress_mask(pin.mask, kept);
                        psi += u32::from(mask.count_ones() == 1);
                        let j = inputs.partition_point(|&k| k < j);
                        CsrPin::new(Pin::Input(j as u16), mask)
                    }
                };
                rec_map[r as usize] = out.push_pin(renumbered);
                any = true;
            }
            group_map[g as usize] = if any {
                out.end_group(child_net(p.group_net(g)))
            } else {
                NONE
            };
        }
        let outputs = kept.count_ones() as u8;
        out.end_cell(CellAttrs {
            area: attrs.area,
            // ψ (eq. 4) is 0 for a cell with at most one output.
            psi: if outputs >= 2 { psi } else { 0 },
            outputs,
            pad: attrs.pad,
        });
    }

    // Pseudo pads, in net order.
    let first_pad = out.n_cells() as u32;
    for nt in p.net_ids() {
        if net_map[nt.index()] == NONE {
            continue;
        }
        let Some(pad) = pseudo_pad(engine.net_counts(nt), s) else {
            continue;
        };
        child.origin.push(None);
        out.push_pin(match pad {
            PseudoPad::Export => CsrPin::new(Pin::Input(0), 0),
            PseudoPad::Import => CsrPin::new(Pin::Output(0), 1),
        });
        out.end_group(child_net(nt));
        out.end_cell(CellAttrs {
            area: 0,
            psi: 0,
            outputs: u8::from(pad == PseudoPad::Import),
            pad: true,
        });
    }

    // Nets: each kept net's endpoints in connection order.
    let mut next_pad = first_pad;
    for nt in p.net_ids() {
        if net_map[nt.index()] == NONE {
            continue;
        }
        let (cells, groups) = (p.cells_of(nt), p.net_groups(nt));
        let kept = |np: &NetPin| {
            let slot = np.slot as usize;
            let cc = cell_map[cells[slot].index()];
            let rec = if cc == NONE {
                NONE
            } else {
                rec_map[np.rec as usize]
            };
            (rec != NONE).then(|| (CellId(cc), group_map[groups[slot] as usize], rec))
        };
        let pad = pseudo_pad(engine.net_counts(nt), s).map(|_| {
            let cell = CellId(next_pad);
            next_pad += 1;
            let g = out.group_range(cell).start;
            (cell, g, out.group_pin_range(g).start)
        });
        let (driver, sinks) = p.net_pins(nt).split_first().expect("a net has a driver");
        // The kept driver and an `xout` pad, or an `xin` pad driving.
        for (cell, g, rec) in kept(driver).into_iter().chain(pad) {
            out.push_endpoint(cell, g, rec);
        }
        for (cell, g, rec) in sinks.iter().filter_map(kept) {
            out.push_endpoint(cell, g, rec);
        }
        out.end_net();
    }
}

/// The hypergraph form of [`extract_side`], and its oracle: the
/// sub-circuit of part `rest` of a placed circuit, built through
/// [`HypergraphBuilder`], with the top-level origin of each of its cells
/// (`origin` maps the placed circuit's cells to the top level).
///
/// Every cell copy placed in `rest` becomes a cell of the result, keeping
/// its connected pins only; nets crossing to other parts gain pseudo
/// input/output pads.
///
/// # Panics
///
/// Panics if `origin.len() != hg.n_cells()`.
#[cfg(test)]
pub(crate) fn extract_rest(
    hg: &Hypergraph,
    placement: &Placement,
    rest: PartId,
    origin: &[Option<(CellId, u32)>],
) -> (Hypergraph, Vec<Option<(CellId, u32)>>) {
    assert_eq!(origin.len(), hg.n_cells(), "one origin entry per cell");
    let mut b = HypergraphBuilder::new();
    let mut new_origin: Vec<Option<(CellId, u32)>> = Vec::new();

    // (cell, copy index) → (new cell, kept input indices, kept output indices)
    type KeptCopy = (netpart_hypergraph::CellId, Vec<usize>, Vec<usize>);
    let mut kept: Vec<Vec<KeptCopy>> = vec![Vec::new(); hg.n_cells()];

    for c in hg.cell_ids() {
        let cell = hg.cell(c);
        for (ci, copy) in placement.copies(c).iter().enumerate() {
            if copy.part != rest {
                continue;
            }
            let kept_outputs: Vec<usize> = (0..cell.m_outputs())
                .filter(|o| copy.outputs & (1 << o) != 0)
                .collect();
            let kept_inputs: Vec<usize> = (0..cell.n_inputs())
                .filter(|&j| placement.pin_connected(hg, c, ci, Pin::Input(j as u16)))
                .collect();
            let adj = cell.adjacency();
            let new_adj = if cell.is_terminal() {
                AdjacencyMatrix::pad()
            } else {
                // A kept input controls the kept outputs it controlled,
                // renumbered in order.
                let masks = kept_inputs
                    .iter()
                    .map(|&j| {
                        kept_outputs
                            .iter()
                            .enumerate()
                            .filter(|&(_, &o)| adj.depends(o, j))
                            .fold(0, |mask, (oo, _)| mask | 1 << oo)
                    })
                    .collect();
                AdjacencyMatrix::from_input_masks(kept_outputs.len(), masks)
            };
            let id = b.add_cell(
                cell.name().to_string(),
                cell.kind(),
                kept_inputs.len(),
                kept_outputs.len(),
                new_adj,
            );
            new_origin.push(
                origin[c.index()]
                    .map(|(top, top_mask)| (top, project_mask(top_mask, copy.outputs))),
            );
            kept[c.index()].push((id, kept_inputs, kept_outputs));
        }
    }

    // Wire nets.
    for nid in hg.net_ids() {
        let net = hg.net(nid);
        // The parts the net's connected endpoints touch.
        let parts = placement.net_part_set(hg, nid);
        if !parts.contains(rest) {
            continue; // net lives entirely in carved parts
        }
        let touches_elsewhere = parts.len() > 1;

        // Internal driver: the driver pin connected on a rest copy.
        let drv = net.driver();
        let Pin::Output(o) = drv.pin else {
            unreachable!("drivers are output pins")
        };
        let mut internal_driver: Option<(netpart_hypergraph::CellId, usize)> = None;
        for (id, _ins, outs) in &kept[drv.cell.index()] {
            if let Some(pos) = outs.iter().position(|&oo| oo == o as usize) {
                internal_driver = Some((*id, pos));
            }
        }

        // Collect internal sinks: (new cell, new input pin).
        let mut internal_sinks: Vec<(netpart_hypergraph::CellId, usize)> = Vec::new();
        for ep in net.sinks() {
            let Pin::Input(j) = ep.pin else {
                unreachable!("sinks are input pins")
            };
            for (id, ins, _outs) in &kept[ep.cell.index()] {
                if let Some(pos) = ins.iter().position(|&jj| jj == j as usize) {
                    internal_sinks.push((*id, pos));
                }
            }
        }

        if internal_driver.is_none() && internal_sinks.is_empty() {
            continue; // touches rest only via disconnected pins — impossible
        }

        let n = b.add_net(net.name().to_string());
        match internal_driver {
            Some((id, pos)) => {
                b.connect_output(n, id, pos).expect("fresh output pin");
                if touches_elsewhere {
                    // Export to a carved device: pseudo output pad.
                    let pad = b.add_cell(
                        format!("xout_{}", net.name()),
                        CellKind::output_pad(),
                        1,
                        0,
                        AdjacencyMatrix::pad(),
                    );
                    new_origin.push(None);
                    b.connect_input(n, pad, 0).expect("fresh pad pin");
                }
            }
            None => {
                // Import from a carved device: pseudo input pad.
                let pad = b.add_cell(
                    format!("xin_{}", net.name()),
                    CellKind::input_pad(),
                    0,
                    1,
                    AdjacencyMatrix::pad(),
                );
                new_origin.push(None);
                b.connect_output(n, pad, 0).expect("fresh pad pin");
            }
        }
        for (id, pos) in internal_sinks {
            b.connect_input(n, id, pos).expect("fresh input pin");
        }
    }

    let hypergraph = b.finish().expect("extracted circuit is consistent");
    (hypergraph, new_origin)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn project_mask_selects_bits() {
        // top mask 0b1101 has set bits at {0,2,3}; current bit i selects
        // the i-th of those.
        assert_eq!(project_mask(0b1101, 0b001), 0b0001);
        assert_eq!(project_mask(0b1101, 0b010), 0b0100);
        assert_eq!(project_mask(0b1101, 0b100), 0b1000);
        assert_eq!(project_mask(0b1101, 0b111), 0b1101);
        assert_eq!(project_mask(0b1101, 0), 0);
    }

    /// Fig.-1-style fixture: 3 input pads, one 2-output cell, 2 output
    /// pads.
    fn fixture() -> (Hypergraph, CellId) {
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
        for (i, name) in ["na", "nb", "nc"].iter().enumerate() {
            let n = b.add_net(*name);
            b.connect_output(n, pads[i], 0).unwrap();
            b.connect_input(n, m, i).unwrap();
        }
        let nx = b.add_net("nx");
        b.connect_output(nx, m, 0).unwrap();
        b.connect_input(nx, px, 0).unwrap();
        let ny = b.add_net("ny");
        b.connect_output(ny, m, 1).unwrap();
        b.connect_input(ny, py, 0).unwrap();
        (b.finish().unwrap(), m)
    }

    #[test]
    fn identity_extraction_maps_cells() {
        let (hg, m) = fixture();
        let e = Piece::whole(&hg);
        assert_eq!(e.csr.n_cells(), hg.n_cells());
        assert_eq!(e.origin[m.index()], Some((m, 0b11)));
    }

    #[test]
    fn extract_rest_introduces_pseudo_pads() {
        let (hg, m) = fixture();
        let mut p = Placement::new_uniform(&hg, 2, PartId(1));
        // Chunk (part 0): pads a and X; rest: everything else.
        p.place(CellId(0), PartId(0));
        p.place(CellId(4), PartId(0));
        let (hg2, origin) = extract_rest(&hg, &p, PartId(1), &Piece::whole(&hg).origin);
        // Rest keeps: pads b, c, M, Y + pseudo pads for na (import) and nx
        // (export).
        assert_eq!(hg2.n_cells(), 6);
        let names: Vec<&str> = hg2.cells().iter().map(|c| c.name()).collect();
        assert!(names.contains(&"xin_na"));
        assert!(names.contains(&"xout_nx"));
        // M keeps both outputs, origin intact.
        let m2 = hg2
            .cells()
            .iter()
            .position(|c| c.name() == "M")
            .map(|i| CellId(i as u32))
            .unwrap();
        assert_eq!(origin[m2.index()], Some((m, 0b11)));
        // Pseudo pads have no origin.
        let xin = hg2
            .cells()
            .iter()
            .position(|c| c.name() == "xin_na")
            .unwrap();
        assert_eq!(origin[xin], None);
    }

    #[test]
    fn extract_rest_of_replicated_cell_keeps_partial_outputs() {
        let (hg, m) = fixture();
        let mut p = Placement::new_uniform(&hg, 2, PartId(1));
        // Chunk gets the replica keeping X (output 0) plus pads a and X.
        p.replicate(&hg, m, PartId(0), 0b01).unwrap();
        p.place(CellId(0), PartId(0));
        p.place(CellId(4), PartId(0));
        let (hg2, origin) = extract_rest(&hg, &p, PartId(1), &Piece::whole(&hg).origin);
        let m2 = hg2
            .cells()
            .iter()
            .position(|c| c.name() == "M")
            .map(|i| CellId(i as u32))
            .unwrap();
        let cell = hg2.cell(m2);
        // Rest copy keeps only Y and its inputs {b, c}.
        assert_eq!(cell.m_outputs(), 1);
        assert_eq!(cell.n_inputs(), 2);
        assert_eq!(origin[m2.index()], Some((m, 0b10)));
        // na is not imported: the rest copy floats input a.
        assert!(!hg2.cells().iter().any(|c| c.name() == "xin_na"));
        // nb is shared: internal pad b drives it; it also feeds the chunk
        // copy, so it must be exported.
        assert!(hg2.cells().iter().any(|c| c.name() == "xout_nb"));
    }

    use crate::budget::RunClock;
    use crate::config::{BipartitionConfig, ReplicationMode};
    use crate::fm::FmWorkspace;
    use crate::state::StateBuffers;
    use netpart_rng::Rng;
    use netpart_verify::gen;

    /// How a test brings a piece to a two-side state.
    #[derive(Clone, Copy, Debug)]
    enum Drive {
        /// A random side per cell; with `functional`, a random
        /// functional split of some multi-output logic cells.
        Random { functional: bool },
        /// A growth-capped FM bipartition into halves.
        Fm(ReplicationMode),
    }

    /// What the checks of one extraction tree covered.
    #[derive(Debug, Default)]
    struct Coverage {
        extractions: usize,
        /// Functionally split copies extracted.
        split_copies: usize,
        /// Parent `xin` / `xout` pads kept in a child piece.
        reextracted_xin: usize,
        reextracted_xout: usize,
    }

    /// Checks `child`, extracted from side `side`, against the oracle:
    /// the CSR build of `extract_rest`'s hypergraph, arena for arena
    /// (per-cell attributes and totals included), and its origin map.
    fn check_side(
        parent: (&Hypergraph, &Piece),
        engine: &EngineState<'_>,
        side: u8,
        child: &Piece,
    ) -> Hypergraph {
        let (hg, piece) = parent;
        let placement = engine.to_placement(hg);
        let (want_hg, want_origin) =
            extract_rest(hg, &placement, PartId(side.into()), &piece.origin);
        assert_eq!(child.csr, CsrGraph::build(&want_hg), "side {side}: arenas");
        assert_eq!(child.origin, want_origin, "side {side}: origin");
        want_hg
    }

    /// Brings `piece` (whose hypergraph is `hg`) to a state under
    /// `drive`, extracts both sides, checks them against the oracle and
    /// recurses into each for `depth` more levels.
    fn check_tree(
        hg: &Hypergraph,
        piece: &Piece,
        drive: Drive,
        depth: usize,
        rng: &mut Rng,
        cov: &mut Coverage,
    ) {
        let mut children: Vec<(Hypergraph, Piece)> = Vec::new();
        let mut extract_both = |engine: &EngineState<'_>| {
            let mut scratch = ExtractScratch::default();
            for side in 0..2u8 {
                let mut child = Piece::default();
                extract_side(piece, engine, side, &mut child, &mut scratch);
                let child_hg = check_side((hg, piece), engine, side, &child);
                cov.extractions += 1;
                for c in piece.csr.cell_ids() {
                    let kept = match engine.cell_state(c) {
                        CellState::Single { side: at } => at == side,
                        CellState::Functional { .. } => {
                            cov.split_copies += 1;
                            true
                        }
                        CellState::Traditional { .. } => false,
                    };
                    if kept && piece.origin[c.index()].is_none() {
                        let xin = piece.csr.cell(c).outputs == 1;
                        *if xin {
                            &mut cov.reextracted_xin
                        } else {
                            &mut cov.reextracted_xout
                        } += 1;
                    }
                }
                children.push((child_hg, child));
            }
        };
        match drive {
            Drive::Random { functional } => {
                let csr = &piece.csr;
                let sides: Vec<u8> = csr
                    .cell_ids()
                    .map(|_| u8::from(rng.gen_bool(0.5)))
                    .collect();
                let mut engine = EngineState::over(csr, &sides, [0, 0], StateBuffers::default());
                for c in csr.cell_ids() {
                    let cell = csr.cell(c);
                    if functional && !cell.pad && cell.outputs >= 2 && rng.gen_bool(0.3) {
                        let m = u32::from(cell.outputs);
                        let replica_mask = 1 + rng.gen_range(0..(1 << m) - 2) as u32;
                        engine.set_state(
                            c,
                            CellState::Functional {
                                orig_side: sides[c.index()],
                                replica_mask,
                            },
                        );
                    }
                }
                extract_both(&engine);
            }
            Drive::Fm(mode) => {
                let cfg = BipartitionConfig::equal_area(piece.csr.total_area(), 0.1)
                    .with_seed(rng.next_u64())
                    .with_replication(mode)
                    .with_max_growth(Some((piece.csr.total_area() / 8).max(4)));
                let clock = RunClock::unlimited();
                FmWorkspace::default().bipartition(&piece.csr, &cfg, None, &clock, |engine, _| {
                    extract_both(engine)
                });
            }
        }
        if depth > 0 {
            for (child_hg, child) in &children {
                if child.csr.total_area() >= 8 {
                    check_tree(child_hg, child, drive, depth - 1, rng, cov);
                }
            }
        }
    }

    /// Checks extraction trees four levels deep on generated circuits.
    fn check_generated(drive: Drive) -> Coverage {
        let mut cov = Coverage::default();
        for seed in [11u64, 29] {
            let hg = gen::mapped(160, 12, seed);
            let root = Piece::whole(&hg);
            assert_eq!(root.csr, CsrGraph::build(&hg));
            let mut rng = Rng::seed_from_u64(seed);
            check_tree(&hg, &root, drive, 3, &mut rng, &mut cov);
        }
        // Nested at least three deep: pseudo pads of both kinds were
        // extracted again as ordinary pads.
        assert!(cov.extractions >= 2 * (2 + 4 + 8), "{cov:?}");
        assert!(
            cov.reextracted_xin > 0 && cov.reextracted_xout > 0,
            "{cov:?}"
        );
        cov
    }

    #[test]
    fn random_states_extract_like_the_hypergraph_round_trip() {
        check_generated(Drive::Random { functional: false });
        let cov = check_generated(Drive::Random { functional: true });
        assert!(cov.split_copies > 0, "{cov:?}");
    }

    #[test]
    fn fm_states_extract_like_the_hypergraph_round_trip() {
        check_generated(Drive::Fm(ReplicationMode::None));
        let cov = check_generated(Drive::Fm(ReplicationMode::functional(0)));
        assert!(cov.split_copies > 0, "{cov:?}");
    }

    /// Extracts both sides of `hg` at `sides`, with the given functional
    /// splits applied, checks them against the oracle and returns them.
    fn split_and_check(
        hg: &Hypergraph,
        sides: &[u8],
        splits: &[(CellId, CellState)],
    ) -> [Piece; 2] {
        let root = Piece::whole(hg);
        let mut engine = EngineState::over(&root.csr, sides, [0, 0], StateBuffers::default());
        for &(c, st) in splits {
            engine.set_state(c, st);
        }
        let mut scratch = ExtractScratch::default();
        [0u8, 1].map(|side| {
            let mut child = Piece::default();
            extract_side(&root, &engine, side, &mut child, &mut scratch);
            check_side((hg, &root), &engine, side, &child);
            child
        })
    }

    #[test]
    fn split_with_a_global_input_keeps_it_on_both_copies() {
        // G: inputs a, b, clk; X <- {a}, Y <- {b}, Z <- {a, b}; clk
        // controls no output. The replica keeps Y and Z.
        let mut b = HypergraphBuilder::new();
        let [pa, pb, pclk] = ["a", "b", "clk"]
            .map(|n| b.add_cell(n, CellKind::input_pad(), 0, 1, AdjacencyMatrix::pad()));
        let g = b.add_cell(
            "G",
            CellKind::logic(1),
            3,
            3,
            AdjacencyMatrix::from_rows(3, &[&[0], &[1], &[0, 1]]),
        );
        let [na, nb, nclk] = ["na", "nb", "nclk"].map(|n| b.add_net(n));
        for (j, (net, pad)) in [(na, pa), (nb, pb), (nclk, pclk)].into_iter().enumerate() {
            b.connect_output(net, pad, 0).unwrap();
            b.connect_input(net, g, j).unwrap();
        }
        for (o, name) in ["X", "Y", "Z"].into_iter().enumerate() {
            let net = b.add_net(format!("n{name}"));
            let pad = b.add_cell(name, CellKind::output_pad(), 1, 0, AdjacencyMatrix::pad());
            b.connect_output(net, g, o).unwrap();
            b.connect_input(net, pad, 0).unwrap();
        }
        let hg = b.finish().unwrap();
        let split = CellState::Functional {
            orig_side: 0,
            replica_mask: 0b110,
        };
        let [orig, replica] = split_and_check(&hg, &[0, 1, 1, 0, 0, 1, 1], &[(g, split)]);
        let copy_of = |piece: &Piece| {
            let c = piece
                .origin
                .iter()
                .position(|o| o.is_some_and(|(top, _)| top == g))
                .expect("a copy of G on each side");
            let pins: Vec<(Pin, u32)> = piece
                .csr
                .pin_range(CellId(c as u32))
                .map(|r| (piece.csr.pin(r).pin(), piece.csr.pin(r).mask))
                .collect();
            (piece.origin[c], piece.csr.cell(CellId(c as u32)), pins)
        };
        // The original keeps X, its input a and clk (global, mask 0).
        let (origin, attrs, pins) = copy_of(&orig);
        assert_eq!(origin, Some((g, 0b001)));
        assert_eq!((attrs.outputs, attrs.psi), (1, 0));
        assert!(
            pins.contains(&(Pin::Input(1), 0)),
            "clk stays global: {pins:?}"
        );
        // The replica keeps Y and Z over a, b and clk. Of its compressed
        // masks only a's (Z alone) has one bit, so ψ = 1.
        let (origin, attrs, pins) = copy_of(&replica);
        assert_eq!(origin, Some((g, 0b110)));
        assert_eq!((attrs.outputs, attrs.psi), (2, 1));
        assert!(
            pins.contains(&(Pin::Input(0), 0b10)),
            "a feeds Z only: {pins:?}"
        );
        assert!(
            pins.contains(&(Pin::Input(1), 0b11)),
            "b feeds Y and Z: {pins:?}"
        );
        assert!(
            pins.contains(&(Pin::Input(2), 0)),
            "clk stays global: {pins:?}"
        );
    }

    #[test]
    fn a_copy_dropping_its_first_sink_pin_moves_behind_the_net() {
        // Net na from pad a sinks A.in0, B.in0 and A.in1, in that order;
        // A's X reads in0 and its Y reads in1. A's replica on side 1
        // keeps Y, so its only pin on na is the third endpoint, and on
        // side 1 the net's first-seen cells are a, the pad exporting na
        // to A's original, B, A — not the parent's a, A, B.
        let mut b = HypergraphBuilder::new();
        let pa = b.add_cell("a", CellKind::input_pad(), 0, 1, AdjacencyMatrix::pad());
        let a = b.add_cell(
            "A",
            CellKind::logic(1),
            2,
            2,
            AdjacencyMatrix::from_rows(2, &[&[0], &[1]]),
        );
        let bb = b.add_cell("B", CellKind::logic(1), 1, 1, AdjacencyMatrix::full(1, 1));
        let na = b.add_net("na");
        b.connect_output(na, pa, 0).unwrap();
        b.connect_input(na, a, 0).unwrap();
        b.connect_input(na, bb, 0).unwrap();
        b.connect_input(na, a, 1).unwrap();
        for (name, cell, o) in [("X", a, 0), ("Y", a, 1), ("Q", bb, 0)] {
            let net = b.add_net(format!("n{name}"));
            let pad = b.add_cell(name, CellKind::output_pad(), 1, 0, AdjacencyMatrix::pad());
            b.connect_output(net, cell, o).unwrap();
            b.connect_input(net, pad, 0).unwrap();
        }
        let hg = b.finish().unwrap();
        let root = Piece::whole(&hg);
        assert_eq!(root.csr.cells_of(na), &[pa, a, bb]);
        let split = CellState::Functional {
            orig_side: 0,
            replica_mask: 0b10,
        };
        let [_, rest] = split_and_check(&hg, &[1, 0, 1, 0, 1, 1], &[(a, split)]);
        let tops: Vec<Option<CellId>> = rest
            .csr
            .cells_of(NetId(0))
            .iter()
            .map(|c| rest.origin[c.index()].map(|(top, _)| top))
            .collect();
        assert_eq!(tops, [Some(pa), None, Some(bb), Some(a)]);
    }
}
