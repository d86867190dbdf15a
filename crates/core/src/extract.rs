//! Sub-circuit extraction for the recursive k-way partitioner.
//!
//! After a carve step assigns one chunk of the circuit to a device, the
//! *rest* becomes a circuit of its own: copies of cells placed in the
//! rest part (with their kept outputs and connected inputs), plus pseudo
//! I/O pads standing in for every net that crosses to the already-carved
//! chunk. The paper's recursive formulation (\[3\], §I) partitions this
//! remainder again until it fits a device.

use netpart_hypergraph::{
    AdjacencyMatrix, BitVec, CellId, CellKind, Hypergraph, HypergraphBuilder, PartId, Pin,
    Placement,
};

/// A derived circuit plus the mapping back to the top-level circuit.
#[derive(Clone, Debug)]
pub struct Extraction {
    /// The derived circuit.
    pub hypergraph: Hypergraph,
    /// For every cell of [`hypergraph`](Self::hypergraph): the top-level
    /// cell it descends from and the top-level output mask its outputs
    /// correspond to, or `None` for a pseudo pad introduced at a cut.
    pub origin: Vec<Option<(CellId, u32)>>,
}

impl Extraction {
    /// The identity extraction of a whole circuit (every cell maps to
    /// itself with all outputs).
    pub fn identity(hg: &Hypergraph) -> Self {
        let origin = hg
            .cells()
            .iter()
            .enumerate()
            .map(|(i, c)| Some((CellId(i as u32), crate::state::full_mask(c.m_outputs()))))
            .collect();
        Extraction {
            hypergraph: hg.clone(),
            origin,
        }
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

/// Extracts the sub-circuit of part `rest` from a placed circuit.
///
/// Every cell copy placed in `rest` becomes a cell of the result, keeping
/// its connected pins only; nets crossing to other parts gain pseudo
/// input/output pads. `origin` maps the current circuit's cells to the
/// top level (compose with [`Extraction::identity`] at the first level).
///
/// Terminal-count note: a crossing net that *also* keeps a real pad in
/// `rest` gets a pseudo pad on top of it, so the extracted circuit
/// counts that net at 2 IOBs where the final global evaluation
/// ([`Placement::part_terminals`]) shares the pad's wire and counts 1.
/// The extraction is only used to *guide* carving, so this slight
/// conservatism is safe; the global evaluation is authoritative.
///
/// # Panics
///
/// Panics if `origin.len() != hg.n_cells()`.
pub fn extract_rest(
    hg: &Hypergraph,
    placement: &Placement,
    rest: PartId,
    origin: &[Option<(CellId, u32)>],
) -> Extraction {
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
            let rows: Vec<BitVec> = kept_outputs
                .iter()
                .map(|&o| {
                    let mut row = BitVec::zeros(kept_inputs.len());
                    for (jj, &j) in kept_inputs.iter().enumerate() {
                        if !cell.is_terminal() && adj.depends(o, j) {
                            row.set(jj, true);
                        }
                    }
                    row
                })
                .collect();
            let new_adj = if cell.is_terminal() {
                AdjacencyMatrix::pad()
            } else {
                AdjacencyMatrix::from_bitvec_rows(kept_inputs.len(), rows)
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
    Extraction {
        hypergraph,
        origin: new_origin,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_hypergraph::CellId;

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
        let e = Extraction::identity(&hg);
        assert_eq!(e.hypergraph.n_cells(), hg.n_cells());
        assert_eq!(e.origin[m.index()], Some((m, 0b11)));
    }

    #[test]
    fn extract_rest_introduces_pseudo_pads() {
        let (hg, m) = fixture();
        let mut p = Placement::new_uniform(&hg, 2, PartId(1));
        // Chunk (part 0): pads a and X; rest: everything else.
        p.place(CellId(0), PartId(0));
        p.place(CellId(4), PartId(0));
        let e = extract_rest(&hg, &p, PartId(1), &Extraction::identity(&hg).origin);
        let hg2 = &e.hypergraph;
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
        assert_eq!(e.origin[m2.index()], Some((m, 0b11)));
        // Pseudo pads have no origin.
        let xin = hg2
            .cells()
            .iter()
            .position(|c| c.name() == "xin_na")
            .unwrap();
        assert_eq!(e.origin[xin], None);
    }

    #[test]
    fn extract_rest_of_replicated_cell_keeps_partial_outputs() {
        let (hg, m) = fixture();
        let mut p = Placement::new_uniform(&hg, 2, PartId(1));
        // Chunk gets the replica keeping X (output 0) plus pads a and X.
        p.replicate(&hg, m, PartId(0), 0b01).unwrap();
        p.place(CellId(0), PartId(0));
        p.place(CellId(4), PartId(0));
        let e = extract_rest(&hg, &p, PartId(1), &Extraction::identity(&hg).origin);
        let hg2 = &e.hypergraph;
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
        assert_eq!(e.origin[m2.index()], Some((m, 0b10)));
        // na is not imported: the rest copy floats input a.
        assert!(!hg2.cells().iter().any(|c| c.name() == "xin_na"));
        // nb is shared: internal pad b drives it; it also feeds the chunk
        // copy, so it must be exported.
        assert!(hg2.cells().iter().any(|c| c.name() == "xout_nb"));
    }
}
