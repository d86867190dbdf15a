//! The coarse-level data model: one rung of the V-cycle ladder.
//!
//! A [`CoarseLevel`] owns the contracted hypergraph plus the projection
//! maps that relate it to the finer graph it was built from. The maps
//! are total over the fine graph: every fine cell belongs to exactly
//! one coarse cell (`cell_map`), and every fine net either survives
//! contraction (`net_map[n] = Some(coarse)`) or was dropped because all
//! of its endpoints collapsed into one coarse cell (or it had fewer
//! than two distinct endpoints to begin with).

use netpart_hypergraph::{Hypergraph, PartId, Placement};

/// One coarsening step: the contracted hypergraph and the maps back to
/// the finer graph it was derived from.
///
/// Invariants (enforced by construction in
/// [`build_chain`](crate::build_chain)'s contraction, re-checked by the
/// property suite `tests/props_multilevel.rs`):
///
/// * total cell area is conserved: `Σ fine area = Σ coarse area`;
/// * `cell_map` is total and surjective onto the coarse cell ids;
/// * every coarse pin projects to at least one fine pin, and a coarse
///   cell touches each kept net at most once (pin dedup);
/// * a fine net is dropped iff it spans fewer than two distinct coarse
///   cells, so for any placement projected through `cell_map` the
///   coarse cut equals the fine cut exactly.
#[derive(Clone, Debug)]
pub struct CoarseLevel {
    /// The contracted hypergraph.
    pub hg: Hypergraph,
    /// Fine cell index → coarse cell index (total).
    pub cell_map: Vec<u32>,
    /// Fine net index → coarse net index, `None` for contracted-away
    /// nets (fully internal to one coarse cell, or single-endpoint).
    pub net_map: Vec<Option<u32>>,
    /// Number of fine cell pairs merged by the matching.
    pub matched: usize,
    /// Number of fine cells the ψ-guard exempted from matching.
    pub guarded: usize,
}

impl CoarseLevel {
    /// Projects per-coarse-cell bipartition sides down to the fine
    /// graph: `fine_sides[f] = coarse_sides[cell_map[f]]`.
    ///
    /// # Panics
    ///
    /// Panics if `coarse_sides` is shorter than the coarse cell count.
    pub fn project_sides(&self, coarse_sides: &[u8]) -> Vec<u8> {
        assert!(
            coarse_sides.len() >= self.hg.n_cells(),
            "side per coarse cell"
        );
        self.cell_map
            .iter()
            .map(|&cc| coarse_sides[cc as usize])
            .collect()
    }

    /// Projects an unreplicated coarse k-way placement down to the fine
    /// graph: every fine cell lands in its coarse cell's part.
    ///
    /// # Panics
    ///
    /// Panics if any coarse cell is replicated (projection is only
    /// defined for the single-copy placements the coarse levels use —
    /// replication is introduced at the finest level only).
    pub fn project_placement(&self, fine_hg: &Hypergraph, coarse: &Placement) -> Placement {
        let parts: Vec<PartId> = self
            .hg
            .cell_ids()
            .map(|cc| {
                coarse
                    .part_of(cc)
                    .expect("coarse placement is unreplicated")
            })
            .collect();
        let mut fine = Placement::new_uniform(fine_hg, coarse.n_parts(), PartId(0));
        for f in fine_hg.cell_ids() {
            fine.place(f, parts[self.cell_map[f.index()] as usize]);
        }
        fine
    }
}

/// The number of nets cut by a side assignment (a net is cut iff its
/// endpoints touch both sides). This is the unreplicated special case
/// of [`Placement::cut_size`], usable on raw side vectors before a
/// placement exists.
pub fn cut_of_sides(hg: &Hypergraph, sides: &[u8]) -> usize {
    assert!(sides.len() >= hg.n_cells(), "side per cell");
    hg.nets()
        .iter()
        .filter(|net| {
            let first = sides[net.driver().cell.index()];
            net.sinks().iter().any(|e| sides[e.cell.index()] != first)
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Hypergraph {
        // pi -> a -> b -> po
        use netpart_hypergraph::{AdjacencyMatrix, CellKind, HypergraphBuilder};
        let mut b = HypergraphBuilder::new();
        let pi = b.add_cell("pi", CellKind::input_pad(), 0, 1, AdjacencyMatrix::pad());
        let a = b.add_cell("a", CellKind::logic(1), 1, 1, AdjacencyMatrix::full(1, 1));
        let c = b.add_cell("b", CellKind::logic(1), 1, 1, AdjacencyMatrix::full(1, 1));
        let po = b.add_cell("po", CellKind::output_pad(), 1, 0, AdjacencyMatrix::pad());
        let n0 = b.add_net("n0");
        let n1 = b.add_net("n1");
        let n2 = b.add_net("n2");
        b.connect_output(n0, pi, 0).unwrap();
        b.connect_input(n0, a, 0).unwrap();
        b.connect_output(n1, a, 0).unwrap();
        b.connect_input(n1, c, 0).unwrap();
        b.connect_output(n2, c, 0).unwrap();
        b.connect_input(n2, po, 0).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn cut_of_sides_matches_placement_cut() {
        let hg = tiny();
        let sides = [0u8, 0, 1, 1];
        let mut pl = Placement::new_uniform(&hg, 2, PartId(0));
        for c in hg.cell_ids() {
            pl.place(c, PartId(u16::from(sides[c.index()])));
        }
        assert_eq!(cut_of_sides(&hg, &sides), pl.cut_size(&hg));
        assert_eq!(cut_of_sides(&hg, &sides), 1);
        assert_eq!(cut_of_sides(&hg, &[0, 0, 0, 0]), 0);
    }
}
