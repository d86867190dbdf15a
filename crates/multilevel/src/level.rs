//! The coarse-level data model: one rung of the V-cycle ladder.
//!
//! A [`CoarseLevel`] owns the contracted hypergraph plus the cell map
//! that relates it to the finer graph it was built from: every fine
//! cell belongs to exactly one coarse cell (`cell_map`). No net map is
//! kept. A fine net survives contraction iff a sink lies in another
//! coarse cell than its driver, and the survivors are numbered in fine
//! order, so the cell map alone re-derives which coarse net a fine net
//! became.

use netpart_hypergraph::{Hypergraph, PartId, Placement};

/// One coarsening step: the contracted hypergraph and the cell map back
/// to the finer graph it was derived from.
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
///   coarse cut equals the fine cut exactly;
/// * coarse cells and nets have empty names: certificates and traces
///   name cells by id, and only the finest graph's names are printed.
#[derive(Clone, Debug)]
pub struct CoarseLevel {
    /// The contracted hypergraph.
    pub hg: Hypergraph,
    /// Fine cell index → coarse cell index (total).
    pub cell_map: Vec<u32>,
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
