//! Bridge from a partitioned hypergraph to routing demands: each cut
//! net becomes a [`NetDemand`] over the sites its parts map to.
//!
//! The part→site mapping is the identity (part `j` is hosted on site
//! `j`), so a placement is only mappable when every *used* part index is
//! below the board's site count. Replication-aware: a net's part set is
//! derived from connected pins only, exactly like the verifier's
//! independent re-derivation, so a replica with floating pins never
//! drags a net onto a site it does not actually reach.

use crate::error::BoardError;
use crate::model::Board;
use crate::route::NetDemand;
use netpart_hypergraph::{Hypergraph, Placement};

/// Computes the routing demand of every cut net under the identity
/// part→site mapping. Errors with [`BoardError::SitesExceeded`] when
/// the placement occupies a part index with no backing site.
pub fn demands(
    hg: &Hypergraph,
    placement: &Placement,
    board: &Board,
) -> Result<Vec<NetDemand>, BoardError> {
    let areas = placement.part_areas(hg);
    let used_parts = areas
        .iter()
        .rposition(|&a| a > 0)
        .map_or(0, |last| last + 1);
    if used_parts > board.n_sites() {
        return Err(BoardError::SitesExceeded {
            parts: used_parts,
            sites: board.n_sites(),
        });
    }
    let mut out = Vec::new();
    for net in hg.net_ids() {
        let mut sites: Vec<u32> = Vec::new();
        for ep in hg.net(net).endpoints() {
            for part in placement.pin_parts(hg, ep.cell, ep.pin) {
                sites.push(u32::from(part.0));
            }
        }
        sites.sort_unstable();
        sites.dedup();
        if sites.len() >= 2 {
            out.push(NetDemand { net: net.0, sites });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_hypergraph::{AdjacencyMatrix, CellKind, HypergraphBuilder, PartId, Placement};

    fn two_cell_cut() -> (Hypergraph, Placement) {
        let mut b = HypergraphBuilder::new();
        let pad = b.add_cell("pi", CellKind::input_pad(), 0, 1, AdjacencyMatrix::pad());
        let buf = b.add_cell("buf", CellKind::logic(1), 1, 1, AdjacencyMatrix::full(1, 1));
        let n0 = b.add_net("n0");
        let n1 = b.add_net("n1");
        b.connect_output(n0, pad, 0).expect("connect");
        b.connect_input(n0, buf, 0).expect("connect");
        b.connect_output(n1, buf, 0).expect("connect");
        let hg = b.finish().expect("build");
        let mut p = Placement::new_uniform(&hg, 2, PartId(0));
        p.place(buf, PartId(1));
        (hg, p)
    }

    #[test]
    fn cut_net_yields_demand_over_both_sites() {
        let (hg, p) = two_cell_cut();
        let board = Board::direct2();
        let d = demands(&hg, &p, &board).expect("mappable");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].sites, vec![0, 1]);
    }

    #[test]
    fn more_parts_than_sites_is_rejected() {
        let (hg, _) = two_cell_cut();
        // Repin onto a 3-part placement with part 2 occupied.
        let mut p = Placement::new_uniform(&hg, 3, PartId(0));
        p.place(netpart_hypergraph::CellId(1), PartId(2));
        let board = Board::direct2();
        let err = demands(&hg, &p, &board).unwrap_err();
        assert_eq!(err, BoardError::SitesExceeded { parts: 3, sites: 2 });
    }
}
