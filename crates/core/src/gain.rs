//! The paper's unified gain model (§III, eqs. 7–11).
//!
//! For an unreplicated `n`-input, `m`-output cell the model works on four
//! binary vectors besides the adjacency vectors `A_Xi`:
//!
//! * `C^I`, `C^O` — *cutset adjacency*: bit `j` set iff the net on
//!   input/output pin `j` is currently cut;
//! * `Q^I`, `Q^O` — *critical nets*: bit `j` set iff one move (of that
//!   pin) changes the net's state.
//!
//! [`single_move_gain`] is eq. 7, [`traditional_gain`] is eq. 8 and
//! [`functional_gain`] generalizes eqs. 9–10 from the paper's two-output
//! derivation to any output count; [`best_functional_gain`] is eq. 11.
//! The formulas agree exactly with the engine's cut-delta computation —
//! a property the test-suite checks on random circuits — provided each
//! pin of the cell is on a distinct single-driver net (the paper's
//! implicit assumption).

use crate::state::EngineState;
use netpart_hypergraph::{AdjacencyMatrix, BitVec, CellId, Hypergraph, Pin};

/// The four per-cell vectors of the unified cost model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellVectors {
    /// Cutset adjacency over input pins (`C^I`).
    pub c_i: BitVec,
    /// Cutset adjacency over output pins (`C^O`).
    pub c_o: BitVec,
    /// Critical nets over input pins (`Q^I`).
    pub q_i: BitVec,
    /// Critical nets over output pins (`Q^O`).
    pub q_o: BitVec,
}

/// Extracts `C^I`, `C^O`, `Q^I`, `Q^O` for an unreplicated cell from the
/// engine state of a bipartition of `hg`.
///
/// Returns `None` if the cell is replicated or two of its pins share a
/// net (the vector model indexes nets by pin).
pub fn extract_vectors(
    hg: &Hypergraph,
    engine: &EngineState<'_>,
    c: CellId,
) -> Option<CellVectors> {
    if engine.cell_state(c).is_replicated() {
        return None;
    }
    let cell = hg.cell(c);
    let mut nets: Vec<_> = cell.incident_nets().collect();
    nets.sort_unstable();
    let distinct = nets.windows(2).all(|w| w[0] != w[1]);
    if !distinct {
        return None;
    }
    let n = cell.n_inputs();
    let m = cell.m_outputs();
    let mut v = CellVectors {
        c_i: BitVec::zeros(n),
        c_o: BitVec::zeros(m),
        q_i: BitVec::zeros(n),
        q_o: BitVec::zeros(m),
    };
    for j in 0..n {
        v.c_i.set(j, engine.is_cut(cell.input_net(j)));
        v.q_i
            .set(j, engine.pin_critical(hg, c, Pin::Input(j as u16)));
    }
    for o in 0..m {
        v.c_o.set(o, engine.is_cut(cell.output_net(o)));
        v.q_o
            .set(o, engine.pin_critical(hg, c, Pin::Output(o as u16)));
    }
    Some(v)
}

/// Eq. 7: the gain of moving the whole cell across the cut,
/// `G_m = (‖C^I∘Q^I‖ + ‖C^O∘Q^O‖) − (‖C̄^I∘Q^I‖ + ‖C̄^O∘Q^O‖)`.
pub fn single_move_gain(v: &CellVectors) -> i64 {
    let plus = v.c_i.and(&v.q_i).norm() + v.c_o.and(&v.q_o).norm();
    let minus = v.c_i.complement().and(&v.q_i).norm() + v.c_o.complement().and(&v.q_o).norm();
    plus as i64 - minus as i64
}

/// Eq. 8: the gain of traditional (Kring–Newton) replication,
/// `G_tr = (‖C^I‖ + ‖C^O‖) − n`.
pub fn traditional_gain(v: &CellVectors) -> i64 {
    (v.c_i.norm() + v.c_o.norm()) as i64 - v.c_i.len() as i64
}

/// Eqs. 9–10 generalized to `m` outputs: the gain of functional
/// replication where the replica keeps output `replica_output`.
///
/// With `E_i` the inputs exclusive to output `X_i` and `S_i = A_Xi ∖ E_i`
/// the inputs it shares with other outputs:
///
/// ```text
/// G_Xi = ‖C^I∘Q^I∘E_i‖ − ‖C̄^I∘Q^I∘E_i‖   (exclusive inputs move across)
///      − ‖C̄^I∘S_i‖                        (shared inputs get duplicated)
///      + (c^O_i·q^O_i) − (c̄^O_i·q^O_i)     (the kept output moves across)
/// ```
///
/// # Panics
///
/// Panics if `replica_output` is out of range or vector shapes mismatch
/// the adjacency matrix.
pub fn functional_gain(adj: &AdjacencyMatrix, v: &CellVectors, replica_output: usize) -> i64 {
    let m = adj.m_outputs();
    assert!(replica_output < m, "output index out of range");
    assert_eq!(adj.n_inputs(), v.c_i.len(), "input arity mismatch");
    assert_eq!(m, v.c_o.len(), "output arity mismatch");
    let mut exclusive = adj.row(replica_output).clone();
    for j in 0..m {
        if j != replica_output {
            exclusive = exclusive.and(&adj.row(j).complement());
        }
    }
    let shared = adj.row(replica_output).and(&exclusive.complement());
    let moved = v.c_i.and(&v.q_i).and(&exclusive).norm() as i64
        - v.c_i.complement().and(&v.q_i).and(&exclusive).norm() as i64;
    let duplicated = v.c_i.complement().and(&shared).norm() as i64;
    let c = i64::from(v.c_o.get(replica_output));
    let q = i64::from(v.q_o.get(replica_output));
    let output = c * q - (1 - c) * q;
    moved - duplicated + output
}

/// Eq. 11: the best functional-replication gain over all outputs,
/// `G_r = max_i G_Xi`, with the winning output. Returns `None` for cells
/// with fewer than two outputs (functional replication needs an output
/// split).
pub fn best_functional_gain(adj: &AdjacencyMatrix, v: &CellVectors) -> Option<(usize, i64)> {
    if adj.m_outputs() < 2 {
        return None;
    }
    (0..adj.m_outputs())
        .map(|o| (o, functional_gain(adj, v, o)))
        .max_by_key(|&(o, g)| (g, std::cmp::Reverse(o)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::CellState;
    use netpart_hypergraph::{AdjacencyMatrix, CellKind, HypergraphBuilder};

    /// Reconstruction of the paper's Fig. 4: a 5-input, 2-output cell with
    /// `A_X1 = {a1,a2,a3}`, `A_X2 = {a3,a4,a5}`. Side 0 holds the cell,
    /// pads a1..a3 and the X1 sink; side 1 holds pads a4, a5 and the X2
    /// sink. The cut is {a4, a5, X2} — size 3.
    fn fig4() -> (Hypergraph, CellId, Vec<u8>) {
        let mut b = HypergraphBuilder::new();
        let pads: Vec<_> = (1..=5)
            .map(|i| {
                b.add_cell(
                    format!("a{i}"),
                    CellKind::input_pad(),
                    0,
                    1,
                    AdjacencyMatrix::pad(),
                )
            })
            .collect();
        let m = b.add_cell(
            "M",
            CellKind::logic(1),
            5,
            2,
            AdjacencyMatrix::from_rows(5, &[&[0, 1, 2], &[2, 3, 4]]),
        );
        let px1 = b.add_cell("sX1", CellKind::output_pad(), 1, 0, AdjacencyMatrix::pad());
        let px2 = b.add_cell("sX2", CellKind::output_pad(), 1, 0, AdjacencyMatrix::pad());
        for (i, &pad) in pads.iter().enumerate() {
            let n = b.add_net(format!("na{i}"));
            b.connect_output(n, pad, 0).unwrap();
            b.connect_input(n, m, i).unwrap();
        }
        let nx1 = b.add_net("nx1");
        b.connect_output(nx1, m, 0).unwrap();
        b.connect_input(nx1, px1, 0).unwrap();
        let nx2 = b.add_net("nx2");
        b.connect_output(nx2, m, 1).unwrap();
        b.connect_input(nx2, px2, 0).unwrap();
        let hg = b.finish().unwrap();
        // sides: a1,a2,a3 → 0; a4,a5 → 1; M → 0; sX1 → 0; sX2 → 1.
        let sides = vec![0, 0, 0, 1, 1, 0, 0, 1];
        (hg, m, sides)
    }

    #[test]
    fn fig4_single_move_gain_is_minus_one() {
        let (hg, m, sides) = fig4();
        let engine = EngineState::new(&hg, &sides);
        assert_eq!(engine.cut(), 3);
        let v = extract_vectors(&hg, &engine, m).unwrap();
        assert_eq!(single_move_gain(&v), -1);
        assert_eq!(engine.peek_gain(m, CellState::Single { side: 1 }), -1);
    }

    #[test]
    fn fig4_traditional_gain_is_minus_two() {
        let (hg, m, sides) = fig4();
        let engine = EngineState::new(&hg, &sides);
        let v = extract_vectors(&hg, &engine, m).unwrap();
        assert_eq!(traditional_gain(&v), -2);
        assert_eq!(
            engine.peek_gain(m, CellState::Traditional { orig_side: 0 }),
            -2
        );
    }

    #[test]
    fn fig4_functional_gains_match_paper() {
        let (hg, m, sides) = fig4();
        let engine = EngineState::new(&hg, &sides);
        let v = extract_vectors(&hg, &engine, m).unwrap();
        let adj = hg.cell(m).adjacency();
        // Keeping X1 in the replica: −4 (the paper's G_X1).
        assert_eq!(functional_gain(adj, &v, 0), -4);
        // Keeping X2: +2 (the paper's G_X2), hence G_r = +2 (eq. 11).
        assert_eq!(functional_gain(adj, &v, 1), 2);
        assert_eq!(best_functional_gain(adj, &v), Some((1, 2)));
        // Engine agreement.
        assert_eq!(
            engine.peek_gain(
                m,
                CellState::Functional {
                    orig_side: 0,
                    replica_mask: 0b01
                }
            ),
            -4
        );
        assert_eq!(
            engine.peek_gain(
                m,
                CellState::Functional {
                    orig_side: 0,
                    replica_mask: 0b10
                }
            ),
            2
        );
    }

    #[test]
    fn fig4_applying_best_replication_reduces_cut_to_one() {
        let (hg, m, sides) = fig4();
        let mut engine = EngineState::new(&hg, &sides);
        engine.set_state(
            m,
            CellState::Functional {
                orig_side: 0,
                replica_mask: 0b10,
            },
        );
        assert_eq!(engine.cut(), 1, "the paper's Fig. 4: cut 3 → 1");
        assert!(engine.validate());
    }

    #[test]
    fn vectors_unavailable_for_replicated_cells() {
        let (hg, m, sides) = fig4();
        let mut engine = EngineState::new(&hg, &sides);
        engine.set_state(
            m,
            CellState::Functional {
                orig_side: 0,
                replica_mask: 0b10,
            },
        );
        assert!(extract_vectors(&hg, &engine, m).is_none());
    }

    #[test]
    fn best_functional_needs_two_outputs() {
        let v = CellVectors {
            c_i: BitVec::zeros(2),
            c_o: BitVec::zeros(1),
            q_i: BitVec::zeros(2),
            q_o: BitVec::zeros(1),
        };
        assert_eq!(best_functional_gain(&AdjacencyMatrix::full(2, 1), &v), None);
    }
}
