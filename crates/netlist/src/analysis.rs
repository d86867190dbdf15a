//! DAG analysis utilities: topological order, levelization and
//! aggregate statistics.

use crate::model::{Driver, GateId, Netlist, NetlistError};

/// Returns the gates in a topological order of their *combinational*
/// dependencies (a DFF's input does not constrain its order — the
/// flip-flop boundary is where sequential feedback is cut).
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`], naming a signal on the
/// cycle, if the combinational part of the network is cyclic.
pub fn topo_order(nl: &Netlist) -> Result<Vec<GateId>, NetlistError> {
    let n = nl.n_gates();
    let mut indegree = vec![0usize; n];
    let fanouts = nl.fanout_index();
    for g in nl.gate_ids() {
        if nl.gate(g).kind.is_dff() {
            continue; // DFF consumes its input after the clock edge
        }
        for &s in nl.gate(g).inputs {
            if let Driver::Gate(_) = nl.driver(s) {
                indegree[g.index()] += 1;
            }
        }
    }
    let mut queue: Vec<GateId> = nl.gate_ids().filter(|g| indegree[g.index()] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(g) = queue.pop() {
        order.push(g);
        for &reader in fanouts.readers(nl.gate(g).output) {
            if nl.gate(reader).kind.is_dff() {
                continue;
            }
            indegree[reader.index()] -= 1;
            if indegree[reader.index()] == 0 {
                queue.push(reader);
            }
        }
    }
    if order.len() != n {
        return Err(NetlistError::CombinationalCycle(cycle_signal(
            nl, &indegree,
        )));
    }
    Ok(order)
}

/// The name of a signal on a combinational cycle, given the in-degrees
/// [`topo_order`] left. A gate it never ordered reads a signal driven by
/// another such gate, so walking back through them must repeat a gate,
/// and the first gate repeated lies on a cycle.
fn cycle_signal(nl: &Netlist, indegree: &[usize]) -> String {
    let mut seen = vec![false; nl.n_gates()];
    let mut at = GateId(indegree.iter().position(|&d| d > 0).unwrap_or(0) as u32);
    while !seen[at.index()] {
        seen[at.index()] = true;
        let unordered = nl.gate(at).inputs.iter().find_map(|&s| match nl.driver(s) {
            Driver::Gate(d) if indegree[d.index()] > 0 => Some(d),
            _ => None,
        });
        match unordered {
            Some(d) => at = d,
            None => break,
        }
    }
    nl.signal_name(nl.gate(at).output).to_string()
}

/// Computes the combinational depth of every gate (primary inputs and DFF
/// outputs are at depth 0; a gate's level is `1 + max(input levels)`;
/// DFF gates themselves are at level 0).
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] on cyclic combinational
/// logic.
fn levelize(nl: &Netlist) -> Result<Vec<u32>, NetlistError> {
    let order = topo_order(nl)?;
    let mut level = vec![0u32; nl.n_gates()];
    for g in order {
        if nl.gate(g).kind.is_dff() {
            continue;
        }
        let mut lvl = 0;
        for &s in nl.gate(g).inputs {
            if let Driver::Gate(d) = nl.driver(s) {
                if !nl.gate(d).kind.is_dff() {
                    lvl = lvl.max(level[d.index()] + 1);
                    continue;
                }
            }
            lvl = lvl.max(1);
        }
        level[g.index()] = lvl;
    }
    Ok(level)
}

/// Aggregate netlist statistics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetlistStats {
    /// Total gate count, including DFFs.
    pub gates: usize,
    /// Primary-input count.
    pub pis: usize,
    /// Primary-output count.
    pub pos: usize,
    /// D flip-flop count.
    pub dffs: usize,
    /// Signal count.
    pub signals: usize,
    /// Mean combinational fan-in over non-DFF gates.
    pub avg_fanin: f64,
    /// Maximum combinational depth.
    pub max_level: u32,
}

impl NetlistStats {
    /// Computes statistics for a netlist.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational cycle (validate first).
    pub fn of(nl: &Netlist) -> Self {
        let levels = levelize(nl).expect("netlist must be acyclic");
        let comb: Vec<_> = nl.gates().filter(|g| !g.kind.is_dff()).collect();
        let fanin_sum: usize = comb.iter().map(|g| g.inputs.len()).sum();
        NetlistStats {
            gates: nl.n_gates(),
            pis: nl.primary_inputs().len(),
            pos: nl.primary_outputs().len(),
            dffs: nl.n_dffs(),
            signals: nl.n_signals(),
            avg_fanin: if comb.is_empty() {
                0.0
            } else {
                fanin_sum as f64 / comb.len() as f64
            },
            max_level: levels.iter().copied().max().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GateKind;

    fn chain() -> Netlist {
        // a -> g0 -> g1 -> g2, with a DFF on the end feeding back to g0's
        // second input.
        let mut nl = Netlist::new("chain");
        let a = nl.add_primary_input("a").unwrap();
        let q = nl.add_signal("q").unwrap();
        let w0 = nl.add_signal("w0").unwrap();
        let w1 = nl.add_signal("w1").unwrap();
        let w2 = nl.add_signal("w2").unwrap();
        nl.add_gate(GateKind::And, &[a, q], w0).unwrap();
        nl.add_gate(GateKind::Not, &[w0], w1).unwrap();
        nl.add_gate(GateKind::Not, &[w1], w2).unwrap();
        nl.add_gate(GateKind::Dff, &[w2], q).unwrap();
        nl.add_primary_output(w2).unwrap();
        nl.validate().unwrap();
        nl
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let nl = chain();
        let order = topo_order(&nl).unwrap();
        let pos: Vec<usize> = nl
            .gate_ids()
            .map(|g| order.iter().position(|&x| x == g).unwrap())
            .collect();
        assert!(pos[0] < pos[1]);
        assert!(pos[1] < pos[2]);
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn levels_count_depth() {
        let nl = chain();
        let levels = levelize(&nl).unwrap();
        assert_eq!(levels[0], 1);
        assert_eq!(levels[1], 2);
        assert_eq!(levels[2], 3);
        assert_eq!(levels[3], 0); // DFF
    }

    #[test]
    fn stats_summary() {
        let nl = chain();
        let s = NetlistStats::of(&nl);
        assert_eq!(s.gates, 4);
        assert_eq!(s.dffs, 1);
        assert_eq!(s.pis, 1);
        assert_eq!(s.pos, 1);
        assert_eq!(s.max_level, 3);
        assert!((s.avg_fanin - 4.0 / 3.0).abs() < 1e-12);
    }
}
