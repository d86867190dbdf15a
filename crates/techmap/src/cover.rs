//! Greedy K-feasible cone covering (Chortle-style LUT mapping).

use crate::error::MapError;
use netpart_netlist::{topo_order, GateId, Netlist, SignalId};

/// A single-output LUT: a fan-out-free cone of combinational gates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LutCone {
    /// The root gate (whose output is the cone's output).
    pub root: GateId,
    /// The cone's output signal.
    pub output: SignalId,
    /// The cone's leaf signals (the LUT inputs), sorted.
    pub support: Vec<SignalId>,
    /// Every gate covered by the cone (root included).
    pub gates: Vec<GateId>,
}

/// How many consumers (gate readers plus primary-output uses) each signal
/// has.
pub(crate) fn consumer_counts(nl: &Netlist) -> Vec<usize> {
    let mut counts = vec![0usize; nl.n_signals()];
    for g in nl.gates() {
        for &s in g.inputs {
            counts[s.index()] += 1;
        }
    }
    for &s in nl.primary_outputs() {
        counts[s.index()] += 1;
    }
    counts
}

/// Covers the combinational gates of `nl` with `k`-input LUT cones.
///
/// A gate is absorbed into its (sole) reader's cone when its output has
/// exactly one consumer and the merged leaf set stays within `k` signals;
/// otherwise it roots a cone of its own. DFFs are untouched — they are
/// handled by the packing stage.
///
/// # Errors
///
/// Returns [`MapError::FaninTooLarge`] if a combinational gate alone
/// exceeds `k` inputs (see
/// [`decompose_wide_gates`](crate::decompose_wide_gates)).
pub fn cover(nl: &Netlist, k: usize) -> Result<Vec<LutCone>, MapError> {
    for (i, g) in nl.gates().enumerate() {
        if !g.kind.is_dff() && g.inputs.len() > k {
            return Err(MapError::FaninTooLarge {
                gate: GateId(i as u32),
                fanin: g.inputs.len(),
                limit: k,
            });
        }
    }
    let order = topo_order(nl)?;
    let consumers = consumer_counts(nl);
    let mut absorbed = vec![false; nl.n_gates()];
    let mut cones = Vec::new();
    // Scratch for absorption attempts, swapped with the leaf set when an
    // attempt succeeds.
    let mut merged: Vec<SignalId> = Vec::new();

    // Reverse topological order: consumers are processed before producers,
    // so any unabsorbed gate we reach must root its own cone.
    for &g in order.iter().rev() {
        let gate = nl.gate(g);
        if gate.kind.is_dff() || absorbed[g.index()] {
            continue;
        }
        let mut leaves: Vec<SignalId> = gate.inputs.to_vec();
        leaves.sort_unstable();
        leaves.dedup();
        let mut gates = vec![g];
        // Greedily absorb single-consumer combinational drivers while the
        // leaf set stays k-feasible.
        loop {
            let mut progressed = false;
            for li in 0..leaves.len() {
                let s = leaves[li];
                let netpart_netlist::Driver::Gate(d) = nl.driver(s) else {
                    continue;
                };
                let dg = nl.gate(d);
                if dg.kind.is_dff() || absorbed[d.index()] || consumers[s.index()] != 1 {
                    continue;
                }
                merged.clear();
                merged.extend_from_slice(&leaves[..li]);
                merged.extend_from_slice(&leaves[li + 1..]);
                merged.extend_from_slice(dg.inputs);
                merged.sort_unstable();
                merged.dedup();
                if merged.len() > k {
                    continue;
                }
                absorbed[d.index()] = true;
                gates.push(d);
                std::mem::swap(&mut leaves, &mut merged);
                progressed = true;
                break;
            }
            if !progressed {
                break;
            }
        }
        cones.push(LutCone {
            root: g,
            output: gate.output,
            support: leaves,
            gates,
        });
    }
    cones.reverse(); // roughly input-to-output order, deterministic
    Ok(cones)
}

/// Checks cone invariants: every combinational gate covered exactly once,
/// every support within `k`, every absorbed signal internal to its cone.
/// Intended for tests and debug assertions.
#[cfg(test)]
pub(crate) fn validate_cover(nl: &Netlist, cones: &[LutCone], k: usize) -> bool {
    let mut covered = vec![0usize; nl.n_gates()];
    for cone in cones {
        if cone.support.len() > k {
            return false;
        }
        for &g in &cone.gates {
            covered[g.index()] += 1;
        }
        if nl.gate(cone.root).output != cone.output {
            return false;
        }
    }
    nl.gate_ids().all(|g| {
        let want = usize::from(!nl.gate(g).kind.is_dff());
        covered[g.index()] == want
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_netlist::{generate, GateKind, GeneratorConfig, Netlist};

    fn sample(gates: usize, dffs: usize, seed: u64) -> Netlist {
        generate(&GeneratorConfig::new(gates).with_dff(dffs).with_seed(seed))
    }

    #[test]
    fn cover_is_a_partition_of_comb_gates() {
        let nl = sample(400, 24, 5);
        let cones = cover(&nl, 5).unwrap();
        assert!(validate_cover(&nl, &cones, 5));
    }

    #[test]
    fn cover_compresses() {
        let nl = sample(600, 0, 6);
        let cones = cover(&nl, 5).unwrap();
        assert!(
            cones.len() * 10 < nl.n_gates() * 9,
            "expected at least 10% compression: {} cones for {} gates",
            cones.len(),
            nl.n_gates()
        );
    }

    #[test]
    fn k1_covers_each_gate_alone_when_single_input() {
        // With k = 2 every 2-input gate is its own cone unless chained
        // through single-consumer wires of combined support ≤ 2.
        let nl = generate(&GeneratorConfig::new(100).with_seed(7).with_max_fanin(2));
        let cones = cover(&nl, 2).unwrap();
        assert!(validate_cover(&nl, &cones, 2));
    }

    #[test]
    fn wide_gate_rejected() {
        let mut nl = Netlist::new("w");
        let ins: Vec<_> = (0..6)
            .map(|i| nl.add_primary_input(format!("i{i}")).unwrap())
            .collect();
        let y = nl.add_signal("y").unwrap();
        nl.add_gate(GateKind::And, &ins, y).unwrap();
        nl.add_primary_output(y).unwrap();
        assert!(matches!(
            cover(&nl, 5),
            Err(MapError::FaninTooLarge { fanin: 6, .. })
        ));
    }

    #[test]
    fn multi_consumer_signals_stay_visible() {
        // a signal read twice must be a cone output, not absorbed.
        let mut nl = Netlist::new("t");
        let a = nl.add_primary_input("a").unwrap();
        let b = nl.add_primary_input("b").unwrap();
        let w = nl.add_signal("w").unwrap();
        let x = nl.add_signal("x").unwrap();
        let y = nl.add_signal("y").unwrap();
        nl.add_gate(GateKind::And, &[a, b], w).unwrap();
        nl.add_gate(GateKind::Not, &[w], x).unwrap();
        nl.add_gate(GateKind::Not, &[w], y).unwrap();
        nl.add_primary_output(x).unwrap();
        nl.add_primary_output(y).unwrap();
        let cones = cover(&nl, 5).unwrap();
        assert_eq!(cones.len(), 3);
        assert!(validate_cover(&nl, &cones, 5));
    }

    #[test]
    fn single_chain_collapses_into_one_cone() {
        let mut nl = Netlist::new("t");
        let a = nl.add_primary_input("a").unwrap();
        let b = nl.add_primary_input("b").unwrap();
        let w = nl.add_signal("w").unwrap();
        let x = nl.add_signal("x").unwrap();
        nl.add_gate(GateKind::And, &[a, b], w).unwrap();
        nl.add_gate(GateKind::Not, &[w], x).unwrap();
        nl.add_primary_output(x).unwrap();
        let cones = cover(&nl, 5).unwrap();
        assert_eq!(cones.len(), 1);
        assert_eq!(cones[0].support, vec![a, b]);
        assert_eq!(cones[0].gates.len(), 2);
    }
}
