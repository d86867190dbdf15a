//! Pre-mapping decomposition of wide gates into trees.

use netpart_netlist::{GateKind, Netlist, SignalId};

/// Rewrites every combinational gate with more than `k` inputs into a
/// balanced tree of at-most-`k`-input gates, returning the new netlist.
///
/// AND/OR decompose into trees of themselves; NAND/NOR decompose into an
/// AND/OR reduction tree with an inverting final stage. Gates already
/// within the limit (and all DFFs) are copied unchanged, and so is a
/// wide [`GateKind::Lut`] cover or XOR/XNOR: it has no structural
/// decomposition, and [`map`](crate::map) rejects it with
/// [`MapError::FaninTooLarge`](crate::MapError::FaninTooLarge).
///
/// # Panics
///
/// Panics if `k < 2`.
///
/// # Examples
///
/// ```
/// use netpart_netlist::{GateKind, Netlist};
/// use netpart_techmap::decompose_wide_gates;
///
/// # fn main() -> Result<(), netpart_netlist::NetlistError> {
/// let mut nl = Netlist::new("wide");
/// let ins: Vec<_> = (0..9)
///     .map(|i| nl.add_primary_input(format!("i{i}")))
///     .collect::<Result<_, _>>()?;
/// let y = nl.add_signal("y")?;
/// nl.add_gate("big", GateKind::And, ins, y)?;
/// nl.add_primary_output(y)?;
/// let narrow = decompose_wide_gates(&nl, 4);
/// assert!(narrow.gates().iter().all(|g| g.inputs.len() <= 4));
/// # Ok(())
/// # }
/// ```
pub fn decompose_wide_gates(nl: &Netlist, k: usize) -> Netlist {
    assert!(k >= 2, "gates cannot be narrower than 2 inputs");
    let mut out = Netlist::new(nl.name());
    // Recreate signals in order so ids line up one-to-one.
    let pi_set: std::collections::HashSet<SignalId> = nl.primary_inputs().iter().copied().collect();
    for s in nl.signal_ids() {
        let name = nl.signal_name(s);
        if pi_set.contains(&s) {
            out.add_primary_input(name).expect("names unique in source");
        } else {
            out.add_signal(name).expect("names unique in source");
        }
    }

    let mut fresh = 0usize;
    for g in nl.gates() {
        let stages = match g.kind {
            _ if g.kind.is_dff() || g.inputs.len() <= k => None,
            GateKind::And => Some((GateKind::And, GateKind::And)),
            GateKind::Or => Some((GateKind::Or, GateKind::Or)),
            GateKind::Nand => Some((GateKind::And, GateKind::Nand)),
            GateKind::Nor => Some((GateKind::Or, GateKind::Nor)),
            _ => None,
        };
        let Some((reduce, finish)) = stages else {
            out.add_gate(g.name.clone(), g.kind.clone(), g.inputs.clone(), g.output)
                .expect("copy of valid gate");
            continue;
        };
        // Balanced reduction: fold groups of k signals until ≤ k remain,
        // then apply the (possibly inverting) final stage.
        let mut level: Vec<SignalId> = g.inputs.clone();
        while level.len() > k {
            let mut next = Vec::with_capacity(level.len().div_ceil(k));
            for chunk in level.chunks(k) {
                if chunk.len() == 1 {
                    next.push(chunk[0]);
                    continue;
                }
                let t = out
                    .add_signal(format!("_dec{fresh}"))
                    .expect("fresh internal name");
                fresh += 1;
                out.add_gate(format!("_dec_g{fresh}"), reduce.clone(), chunk.to_vec(), t)
                    .expect("tree stage is valid");
                next.push(t);
            }
            level = next;
        }
        out.add_gate(g.name.clone(), finish, level, g.output)
            .expect("final stage is valid");
    }
    for &s in nl.primary_outputs() {
        out.add_primary_output(s).expect("signal recreated");
    }
    debug_assert!(out.validate().is_ok());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_netlist::GateKind;

    fn wide(kind: GateKind, n: usize) -> Netlist {
        let mut nl = Netlist::new("w");
        let ins: Vec<_> = (0..n)
            .map(|i| nl.add_primary_input(format!("i{i}")).unwrap())
            .collect();
        let y = nl.add_signal("y").unwrap();
        nl.add_gate("big", kind, ins, y).unwrap();
        nl.add_primary_output(y).unwrap();
        nl
    }

    #[test]
    fn and_tree_has_narrow_gates() {
        let nl = decompose_wide_gates(&wide(GateKind::And, 17), 4);
        nl.validate().unwrap();
        assert!(nl.gates().iter().all(|g| g.inputs.len() <= 4));
        assert!(nl.gates().iter().all(|g| matches!(g.kind, GateKind::And)));
    }

    #[test]
    fn nand_tree_inverts_once() {
        let nl = decompose_wide_gates(&wide(GateKind::Nand, 10), 3);
        nl.validate().unwrap();
        let nands = nl
            .gates()
            .iter()
            .filter(|g| matches!(g.kind, GateKind::Nand))
            .count();
        assert_eq!(nands, 1, "exactly the final stage inverts");
        let y = nl.signal_by_name("y").unwrap();
        let final_gate = nl
            .gates()
            .iter()
            .find(|g| g.output == y)
            .expect("output driven");
        assert!(matches!(final_gate.kind, GateKind::Nand));
    }

    #[test]
    fn narrow_netlists_unchanged() {
        let src = wide(GateKind::Or, 3);
        let out = decompose_wide_gates(&src, 4);
        assert_eq!(out.n_gates(), 1);
        assert_eq!(out.gates()[0].inputs.len(), 3);
    }

    #[test]
    fn dffs_copied_verbatim() {
        let mut nl = Netlist::new("t");
        let a = nl.add_primary_input("a").unwrap();
        let q = nl.add_signal("q").unwrap();
        nl.add_gate("ff", GateKind::Dff, vec![a], q).unwrap();
        nl.add_primary_output(q).unwrap();
        let out = decompose_wide_gates(&nl, 2);
        assert_eq!(out.n_dffs(), 1);
    }

    /// A wide cover has no structural decomposition: it is copied
    /// unchanged, and mapping rejects its fan-in with a typed error.
    #[test]
    fn wide_lut_is_copied_for_map_to_reject() {
        // XOR arity is capped at 2 by the model, so fabricate a wide LUT.
        let mut nl = Netlist::new("t");
        let ins: Vec<_> = (0..6)
            .map(|i| nl.add_primary_input(format!("i{i}")).unwrap())
            .collect();
        let y = nl.add_signal("y").unwrap();
        nl.add_gate(
            "l",
            GateKind::Lut {
                cover: vec!["111111 1".into()],
            },
            ins,
            y,
        )
        .unwrap();
        nl.add_primary_output(y).unwrap();
        let out = decompose_wide_gates(&nl, 4);
        assert_eq!(out.gates(), nl.gates());
        assert!(matches!(
            crate::map(&out, &crate::MapperConfig::xc3000()),
            Err(crate::MapError::FaninTooLarge {
                fanin: 6,
                limit: 5,
                ..
            })
        ));
    }
}
