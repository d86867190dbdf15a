//! Pre-mapping decomposition of wide gates into trees.

use netpart_netlist::{Driver, Gate, GateKind, Netlist, SignalId};

/// The reduction stage and the final stage that replace a gate wider
/// than `k`, or `None` for a gate that is copied: one within the limit,
/// a DFF, or a kind with no structural decomposition.
fn stages(g: Gate<'_>, k: usize) -> Option<(GateKind, GateKind)> {
    if g.inputs.len() <= k {
        return None;
    }
    match g.kind {
        GateKind::And => Some((GateKind::And, GateKind::And)),
        GateKind::Or => Some((GateKind::Or, GateKind::Or)),
        GateKind::Nand => Some((GateKind::And, GateKind::Nand)),
        GateKind::Nor => Some((GateKind::Or, GateKind::Nor)),
        _ => None,
    }
}

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
/// When no AND/OR/NAND/NOR gate is wider than `k` — always so for a
/// netlist read from BLIF, whose every `.names` is a LUT — the result is
/// a clone of `nl`, which copies its arrays and nothing else.
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
/// nl.add_gate(GateKind::And, &ins, y)?;
/// nl.add_primary_output(y)?;
/// let narrow = decompose_wide_gates(&nl, 4);
/// assert!(narrow.gates().all(|g| g.inputs.len() <= 4));
/// # Ok(())
/// # }
/// ```
pub fn decompose_wide_gates(nl: &Netlist, k: usize) -> Netlist {
    assert!(k >= 2, "gates cannot be narrower than 2 inputs");
    if nl.gates().all(|g| stages(g, k).is_none()) {
        return nl.clone();
    }
    let mut out = Netlist::new(nl.name());
    // Recreate signals in order so ids line up one-to-one.
    for s in nl.signal_ids() {
        let name = nl.signal_name(s);
        if nl.driver(s) == Driver::PrimaryInput {
            out.add_primary_input(name).expect("names unique in source");
        } else {
            out.add_signal(name).expect("names unique in source");
        }
    }

    let mut fresh = 0usize;
    for (id, g) in nl.gate_ids().zip(nl.gates()) {
        let Some((reduce, finish)) = stages(g, k) else {
            match g.kind {
                GateKind::Lut => out.add_lut(g.inputs, g.output, nl.cover(id)),
                kind => out.add_gate(kind, g.inputs, g.output),
            }
            .expect("copy of valid gate");
            continue;
        };
        // Balanced reduction: fold groups of k signals until ≤ k remain,
        // then apply the (possibly inverting) final stage.
        let mut level: Vec<SignalId> = g.inputs.to_vec();
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
                out.add_gate(reduce, chunk, t).expect("tree stage is valid");
                next.push(t);
            }
            level = next;
        }
        out.add_gate(finish, &level, g.output)
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
    use netpart_netlist::{parse_blif, write_blif, GateId};

    fn wide(kind: GateKind, n: usize) -> Netlist {
        let mut nl = Netlist::new("w");
        let ins: Vec<_> = (0..n)
            .map(|i| nl.add_primary_input(format!("i{i}")).unwrap())
            .collect();
        let y = nl.add_signal("y").unwrap();
        nl.add_gate(kind, &ins, y).unwrap();
        nl.add_primary_output(y).unwrap();
        nl
    }

    #[test]
    fn and_tree_has_narrow_gates() {
        let nl = decompose_wide_gates(&wide(GateKind::And, 17), 4);
        nl.validate().unwrap();
        assert!(nl.gates().all(|g| g.inputs.len() <= 4));
        assert!(nl.gates().all(|g| g.kind == GateKind::And));
    }

    #[test]
    fn nand_tree_inverts_once() {
        let nl = decompose_wide_gates(&wide(GateKind::Nand, 10), 3);
        nl.validate().unwrap();
        let nands = nl.gates().filter(|g| g.kind == GateKind::Nand).count();
        assert_eq!(nands, 1, "exactly the final stage inverts");
        let y = nl.signal_by_name("y").unwrap();
        let final_gate = nl.gates().find(|g| g.output == y).expect("output driven");
        assert_eq!(final_gate.kind, GateKind::Nand);
    }

    #[test]
    fn narrow_netlists_unchanged() {
        let src = wide(GateKind::Or, 3);
        let out = decompose_wide_gates(&src, 4);
        assert_eq!(out.n_gates(), 1);
        assert_eq!(out.gate(GateId(0)).inputs.len(), 3);
    }

    #[test]
    fn dffs_copied_verbatim() {
        let mut nl = Netlist::new("t");
        let a = nl.add_primary_input("a").unwrap();
        let q = nl.add_signal("q").unwrap();
        nl.add_gate(GateKind::Dff, &[a], q).unwrap();
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
        let l = nl.add_lut(&ins, y, "111111 1\n").unwrap();
        nl.add_primary_output(y).unwrap();
        let out = decompose_wide_gates(&nl, 4);
        assert!(out.gates().eq(nl.gates()));
        assert_eq!(out.cover(l), "111111 1\n");
        assert!(matches!(
            crate::map(&out, &crate::MapperConfig::xc3000()),
            Err(crate::MapError::FaninTooLarge {
                fanin: 6,
                limit: 5,
                ..
            })
        ));
    }

    /// The rebuild copies every gate it does not split, LUT covers
    /// included, and keeps every signal id.
    #[test]
    fn rebuild_copies_luts_and_keeps_signal_ids() {
        let mut nl = wide(GateKind::Nor, 7);
        let y = nl.signal_by_name("y").unwrap();
        let z = nl.add_signal("z").unwrap();
        nl.add_lut(&[y], z, "0 1\n").unwrap();
        nl.add_primary_output(z).unwrap();
        let out = decompose_wide_gates(&nl, 4);
        out.validate().unwrap();
        assert_eq!(out.n_gates(), 4);
        for s in nl.signal_ids() {
            assert_eq!(out.signal_name(s), nl.signal_name(s));
        }
        assert_eq!(out.primary_outputs(), nl.primary_outputs());
        assert!(write_blif(&out).contains(".names y z\n0 1\n"));
    }

    /// A parsed netlist has only LUTs and latches, so decompose returns
    /// it as it is, even when a cover is wider than `k`.
    #[test]
    fn parsed_netlists_come_back_unchanged() {
        let text = write_blif(&wide(GateKind::And, 9));
        let out = decompose_wide_gates(&parse_blif(&text).unwrap(), 4);
        assert_eq!(write_blif(&out), text);
    }
}
