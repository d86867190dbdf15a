//! The mapped design: units, CLBs and hypergraph emission.

use crate::cover::{consumer_counts, cover, LutCone};
use crate::error::MapError;
use crate::pack::pack_units;
use netpart_hypergraph::{AdjacencyMatrix, CellKind, Hypergraph, HypergraphBuilder, NetId};
use netpart_netlist::{Driver, GateId, Netlist, SignalId};

/// Mapper parameters.
///
/// [`MapperConfig::xc3000`] models an XC3000 CLB: 5 distinct inputs, 2
/// outputs, 2 flip-flops, one DIN pin for an externally-fed register.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MapperConfig {
    /// LUT/CLB input limit (distinct signals).
    pub max_inputs: usize,
    /// CLB output limit (1 disables packing).
    pub max_outputs: usize,
    /// CLB flip-flop limit.
    pub max_dffs: usize,
    /// Absorb flip-flops fed exclusively by one LUT into that LUT's CLB.
    pub absorb_dffs: bool,
    /// Pack pairs of units into multi-output CLBs.
    pub pack: bool,
    /// Probability that a unit is packed by input-sharing *affinity*;
    /// the rest pack *density-first* (any feasible partner), as era
    /// mappers like XACT did without knowledge of the future partition.
    /// Lower values leave more for functional replication to recover.
    pub pack_affinity: f64,
    /// Seed of the deterministic density-packing choices.
    pub pack_seed: u64,
    /// Neighbourhood (in unit creation order ≈ netlist locality) within
    /// which a density-driven partner is sought. Bounded range models a
    /// mapper that packs within a schematic page rather than chip-wide.
    pub pack_window: usize,
}

impl MapperConfig {
    /// The XC3000 CLB model used throughout the paper.
    pub fn xc3000() -> Self {
        MapperConfig {
            max_inputs: 5,
            max_outputs: 2,
            max_dffs: 2,
            absorb_dffs: true,
            pack: true,
            pack_affinity: 0.85,
            pack_seed: 1,
            pack_window: 128,
        }
    }

    /// Sets the density-packing neighbourhood size (minimum 2).
    pub fn with_pack_window(mut self, w: usize) -> Self {
        self.pack_window = w.max(2);
        self
    }

    /// Sets the affinity/density packing balance (clamped to `[0, 1]`).
    pub fn with_pack_affinity(mut self, affinity: f64) -> Self {
        self.pack_affinity = affinity.clamp(0.0, 1.0);
        self
    }
}

impl Default for MapperConfig {
    fn default() -> Self {
        Self::xc3000()
    }
}

/// One functional unit inside a CLB.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Unit {
    /// A LUT cone, optionally registering its output through an absorbed
    /// flip-flop (in which case the unit's output is the FF's Q signal).
    Lut {
        /// Index into [`Mapped::cones`].
        cone: usize,
        /// The absorbed flip-flop, if any.
        registered: Option<GateId>,
    },
    /// A flip-flop fed from outside the CLB through the DIN pin.
    ExtReg {
        /// The flip-flop gate.
        dff: GateId,
    },
}

/// One configurable logic block: one or two [`Unit`]s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Clb {
    /// The units packed into this block.
    pub units: Vec<Unit>,
}

/// The result of technology mapping.
#[derive(Clone, Debug)]
pub struct Mapped {
    /// The LUT cones produced by covering.
    pub cones: Vec<LutCone>,
    /// The packed CLBs.
    pub clbs: Vec<Clb>,
    cfg: MapperConfig,
}

impl Mapped {
    /// The configuration the design was mapped with.
    pub fn config(&self) -> &MapperConfig {
        &self.cfg
    }

    /// Number of CLBs.
    pub fn n_clbs(&self) -> usize {
        self.clbs.len()
    }

    /// The output signal of a unit (Q for registered units).
    pub fn unit_output(&self, nl: &Netlist, unit: &Unit) -> SignalId {
        match unit {
            Unit::Lut { cone, registered } => match registered {
                Some(ff) => nl.gate(*ff).output,
                None => self.cones[*cone].output,
            },
            Unit::ExtReg { dff } => nl.gate(*dff).output,
        }
    }

    /// The support (external input signals) of a unit, sorted.
    pub fn unit_support(&self, nl: &Netlist, unit: &Unit) -> Vec<SignalId> {
        self.support_of(nl, unit).to_vec()
    }

    /// [`unit_support`](Self::unit_support) borrowed: the cone's leaf
    /// list, or the register's D input.
    pub(crate) fn support_of<'a>(&'a self, nl: &'a Netlist, unit: &Unit) -> &'a [SignalId] {
        match unit {
            Unit::Lut { cone, .. } => &self.cones[*cone].support,
            Unit::ExtReg { dff } => &nl.gate(*dff).inputs[..1],
        }
    }

    /// The number of flip-flops a unit uses.
    pub fn unit_dffs(&self, unit: &Unit) -> usize {
        match unit {
            Unit::Lut { registered, .. } => usize::from(registered.is_some()),
            Unit::ExtReg { .. } => 1,
        }
    }

    /// Emits the partitioning hypergraph: one interior cell per CLB (area
    /// 1), one terminal cell per primary input and per primary output, and
    /// one net per CLB-boundary signal. Per-cell adjacency matrices record
    /// which CLB inputs each output's function reads — the raw material of
    /// the paper's functional replication.
    ///
    /// # Panics
    ///
    /// Panics on internal inconsistency (a mapped design produced by
    /// [`map`] always emits successfully).
    pub fn to_hypergraph(&self, nl: &Netlist) -> Hypergraph {
        let mut b = HypergraphBuilder::with_capacity(
            self.clbs.len() + nl.primary_inputs().len() + nl.primary_outputs().len(),
            self.clbs.len() * 2,
        );

        // A net for every CLB-boundary signal: primary inputs and unit
        // outputs, numbered in first-touch order. Dangling CLB outputs
        // still get (sink-less) nets.
        let mut net_of: Vec<Option<NetId>> = vec![None; nl.n_signals()];
        let mut net_for = |b: &mut HypergraphBuilder, nl: &Netlist, s: SignalId| -> NetId {
            *net_of[s.index()].get_or_insert_with(|| b.add_net(nl.signal_name(s).to_string()))
        };

        // CLB cells.
        let mut cells = Vec::with_capacity(self.clbs.len());
        for (ci, clb) in self.clbs.iter().enumerate() {
            let mut inputs: Vec<SignalId> = Vec::new();
            for u in &clb.units {
                inputs.extend_from_slice(self.support_of(nl, u));
            }
            inputs.sort_unstable();
            inputs.dedup();
            let outputs: Vec<SignalId> =
                clb.units.iter().map(|u| self.unit_output(nl, u)).collect();
            let mut masks = vec![0; inputs.len()];
            for (o, u) in clb.units.iter().enumerate() {
                for s in self.support_of(nl, u) {
                    let j = inputs.binary_search(s).expect("support ⊆ inputs");
                    masks[j] |= 1 << o;
                }
            }
            let dffs: usize = clb.units.iter().map(|u| self.unit_dffs(u)).sum();
            let adj = AdjacencyMatrix::from_input_masks(clb.units.len(), masks);
            let cell = b.add_cell(
                format!("clb{ci}"),
                CellKind::Logic {
                    area: 1,
                    dff: dffs as u32,
                },
                inputs.len(),
                outputs.len(),
                adj,
            );
            cells.push((cell, inputs, outputs));
        }

        // Pads.
        let mut pi_pads = Vec::new();
        for &s in nl.primary_inputs() {
            let pad = b.add_cell(
                format!("pad_{}", nl.signal_name(s)),
                CellKind::input_pad(),
                0,
                1,
                AdjacencyMatrix::pad(),
            );
            pi_pads.push((pad, s));
        }
        let mut po_pads = Vec::new();
        for (i, &s) in nl.primary_outputs().iter().enumerate() {
            let pad = b.add_cell(
                format!("pad_po{i}_{}", nl.signal_name(s)),
                CellKind::output_pad(),
                1,
                0,
                AdjacencyMatrix::pad(),
            );
            po_pads.push((pad, s));
        }

        // Connect drivers.
        for (pad, s) in &pi_pads {
            let n = net_for(&mut b, nl, *s);
            b.connect_output(n, *pad, 0).expect("pad output fresh");
        }
        for (cell, _, outputs) in &cells {
            for (o, &s) in outputs.iter().enumerate() {
                let n = net_for(&mut b, nl, s);
                b.connect_output(n, *cell, o).expect("clb output fresh");
            }
        }
        // Connect sinks.
        for (cell, inputs, _) in &cells {
            for (j, &s) in inputs.iter().enumerate() {
                let n = net_for(&mut b, nl, s);
                b.connect_input(n, *cell, j).expect("clb input fresh");
            }
        }
        for (pad, s) in &po_pads {
            let n = net_for(&mut b, nl, *s);
            b.connect_input(n, *pad, 0).expect("pad input fresh");
        }

        b.finish()
            .expect("mapped design is structurally consistent")
    }
}

/// Technology-maps `nl` into CLBs according to `cfg`.
///
/// # Errors
///
/// Returns an error if the netlist fails validation or contains a
/// combinational gate wider than the LUT input limit (run
/// [`decompose_wide_gates`](crate::decompose_wide_gates) first).
pub fn map(nl: &Netlist, cfg: &MapperConfig) -> Result<Mapped, MapError> {
    nl.validate()?;
    let cones = cover(nl, cfg.max_inputs)?;
    let units = units_of(nl, cfg, &cones);
    let mut mapped = Mapped {
        cones,
        clbs: Vec::new(),
        cfg: *cfg,
    };
    mapped.clbs = if cfg.pack && cfg.max_outputs >= 2 {
        pack_units(&mapped, nl, units)
    } else {
        units.into_iter().map(|u| Clb { units: vec![u] }).collect()
    };
    Ok(mapped)
}

/// The units to pack, in packing order: one per cone (registering its
/// output when a flip-flop is absorbed), then the remaining flip-flops
/// in gate order.
pub(crate) fn units_of(nl: &Netlist, cfg: &MapperConfig, cones: &[LutCone]) -> Vec<Unit> {
    // Index cones by output signal for DFF absorption.
    let mut cone_of_output: Vec<Option<usize>> = vec![None; nl.n_signals()];
    for (i, c) in cones.iter().enumerate() {
        cone_of_output[c.output.index()] = Some(i);
    }

    let consumers = consumer_counts(nl);
    let mut is_po = vec![false; nl.n_signals()];
    for s in nl.primary_outputs() {
        is_po[s.index()] = true;
    }

    let mut registered_by: Vec<Option<GateId>> = vec![None; cones.len()];
    let mut ext_regs: Vec<GateId> = Vec::new();
    for g in nl.gate_ids() {
        if !nl.gate(g).kind.is_dff() {
            continue;
        }
        let d = nl.gate(g).inputs[0];
        let absorbable = cfg.absorb_dffs
            && consumers[d.index()] == 1
            && !is_po[d.index()]
            && matches!(nl.driver(d), Driver::Gate(_));
        if absorbable {
            if let Some(ci) = cone_of_output[d.index()] {
                if registered_by[ci].is_none() {
                    registered_by[ci] = Some(g);
                    continue;
                }
            }
        }
        ext_regs.push(g);
    }

    let mut units: Vec<Unit> = Vec::with_capacity(cones.len() + ext_regs.len());
    units.extend(
        registered_by
            .into_iter()
            .enumerate()
            .map(|(cone, registered)| Unit::Lut { cone, registered }),
    );
    units.extend(ext_regs.into_iter().map(|dff| Unit::ExtReg { dff }));
    units
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_netlist::{generate, GateKind, GeneratorConfig};

    fn sample(gates: usize, dffs: usize, seed: u64) -> Netlist {
        generate(&GeneratorConfig::new(gates).with_dff(dffs).with_seed(seed))
    }

    #[test]
    fn map_produces_valid_hypergraph() {
        let nl = sample(500, 30, 3);
        let m = map(&nl, &MapperConfig::xc3000()).unwrap();
        let hg = m.to_hypergraph(&nl);
        let s = hg.stats();
        assert_eq!(s.clbs as usize, m.n_clbs());
        assert!(s.nets > 0 && s.pins > s.nets);
    }

    #[test]
    fn stats_match_netlist_interface() {
        let nl = sample(500, 30, 3);
        let m = map(&nl, &MapperConfig::xc3000()).unwrap();
        let hg = m.to_hypergraph(&nl);
        let s = hg.stats();
        assert_eq!(
            s.iobs as usize,
            nl.primary_inputs().len() + nl.primary_outputs().len()
        );
        assert_eq!(s.dffs as usize, nl.n_dffs());
    }

    #[test]
    fn packing_reduces_clb_count_and_creates_multi_output_cells() {
        let nl = sample(800, 40, 4);
        let packed = map(&nl, &MapperConfig::xc3000()).unwrap();
        let single_output = MapperConfig {
            max_outputs: 1,
            pack: false,
            ..MapperConfig::xc3000()
        };
        let single = map(&nl, &single_output).unwrap();
        assert!(packed.n_clbs() < single.n_clbs());
        let hg = packed.to_hypergraph(&nl);
        let multi = hg
            .cells()
            .iter()
            .filter(|c| !c.is_terminal() && c.m_outputs() == 2)
            .count();
        assert!(multi * 3 > packed.n_clbs(), "expected many 2-output CLBs");
    }

    #[test]
    fn psi_distribution_nontrivial() {
        let nl = sample(800, 40, 4);
        let hg = map(&nl, &MapperConfig::xc3000())
            .unwrap()
            .to_hypergraph(&nl);
        let dist = hg.replication_potential_distribution();
        let with_potential: usize = dist.iter().skip(1).sum();
        assert!(
            with_potential > dist[0] / 4,
            "expected a sizeable fraction of cells with ψ ≥ 1: {dist:?}"
        );
    }

    #[test]
    fn clb_constraints_respected() {
        let nl = sample(700, 50, 9);
        let cfg = MapperConfig::xc3000();
        let m = map(&nl, &cfg).unwrap();
        for clb in &m.clbs {
            assert!(clb.units.len() <= cfg.max_outputs);
            let mut inputs: Vec<SignalId> = clb
                .units
                .iter()
                .flat_map(|u| m.unit_support(&nl, u))
                .collect();
            inputs.sort_unstable();
            inputs.dedup();
            assert!(inputs.len() <= cfg.max_inputs);
            let dffs: usize = clb.units.iter().map(|u| m.unit_dffs(u)).sum();
            assert!(dffs <= cfg.max_dffs);
            let ext = clb
                .units
                .iter()
                .filter(|u| matches!(u, Unit::ExtReg { .. }))
                .count();
            assert!(ext <= 1, "at most one DIN-fed register per CLB");
        }
    }

    #[test]
    fn every_dff_mapped_exactly_once() {
        let nl = sample(400, 60, 12);
        let m = map(&nl, &MapperConfig::xc3000()).unwrap();
        let mut seen = std::collections::HashSet::new();
        for clb in &m.clbs {
            for u in &clb.units {
                match u {
                    Unit::Lut {
                        registered: Some(ff),
                        ..
                    } => assert!(seen.insert(*ff)),
                    Unit::ExtReg { dff } => assert!(seen.insert(*dff)),
                    _ => {}
                }
            }
        }
        assert_eq!(seen.len(), nl.n_dffs());
    }

    #[test]
    fn dff_fed_by_multi_use_signal_stays_external() {
        // w feeds both a PO and a DFF: the DFF cannot absorb it.
        let mut nl = Netlist::new("t");
        let a = nl.add_primary_input("a").unwrap();
        let b2 = nl.add_primary_input("b").unwrap();
        let w = nl.add_signal("w").unwrap();
        let q = nl.add_signal("q").unwrap();
        nl.add_gate(GateKind::And, &[a, b2], w).unwrap();
        nl.add_gate(GateKind::Dff, &[w], q).unwrap();
        nl.add_primary_output(w).unwrap();
        nl.add_primary_output(q).unwrap();
        let m = map(&nl, &MapperConfig::xc3000()).unwrap();
        let ext = m
            .clbs
            .iter()
            .flat_map(|c| &c.units)
            .filter(|u| matches!(u, Unit::ExtReg { .. }))
            .count();
        assert_eq!(ext, 1);
    }

    #[test]
    fn exclusive_dff_absorbed() {
        let mut nl = Netlist::new("t");
        let a = nl.add_primary_input("a").unwrap();
        let b2 = nl.add_primary_input("b").unwrap();
        let w = nl.add_signal("w").unwrap();
        let q = nl.add_signal("q").unwrap();
        nl.add_gate(GateKind::And, &[a, b2], w).unwrap();
        nl.add_gate(GateKind::Dff, &[w], q).unwrap();
        nl.add_primary_output(q).unwrap();
        let m = map(&nl, &MapperConfig::xc3000()).unwrap();
        assert_eq!(m.n_clbs(), 1);
        assert!(matches!(
            m.clbs[0].units[0],
            Unit::Lut {
                registered: Some(_),
                ..
            }
        ));
        // The hypergraph exposes q, not w.
        let hg = m.to_hypergraph(&nl);
        assert!(hg.nets().iter().any(|n| n.name() == "q"));
        assert!(!hg.nets().iter().any(|n| n.name() == "w"));
    }
}
