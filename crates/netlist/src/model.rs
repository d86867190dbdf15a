//! The gate-level logic network model.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Identifier of a signal (a wire of the netlist).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SignalId(pub u32);

/// Identifier of a gate.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub u32);

impl SignalId {
    /// The signal's index into the netlist's signal table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl GateId {
    /// The gate's index into [`Netlist::gates`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for SignalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Debug for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// The function a gate computes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GateKind {
    /// Buffer (1 input).
    Buf,
    /// Inverter (1 input).
    Not,
    /// N-input AND.
    And,
    /// N-input OR.
    Or,
    /// N-input NAND.
    Nand,
    /// N-input NOR.
    Nor,
    /// 2-input XOR.
    Xor,
    /// 2-input XNOR.
    Xnor,
    /// A generic single-output lookup table described by BLIF cover rows
    /// (each row is `<input pattern> <output bit>`).
    Lut {
        /// BLIF `.names` cover rows.
        cover: Vec<String>,
    },
    /// D flip-flop (1 input: D; clock is implicit).
    Dff,
}

impl GateKind {
    /// Returns `true` for the sequential element.
    pub fn is_dff(&self) -> bool {
        matches!(self, GateKind::Dff)
    }

    /// The valid fan-in range for the kind.
    pub fn arity_range(&self) -> (usize, usize) {
        match self {
            GateKind::Buf | GateKind::Not | GateKind::Dff => (1, 1),
            GateKind::Xor | GateKind::Xnor => (2, 2),
            GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor => (2, usize::MAX),
            GateKind::Lut { .. } => (0, usize::MAX),
        }
    }

    /// A short lowercase mnemonic (`and`, `dff`, `lut`, …).
    pub fn mnemonic(&self) -> &'static str {
        match self {
            GateKind::Buf => "buf",
            GateKind::Not => "not",
            GateKind::And => "and",
            GateKind::Or => "or",
            GateKind::Nand => "nand",
            GateKind::Nor => "nor",
            GateKind::Xor => "xor",
            GateKind::Xnor => "xnor",
            GateKind::Lut { .. } => "lut",
            GateKind::Dff => "dff",
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A single-output gate instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Gate {
    /// Instance name.
    pub name: String,
    /// Function computed.
    pub kind: GateKind,
    /// Input signals in pin order.
    pub inputs: Vec<SignalId>,
    /// Output signal.
    pub output: SignalId,
}

/// What drives a signal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Driver {
    /// Nothing yet (invalid in a validated netlist).
    None,
    /// A primary input.
    PrimaryInput,
    /// The output of a gate.
    Gate(GateId),
}

/// An error raised while mutating or validating a [`Netlist`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetlistError {
    /// A signal id was out of range.
    UnknownSignal(SignalId),
    /// A signal already has a driver.
    SignalAlreadyDriven(SignalId),
    /// A signal has no driver.
    UndrivenSignal(SignalId),
    /// A gate's fan-in count is invalid for its kind.
    BadArity {
        /// The offending gate.
        gate: GateId,
        /// The fan-in count supplied.
        got: usize,
    },
    /// A gate lists the same signal twice among its inputs.
    DuplicateInput(GateId),
    /// The combinational part of the network contains a cycle.
    CombinationalCycle,
    /// Two signals share a name.
    DuplicateSignalName(String),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::UnknownSignal(s) => write!(f, "unknown signal {s:?}"),
            NetlistError::SignalAlreadyDriven(s) => write!(f, "signal {s:?} already driven"),
            NetlistError::UndrivenSignal(s) => write!(f, "signal {s:?} has no driver"),
            NetlistError::BadArity { gate, got } => {
                write!(f, "gate {gate:?} has invalid fan-in {got}")
            }
            NetlistError::DuplicateInput(g) => write!(f, "gate {g:?} lists an input twice"),
            NetlistError::CombinationalCycle => write!(f, "combinational cycle detected"),
            NetlistError::DuplicateSignalName(n) => write!(f, "duplicate signal name {n:?}"),
        }
    }
}

impl Error for NetlistError {}

/// A gate-level logic network.
///
/// Signals are single-driver wires; gates are single-output. D flip-flops
/// are gates of kind [`GateKind::Dff`]; their clock is implicit (one global
/// clock domain, as in the ISCAS'89 benchmarks).
///
/// # Examples
///
/// ```
/// use netpart_netlist::{GateKind, Netlist};
///
/// # fn main() -> Result<(), netpart_netlist::NetlistError> {
/// let mut nl = Netlist::new("half_adder");
/// let a = nl.add_primary_input("a")?;
/// let b = nl.add_primary_input("b")?;
/// let sum = nl.add_signal("sum")?;
/// let carry = nl.add_signal("carry")?;
/// nl.add_gate("x1", GateKind::Xor, vec![a, b], sum)?;
/// nl.add_gate("a1", GateKind::And, vec![a, b], carry)?;
/// nl.add_primary_output(sum)?;
/// nl.add_primary_output(carry)?;
/// nl.validate()?;
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Netlist {
    name: String,
    signal_names: Vec<String>,
    name_index: HashMap<String, SignalId>,
    gates: Vec<Gate>,
    drivers: Vec<Driver>,
    primary_inputs: Vec<SignalId>,
    primary_outputs: Vec<SignalId>,
}

impl Netlist {
    /// Creates an empty netlist with the given model name.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            signal_names: Vec::new(),
            name_index: HashMap::new(),
            gates: Vec::new(),
            drivers: Vec::new(),
            primary_inputs: Vec::new(),
            primary_outputs: Vec::new(),
        }
    }

    /// The model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the model.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Adds a fresh signal.
    ///
    /// # Errors
    ///
    /// Returns an error if the name is already taken.
    pub fn add_signal(&mut self, name: impl Into<String>) -> Result<SignalId, NetlistError> {
        let name = name.into();
        if self.name_index.contains_key(&name) {
            return Err(NetlistError::DuplicateSignalName(name));
        }
        let id = SignalId(self.signal_names.len() as u32);
        self.name_index.insert(name.clone(), id);
        self.signal_names.push(name);
        self.drivers.push(Driver::None);
        Ok(id)
    }

    /// Adds a signal driven by a primary input.
    ///
    /// # Errors
    ///
    /// Returns an error if the name is already taken.
    pub fn add_primary_input(&mut self, name: impl Into<String>) -> Result<SignalId, NetlistError> {
        let id = self.add_signal(name)?;
        self.drivers[id.index()] = Driver::PrimaryInput;
        self.primary_inputs.push(id);
        Ok(id)
    }

    /// Marks an existing signal as a primary output.
    ///
    /// # Errors
    ///
    /// Returns an error if the signal does not exist.
    pub fn add_primary_output(&mut self, signal: SignalId) -> Result<(), NetlistError> {
        self.check_signal(signal)?;
        self.primary_outputs.push(signal);
        Ok(())
    }

    /// Adds a gate driving `output` from `inputs`.
    ///
    /// # Errors
    ///
    /// Returns an error if a signal is unknown, the output is already
    /// driven, the fan-in count is invalid for `kind`, or an input repeats.
    pub fn add_gate(
        &mut self,
        name: impl Into<String>,
        kind: GateKind,
        inputs: Vec<SignalId>,
        output: SignalId,
    ) -> Result<GateId, NetlistError> {
        self.check_signal(output)?;
        for &i in &inputs {
            self.check_signal(i)?;
        }
        let id = GateId(self.gates.len() as u32);
        let (lo, hi) = kind.arity_range();
        if inputs.len() < lo || inputs.len() > hi {
            return Err(NetlistError::BadArity {
                gate: id,
                got: inputs.len(),
            });
        }
        let mut sorted = inputs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != inputs.len() {
            return Err(NetlistError::DuplicateInput(id));
        }
        if self.drivers[output.index()] != Driver::None {
            return Err(NetlistError::SignalAlreadyDriven(output));
        }
        self.drivers[output.index()] = Driver::Gate(id);
        self.gates.push(Gate {
            name: name.into(),
            kind,
            inputs,
            output,
        });
        Ok(id)
    }

    /// The gates, indexable by [`GateId`].
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The gate with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Number of signals.
    pub fn n_signals(&self) -> usize {
        self.signal_names.len()
    }

    /// Number of gates (including DFFs).
    pub fn n_gates(&self) -> usize {
        self.gates.len()
    }

    /// The name of a signal.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn signal_name(&self, s: SignalId) -> &str {
        &self.signal_names[s.index()]
    }

    /// Looks a signal up by name.
    pub fn signal_by_name(&self, name: &str) -> Option<SignalId> {
        self.name_index.get(name).copied()
    }

    /// What drives `signal`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn driver(&self, signal: SignalId) -> Driver {
        self.drivers[signal.index()]
    }

    /// The primary inputs in declaration order.
    pub fn primary_inputs(&self) -> &[SignalId] {
        &self.primary_inputs
    }

    /// The primary outputs in declaration order.
    pub fn primary_outputs(&self) -> &[SignalId] {
        &self.primary_outputs
    }

    /// Iterates over gate ids in ascending order.
    pub fn gate_ids(&self) -> impl Iterator<Item = GateId> {
        (0..self.gates.len() as u32).map(GateId)
    }

    /// Iterates over signal ids in ascending order.
    pub fn signal_ids(&self) -> impl Iterator<Item = SignalId> {
        (0..self.signal_names.len() as u32).map(SignalId)
    }

    /// Number of D flip-flops.
    pub fn n_dffs(&self) -> usize {
        self.gates.iter().filter(|g| g.kind.is_dff()).count()
    }

    /// Builds, for every signal, the list of gates reading it.
    pub fn fanout_index(&self) -> Vec<Vec<GateId>> {
        let mut idx = vec![Vec::new(); self.signal_names.len()];
        for (i, g) in self.gates.iter().enumerate() {
            for &s in &g.inputs {
                idx[s.index()].push(GateId(i as u32));
            }
        }
        idx
    }

    /// Checks that every signal is driven and the combinational part is
    /// acyclic.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for (i, d) in self.drivers.iter().enumerate() {
            if *d == Driver::None {
                return Err(NetlistError::UndrivenSignal(SignalId(i as u32)));
            }
        }
        crate::analysis::topo_order(self)?;
        Ok(())
    }

    fn check_signal(&self, s: SignalId) -> Result<(), NetlistError> {
        if s.index() >= self.signal_names.len() {
            return Err(NetlistError::UnknownSignal(s));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_validate_half_adder() {
        let mut nl = Netlist::new("ha");
        let a = nl.add_primary_input("a").unwrap();
        let b = nl.add_primary_input("b").unwrap();
        let s = nl.add_signal("s").unwrap();
        let c = nl.add_signal("c").unwrap();
        nl.add_gate("x", GateKind::Xor, vec![a, b], s).unwrap();
        nl.add_gate("a1", GateKind::And, vec![a, b], c).unwrap();
        nl.add_primary_output(s).unwrap();
        nl.add_primary_output(c).unwrap();
        nl.validate().unwrap();
        assert_eq!(nl.n_gates(), 2);
        assert_eq!(nl.n_signals(), 4);
        assert_eq!(nl.n_dffs(), 0);
        assert_eq!(nl.driver(s), Driver::Gate(GateId(0)));
        assert_eq!(nl.signal_by_name("c"), Some(c));
        assert_eq!(nl.signal_name(a), "a");
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut nl = Netlist::new("t");
        nl.add_primary_input("a").unwrap();
        assert_eq!(
            nl.add_signal("a"),
            Err(NetlistError::DuplicateSignalName("a".into()))
        );
    }

    #[test]
    fn double_drive_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_primary_input("a").unwrap();
        let y = nl.add_signal("y").unwrap();
        nl.add_gate("g1", GateKind::Buf, vec![a], y).unwrap();
        assert_eq!(
            nl.add_gate("g2", GateKind::Not, vec![a], y),
            Err(NetlistError::SignalAlreadyDriven(y))
        );
    }

    #[test]
    fn arity_checked() {
        let mut nl = Netlist::new("t");
        let a = nl.add_primary_input("a").unwrap();
        let y = nl.add_signal("y").unwrap();
        assert!(matches!(
            nl.add_gate("g", GateKind::And, vec![a], y),
            Err(NetlistError::BadArity { got: 1, .. })
        ));
        assert!(matches!(
            nl.add_gate("g", GateKind::Not, vec![a, a], y),
            Err(NetlistError::DuplicateInput(_)) | Err(NetlistError::BadArity { .. })
        ));
    }

    #[test]
    fn duplicate_inputs_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_primary_input("a").unwrap();
        let y = nl.add_signal("y").unwrap();
        assert_eq!(
            nl.add_gate("g", GateKind::And, vec![a, a], y),
            Err(NetlistError::DuplicateInput(GateId(0)))
        );
    }

    #[test]
    fn undriven_signal_detected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_primary_input("a").unwrap();
        let y = nl.add_signal("y").unwrap();
        let z = nl.add_signal("z").unwrap();
        nl.add_gate("g", GateKind::Buf, vec![a], y).unwrap();
        let _ = z;
        assert_eq!(nl.validate(), Err(NetlistError::UndrivenSignal(z)));
    }

    #[test]
    fn dff_breaks_cycles() {
        // q = DFF(d); d = NOT(q) — legal (a toggle register).
        let mut nl = Netlist::new("t");
        let q = nl.add_signal("q").unwrap();
        let d = nl.add_signal("d").unwrap();
        nl.add_gate("ff", GateKind::Dff, vec![d], q).unwrap();
        nl.add_gate("inv", GateKind::Not, vec![q], d).unwrap();
        nl.validate().unwrap();
        assert_eq!(nl.n_dffs(), 1);
    }

    #[test]
    fn combinational_cycle_detected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_signal("a").unwrap();
        let b = nl.add_signal("b").unwrap();
        nl.add_gate("g1", GateKind::Not, vec![b], a).unwrap();
        nl.add_gate("g2", GateKind::Not, vec![a], b).unwrap();
        assert_eq!(nl.validate(), Err(NetlistError::CombinationalCycle));
    }

    #[test]
    fn fanout_index_lists_readers() {
        let mut nl = Netlist::new("t");
        let a = nl.add_primary_input("a").unwrap();
        let y = nl.add_signal("y").unwrap();
        let z = nl.add_signal("z").unwrap();
        let g1 = nl.add_gate("g1", GateKind::Buf, vec![a], y).unwrap();
        let g2 = nl.add_gate("g2", GateKind::Not, vec![a], z).unwrap();
        let idx = nl.fanout_index();
        assert_eq!(idx[a.index()], vec![g1, g2]);
        assert!(idx[y.index()].is_empty());
    }
}
