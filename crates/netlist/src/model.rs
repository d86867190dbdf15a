//! The gate-level logic network model.
//!
//! A [`Netlist`] keeps no heap object per signal or gate. Signal names
//! sit back to back in one text arena, indexed by an open-addressing
//! table of signal ids; gate kinds and outputs are one array each; the
//! inputs of every gate share one array, cut by offsets, and so do the
//! cover rows of every LUT. Cloning a netlist copies those arrays.

use netpart_rng::Fnv1a;
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
    /// The gate's index into the netlist's gate table.
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
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
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
    /// (each row is `<input pattern> <output bit>`), which the netlist
    /// keeps: see [`Netlist::cover`].
    Lut,
    /// D flip-flop (1 input: D; clock is implicit).
    Dff,
}

impl GateKind {
    /// Returns `true` for the sequential element.
    pub fn is_dff(self) -> bool {
        matches!(self, GateKind::Dff)
    }

    /// The valid fan-in range for the kind.
    pub fn arity_range(self) -> (usize, usize) {
        match self {
            GateKind::Buf | GateKind::Not | GateKind::Dff => (1, 1),
            GateKind::Xor | GateKind::Xnor => (2, 2),
            GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor => (2, usize::MAX),
            GateKind::Lut => (0, usize::MAX),
        }
    }

    /// A short lowercase mnemonic (`and`, `dff`, `lut`, …).
    pub fn mnemonic(self) -> &'static str {
        match self {
            GateKind::Buf => "buf",
            GateKind::Not => "not",
            GateKind::And => "and",
            GateKind::Or => "or",
            GateKind::Nand => "nand",
            GateKind::Nor => "nor",
            GateKind::Xor => "xor",
            GateKind::Xnor => "xnor",
            GateKind::Lut => "lut",
            GateKind::Dff => "dff",
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A single-output gate instance, borrowed from its [`Netlist`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Gate<'a> {
    /// Function computed.
    pub kind: GateKind,
    /// Input signals in pin order.
    pub inputs: &'a [SignalId],
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

/// An error raised while mutating or validating a [`Netlist`]. Errors
/// about a signal of the netlist carry its name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetlistError {
    /// A signal id was out of range.
    UnknownSignal(SignalId),
    /// The named signal already has a driver.
    SignalAlreadyDriven(String),
    /// The named signal has no driver.
    UndrivenSignal(String),
    /// A gate's fan-in count is invalid for its kind.
    BadArity {
        /// The offending gate.
        gate: GateId,
        /// The fan-in count supplied.
        got: usize,
    },
    /// A gate lists the same signal twice among its inputs.
    DuplicateInput {
        /// The name of the signal the gate drives.
        output: String,
        /// The name of the repeated input.
        input: String,
    },
    /// The combinational part of the network contains a cycle through
    /// the named signal.
    CombinationalCycle(String),
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
            NetlistError::DuplicateInput { output, input } => {
                write!(f, "the gate driving {output:?} lists input {input:?} twice")
            }
            NetlistError::CombinationalCycle(s) => {
                write!(f, "combinational cycle through signal {s:?}")
            }
            NetlistError::DuplicateSignalName(n) => write!(f, "duplicate signal name {n:?}"),
        }
    }
}

impl Error for NetlistError {}

/// An arena offset. The arenas of one netlist hold under 4 GiB each.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("netlist arena exceeds 4 GiB")
}

/// Signal names: one text arena cut by offsets, and an open-addressing
/// table of signal ids hashed with FNV-1a.
#[derive(Clone, Debug)]
struct Names {
    /// Every name, back to back.
    text: String,
    /// Signal `i`'s name is `text[start[i]..start[i + 1]]`.
    start: Vec<u32>,
    /// Signal id + 1 per slot, 0 for an empty one; the length is a
    /// power of two and at most half the slots are taken.
    slots: Vec<u32>,
}

impl Names {
    fn new() -> Self {
        Names {
            text: String::new(),
            start: vec![0],
            slots: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.start.len() - 1
    }

    fn get(&self, i: usize) -> &str {
        &self.text[self.start[i] as usize..self.start[i + 1] as usize]
    }

    /// The first slot to probe for `name` in a table of `mask + 1` slots.
    fn home(name: &str, mask: usize) -> usize {
        let mut h = Fnv1a::new();
        h.write(name.as_bytes());
        let h = h.finish();
        (h ^ h >> 32) as usize & mask
    }

    /// The slot holding `name`, or the empty slot it would take. The
    /// table must have a slot.
    fn slot(&self, name: &str) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = Self::home(name, mask);
        loop {
            match self.slots[at] {
                0 => return at,
                id if self.get(id as usize - 1) == name => return at,
                _ => at = (at + 1) & mask,
            }
        }
    }

    fn find(&self, name: &str) -> Option<SignalId> {
        if self.slots.is_empty() {
            return None;
        }
        self.slots[self.slot(name)].checked_sub(1).map(SignalId)
    }

    /// The id of `name`, and whether it was added as the next signal.
    fn intern(&mut self, name: &str) -> (SignalId, bool) {
        if 2 * (self.len() + 1) > self.slots.len() {
            self.grow();
        }
        let at = self.slot(name);
        if let Some(id) = self.slots[at].checked_sub(1) {
            return (SignalId(id), false);
        }
        let id = offset(self.len());
        self.text.push_str(name);
        self.start.push(offset(self.text.len()));
        self.slots[at] = id + 1;
        (SignalId(id), true)
    }

    /// Doubles the table and re-inserts every name.
    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(16);
        self.slots.clear();
        self.slots.resize(size, 0);
        for i in 0..self.len() {
            let mut at = Self::home(self.get(i), size - 1);
            while self.slots[at] != 0 {
                at = (at + 1) & (size - 1);
            }
            self.slots[at] = i as u32 + 1;
        }
    }
}

/// The first input a gate lists twice, in pin order. Lists of up to 64
/// pins (every generated gate and any sensible cover) are scanned in
/// place; only a longer list is sorted, in a copy, to find a repeat
/// at all.
fn repeated_input(inputs: &[SignalId]) -> Option<SignalId> {
    let first_repeat = |inputs: &[SignalId]| {
        (1..inputs.len())
            .find(|&i| inputs[..i].contains(&inputs[i]))
            .map(|i| inputs[i])
    };
    if inputs.len() <= 64 {
        return first_repeat(inputs);
    }
    let mut sorted = inputs.to_vec();
    sorted.sort_unstable();
    if sorted.windows(2).all(|w| w[0] != w[1]) {
        return None;
    }
    first_repeat(inputs)
}

/// For every signal, the gates that read it, in gate order: a CSR built
/// by [`Netlist::fanout_index`].
#[derive(Clone, Debug)]
pub struct Fanout {
    /// Signal `s`'s readers are `readers[start[s]..start[s + 1]]`.
    start: Vec<u32>,
    readers: Vec<GateId>,
}

impl Fanout {
    /// The gates reading `s`, in ascending gate order.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn readers(&self, s: SignalId) -> &[GateId] {
        &self.readers[self.start[s.index()] as usize..self.start[s.index() + 1] as usize]
    }
}

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
/// nl.add_gate(GateKind::Xor, &[a, b], sum)?;
/// nl.add_gate(GateKind::And, &[a, b], carry)?;
/// nl.add_primary_output(sum)?;
/// nl.add_primary_output(carry)?;
/// nl.validate()?;
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Netlist {
    name: String,
    names: Names,
    drivers: Vec<Driver>,
    kinds: Vec<GateKind>,
    outputs: Vec<SignalId>,
    /// Gate `g`'s inputs are `pins[pin_start[g]..pin_start[g + 1]]`.
    pin_start: Vec<u32>,
    pins: Vec<SignalId>,
    /// Gate `g`'s cover rows, each ended by `\n`, are
    /// `covers[cover_start[g]..cover_start[g + 1]]` (empty unless a LUT).
    cover_start: Vec<u32>,
    covers: String,
    primary_inputs: Vec<SignalId>,
    primary_outputs: Vec<SignalId>,
}

impl Netlist {
    /// Creates an empty netlist with the given model name.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            names: Names::new(),
            drivers: Vec::new(),
            kinds: Vec::new(),
            outputs: Vec::new(),
            pin_start: vec![0],
            pins: Vec::new(),
            cover_start: vec![0],
            covers: String::new(),
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
    pub fn add_signal(&mut self, name: impl AsRef<str>) -> Result<SignalId, NetlistError> {
        let name = name.as_ref();
        match self.names.intern(name) {
            (id, true) => {
                self.drivers.push(Driver::None);
                Ok(id)
            }
            (_, false) => Err(NetlistError::DuplicateSignalName(name.to_string())),
        }
    }

    /// The signal named `name`, added undriven if there is none yet.
    pub(crate) fn intern(&mut self, name: &str) -> SignalId {
        let (id, fresh) = self.names.intern(name);
        if fresh {
            self.drivers.push(Driver::None);
        }
        id
    }

    /// Adds a signal driven by a primary input.
    ///
    /// # Errors
    ///
    /// Returns an error if the name is already taken.
    pub fn add_primary_input(&mut self, name: impl AsRef<str>) -> Result<SignalId, NetlistError> {
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

    /// Adds a gate driving `output` from `inputs`. A [`GateKind::Lut`]
    /// added here has no cover rows; see [`add_lut`](Self::add_lut).
    ///
    /// # Errors
    ///
    /// Returns an error if a signal is unknown, the output is already
    /// driven, the fan-in count is invalid for `kind`, or an input repeats.
    pub fn add_gate(
        &mut self,
        kind: GateKind,
        inputs: &[SignalId],
        output: SignalId,
    ) -> Result<GateId, NetlistError> {
        self.push_gate(kind, inputs, output, "")
    }

    /// Adds a [`GateKind::Lut`] driving `output` from `inputs`, with the
    /// BLIF `.names` cover rows `cover`, one per line (a missing final
    /// `\n` is supplied).
    ///
    /// # Errors
    ///
    /// As [`add_gate`](Self::add_gate).
    pub fn add_lut(
        &mut self,
        inputs: &[SignalId],
        output: SignalId,
        cover: &str,
    ) -> Result<GateId, NetlistError> {
        self.push_gate(GateKind::Lut, inputs, output, cover)
    }

    fn push_gate(
        &mut self,
        kind: GateKind,
        inputs: &[SignalId],
        output: SignalId,
        cover: &str,
    ) -> Result<GateId, NetlistError> {
        self.check_signal(output)?;
        for &i in inputs {
            self.check_signal(i)?;
        }
        let id = GateId(offset(self.kinds.len()));
        let (lo, hi) = kind.arity_range();
        if inputs.len() < lo || inputs.len() > hi {
            return Err(NetlistError::BadArity {
                gate: id,
                got: inputs.len(),
            });
        }
        if let Some(input) = repeated_input(inputs) {
            return Err(NetlistError::DuplicateInput {
                output: self.signal_name(output).to_string(),
                input: self.signal_name(input).to_string(),
            });
        }
        if self.drivers[output.index()] != Driver::None {
            let name = self.signal_name(output).to_string();
            return Err(NetlistError::SignalAlreadyDriven(name));
        }
        self.drivers[output.index()] = Driver::Gate(id);
        self.kinds.push(kind);
        self.outputs.push(output);
        self.pins.extend_from_slice(inputs);
        self.pin_start.push(offset(self.pins.len()));
        self.covers.push_str(cover);
        if !cover.is_empty() && !cover.ends_with('\n') {
            self.covers.push('\n');
        }
        self.cover_start.push(offset(self.covers.len()));
        Ok(id)
    }

    /// The gates in id order.
    pub fn gates(&self) -> impl ExactSizeIterator<Item = Gate<'_>> + '_ {
        (0..self.kinds.len()).map(move |g| self.gate(GateId(g as u32)))
    }

    /// The gate with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn gate(&self, id: GateId) -> Gate<'_> {
        let g = id.index();
        Gate {
            kind: self.kinds[g],
            inputs: &self.pins[self.pin_start[g] as usize..self.pin_start[g + 1] as usize],
            output: self.outputs[g],
        }
    }

    /// The cover rows of a [`GateKind::Lut`], each ended by `\n`; empty
    /// for every other kind.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn cover(&self, id: GateId) -> &str {
        let g = id.index();
        &self.covers[self.cover_start[g] as usize..self.cover_start[g + 1] as usize]
    }

    /// Number of signals.
    pub fn n_signals(&self) -> usize {
        self.names.len()
    }

    /// Number of gates (including DFFs).
    pub fn n_gates(&self) -> usize {
        self.kinds.len()
    }

    /// The name of a signal.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn signal_name(&self, s: SignalId) -> &str {
        self.names.get(s.index())
    }

    /// Looks a signal up by name.
    pub fn signal_by_name(&self, name: &str) -> Option<SignalId> {
        self.names.find(name)
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
        (0..self.kinds.len() as u32).map(GateId)
    }

    /// Iterates over signal ids in ascending order.
    pub fn signal_ids(&self) -> impl Iterator<Item = SignalId> {
        (0..self.names.len() as u32).map(SignalId)
    }

    /// Number of D flip-flops.
    pub fn n_dffs(&self) -> usize {
        self.kinds.iter().filter(|k| k.is_dff()).count()
    }

    /// Builds, for every signal, the list of gates reading it.
    pub fn fanout_index(&self) -> Fanout {
        let mut start = vec![0u32; self.n_signals() + 1];
        for s in &self.pins {
            start[s.index() + 1] += 1;
        }
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        let mut next = start.clone();
        let mut readers = vec![GateId(0); self.pins.len()];
        for (g, gate) in self.gate_ids().zip(self.gates()) {
            for s in gate.inputs {
                readers[next[s.index()] as usize] = g;
                next[s.index()] += 1;
            }
        }
        Fanout { start, readers }
    }

    /// Checks that every signal is driven and the combinational part is
    /// acyclic.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), NetlistError> {
        if let Some(s) = self.drivers.iter().position(|d| *d == Driver::None) {
            let name = self.names.get(s).to_string();
            return Err(NetlistError::UndrivenSignal(name));
        }
        crate::analysis::topo_order(self)?;
        Ok(())
    }

    fn check_signal(&self, s: SignalId) -> Result<(), NetlistError> {
        if s.index() >= self.names.len() {
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
        nl.add_gate(GateKind::Xor, &[a, b], s).unwrap();
        nl.add_gate(GateKind::And, &[a, b], c).unwrap();
        nl.add_primary_output(s).unwrap();
        nl.add_primary_output(c).unwrap();
        nl.validate().unwrap();
        assert_eq!(nl.n_gates(), 2);
        assert_eq!(nl.n_signals(), 4);
        assert_eq!(nl.n_dffs(), 0);
        assert_eq!(nl.driver(s), Driver::Gate(GateId(0)));
        assert_eq!(nl.signal_by_name("c"), Some(c));
        assert_eq!(nl.signal_name(a), "a");
        assert_eq!(nl.gate(GateId(1)).inputs, &[a, b]);
        assert_eq!(nl.cover(GateId(0)), "");
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

    /// The name table grows past many doublings and still finds every
    /// name, and no name it never saw.
    #[test]
    fn name_table_finds_every_name() {
        let mut nl = Netlist::new("t");
        let ids: Vec<SignalId> = (0..5_000)
            .map(|i| nl.add_signal(format!("n{i}")).unwrap())
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(id, SignalId(i as u32));
            assert_eq!(nl.signal_by_name(&format!("n{i}")), Some(id));
            assert_eq!(nl.signal_name(id), format!("n{i}"));
        }
        assert_eq!(nl.signal_by_name("n5000"), None);
        assert_eq!(nl.signal_by_name(""), None);
        assert_eq!(Netlist::new("empty").signal_by_name("n0"), None);
    }

    #[test]
    fn double_drive_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_primary_input("a").unwrap();
        let y = nl.add_signal("y").unwrap();
        nl.add_gate(GateKind::Buf, &[a], y).unwrap();
        assert_eq!(
            nl.add_gate(GateKind::Not, &[a], y),
            Err(NetlistError::SignalAlreadyDriven("y".into()))
        );
    }

    #[test]
    fn arity_checked() {
        let mut nl = Netlist::new("t");
        let a = nl.add_primary_input("a").unwrap();
        let y = nl.add_signal("y").unwrap();
        assert!(matches!(
            nl.add_gate(GateKind::And, &[a], y),
            Err(NetlistError::BadArity { got: 1, .. })
        ));
        assert!(matches!(
            nl.add_gate(GateKind::Not, &[a, a], y),
            Err(NetlistError::DuplicateInput { .. }) | Err(NetlistError::BadArity { .. })
        ));
    }

    #[test]
    fn duplicate_inputs_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_primary_input("a").unwrap();
        let y = nl.add_signal("y").unwrap();
        let err = nl.add_gate(GateKind::And, &[a, a], y).unwrap_err();
        assert_eq!(
            err,
            NetlistError::DuplicateInput {
                output: "y".into(),
                input: "a".into()
            }
        );
        assert_eq!(
            err.to_string(),
            r#"the gate driving "y" lists input "a" twice"#
        );
    }

    /// Past 64 pins the check sorts a copy, and still names the first
    /// repeat in pin order.
    #[test]
    fn duplicate_inputs_of_wide_gates_rejected() {
        let mut nl = Netlist::new("t");
        let ins: Vec<SignalId> = (0..100)
            .map(|i| nl.add_primary_input(format!("i{i}")).unwrap())
            .collect();
        let y = nl.add_signal("y").unwrap();
        let mut wide = ins.clone();
        wide.push(ins[70]);
        wide.push(ins[3]);
        assert_eq!(
            nl.add_gate(GateKind::Or, &wide, y),
            Err(NetlistError::DuplicateInput {
                output: "y".into(),
                input: "i70".into()
            })
        );
        assert_eq!(nl.add_gate(GateKind::Or, &ins, y), Ok(GateId(0)));
    }

    #[test]
    fn undriven_signal_detected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_primary_input("a").unwrap();
        let y = nl.add_signal("y").unwrap();
        nl.add_signal("z").unwrap();
        nl.add_gate(GateKind::Buf, &[a], y).unwrap();
        let err = nl.validate().unwrap_err();
        assert_eq!(err, NetlistError::UndrivenSignal("z".into()));
        assert_eq!(err.to_string(), r#"signal "z" has no driver"#);
    }

    #[test]
    fn dff_breaks_cycles() {
        // q = DFF(d); d = NOT(q) — legal (a toggle register).
        let mut nl = Netlist::new("t");
        let q = nl.add_signal("q").unwrap();
        let d = nl.add_signal("d").unwrap();
        nl.add_gate(GateKind::Dff, &[d], q).unwrap();
        nl.add_gate(GateKind::Not, &[q], d).unwrap();
        nl.validate().unwrap();
        assert_eq!(nl.n_dffs(), 1);
    }

    #[test]
    fn combinational_cycle_detected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_signal("a").unwrap();
        let b = nl.add_signal("b").unwrap();
        nl.add_gate(GateKind::Not, &[b], a).unwrap();
        nl.add_gate(GateKind::Not, &[a], b).unwrap();
        let err = nl.validate().unwrap_err();
        assert!(matches!(&err, NetlistError::CombinationalCycle(s) if s == "a" || s == "b"));
        assert!(err
            .to_string()
            .starts_with("combinational cycle through signal "));
    }

    /// The signal a cycle error names lies on the cycle, not on the logic
    /// it feeds or the logic feeding it.
    #[test]
    fn cycle_error_names_a_signal_on_the_cycle() {
        let mut nl = Netlist::new("t");
        let i = nl.add_primary_input("i").unwrap();
        let [head, x, y, tail] = ["head", "x", "y", "tail"].map(|n| nl.add_signal(n).unwrap());
        nl.add_gate(GateKind::Not, &[i], head).unwrap();
        nl.add_gate(GateKind::And, &[head, y], x).unwrap();
        nl.add_gate(GateKind::Not, &[x], y).unwrap();
        nl.add_gate(GateKind::Buf, &[y], tail).unwrap();
        let err = nl.validate().unwrap_err();
        assert!(
            matches!(&err, NetlistError::CombinationalCycle(s) if s == "x" || s == "y"),
            "{err}"
        );
    }

    #[test]
    fn fanout_index_lists_readers() {
        let mut nl = Netlist::new("t");
        let a = nl.add_primary_input("a").unwrap();
        let y = nl.add_signal("y").unwrap();
        let z = nl.add_signal("z").unwrap();
        let g1 = nl.add_gate(GateKind::Buf, &[a], y).unwrap();
        let g2 = nl.add_gate(GateKind::Not, &[a], z).unwrap();
        let w = nl.add_signal("w").unwrap();
        let g3 = nl.add_gate(GateKind::Xor, &[y, a], w).unwrap();
        let idx = nl.fanout_index();
        assert_eq!(idx.readers(a), &[g1, g2, g3]);
        assert_eq!(idx.readers(y), &[g3]);
        assert!(idx.readers(z).is_empty());
    }

    #[test]
    fn lut_covers_stay_with_their_gates() {
        let mut nl = Netlist::new("t");
        let a = nl.add_primary_input("a").unwrap();
        let b = nl.add_primary_input("b").unwrap();
        let [x, y, z] = ["x", "y", "z"].map(|n| nl.add_signal(n).unwrap());
        let gx = nl.add_lut(&[a, b], x, "11 1\n").unwrap();
        let gy = nl.add_gate(GateKind::Nand, &[a, b], y).unwrap();
        let gz = nl.add_lut(&[], z, "1").unwrap();
        assert_eq!(nl.gate(gx).kind, GateKind::Lut);
        assert_eq!(nl.cover(gx), "11 1\n");
        assert_eq!(nl.cover(gy), "");
        assert_eq!(nl.cover(gz), "1\n");
        let copy = nl.clone();
        assert!(copy.gates().eq(nl.gates()));
        assert_eq!(copy.cover(gz), "1\n");
    }
}
