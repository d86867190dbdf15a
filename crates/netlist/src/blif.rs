//! Reader and writer for a subset of the Berkeley Logic Interchange
//! Format (BLIF): `.model`, `.inputs`, `.outputs`, `.names` (with cover
//! rows), `.latch` and `.end`, with `\` line continuation.

use crate::model::{GateKind, Netlist, NetlistError, SignalId};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// An error raised while parsing BLIF text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseBlifError {
    /// A directive had the wrong number of arguments.
    Malformed {
        /// 1-based source line.
        line: usize,
        /// What went wrong.
        what: String,
    },
    /// The netlist violated a structural invariant while being built.
    Netlist {
        /// 1-based source line.
        line: usize,
        /// The underlying netlist error.
        source: NetlistError,
    },
    /// An `.outputs` signal was never defined.
    UnknownOutput {
        /// 1-based source line of the `.outputs` directive naming it.
        line: usize,
        /// The undefined signal name.
        name: String,
    },
}

impl fmt::Display for ParseBlifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseBlifError::Malformed { line, what } => {
                write!(f, "line {line}: malformed directive: {what}")
            }
            ParseBlifError::Netlist { line, source } => write!(f, "line {line}: {source}"),
            ParseBlifError::UnknownOutput { line, name } => {
                write!(f, "line {line}: unknown output signal {name:?}")
            }
        }
    }
}

impl Error for ParseBlifError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseBlifError::Netlist { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl ParseBlifError {
    /// The 1-based source line the error is reported at: the first
    /// physical line of the offending directive.
    pub fn line(&self) -> usize {
        match self {
            ParseBlifError::Malformed { line, .. }
            | ParseBlifError::Netlist { line, .. }
            | ParseBlifError::UnknownOutput { line, .. } => *line,
        }
    }
}

/// Parses a BLIF-subset description into a [`Netlist`].
///
/// Supported directives: `.model`, `.inputs`, `.outputs`, `.names`
/// (cover rows become [`GateKind::Lut`]), `.latch` (becomes
/// [`GateKind::Dff`]; type/control/init fields are accepted and ignored)
/// and `.end`. `#` comments and `\` continuations are handled.
///
/// Signals are numbered in order of first mention (a `.names` line's
/// inputs, then its output), except that `.outputs` names are resolved
/// at the end. The reader fills the netlist's arenas straight from the
/// text: only a continued line is copied, into one reused buffer.
///
/// # Errors
///
/// Returns an error on malformed directives or structural violations
/// (multiple drivers, repeated inputs, undefined outputs). Every error
/// names a line of `src` ([`ParseBlifError::line`]).
///
/// # Examples
///
/// ```
/// let src = "\
/// .model toy
/// .inputs a b
/// .outputs y
/// .names a b y
/// 11 1
/// .end
/// ";
/// let nl = netpart_netlist::parse_blif(src)?;
/// assert_eq!(nl.name(), "toy");
/// assert_eq!(nl.n_gates(), 1);
/// # Ok::<(), netpart_netlist::ParseBlifError>(())
/// ```
pub fn parse_blif(src: &str) -> Result<Netlist, ParseBlifError> {
    let mut reader = Reader::new();
    // A logical line is numbered by its first physical line; continued
    // lines are joined, a space apart, in `joined`.
    let mut joined = String::new();
    let mut joined_line = 0;
    for (i, raw) in src.lines().enumerate() {
        let line = raw.find('#').map_or(raw, |at| &raw[..at]).trim_end();
        if let Some(head) = line.strip_suffix('\\') {
            if joined.is_empty() {
                joined_line = i + 1;
            }
            joined.push_str(head);
            joined.push(' ');
            continue;
        }
        let (number, text) = if joined.is_empty() {
            (i + 1, line)
        } else {
            joined.push_str(line);
            (joined_line, joined.as_str())
        };
        let text = text.trim();
        if !text.is_empty() && reader.line(number, text)? == Step::End {
            break;
        }
        joined.clear();
    }
    reader.finish()
}

/// Whether the reader goes on after a line.
#[derive(PartialEq)]
enum Step {
    Next,
    End,
}

/// The netlist being read, and what a directive leaves for a later line.
struct Reader {
    nl: Netlist,
    /// The open `.names`: its line and output. Its inputs are `pins` and
    /// its cover rows so far `rows`; the gate is added at the next
    /// directive, so its errors name the `.names` line.
    names: Option<(usize, SignalId)>,
    pins: Vec<SignalId>,
    rows: String,
    /// The `.outputs` names, back to back, each with its directive's line
    /// and its end in `output_text`: they are resolved once every signal
    /// is known.
    output_text: String,
    outputs: Vec<(usize, usize)>,
}

impl Reader {
    fn new() -> Self {
        Reader {
            nl: Netlist::new("top"),
            names: None,
            pins: Vec::new(),
            rows: String::new(),
            output_text: String::new(),
            outputs: Vec::new(),
        }
    }

    /// Reads one non-empty logical line, trimmed.
    fn line(&mut self, line: usize, text: &str) -> Result<Step, ParseBlifError> {
        if text.starts_with('.') {
            self.close_names()?;
        }
        let malformed = |what: &str| ParseBlifError::Malformed {
            line,
            what: what.to_string(),
        };
        let netlist = |source| ParseBlifError::Netlist { line, source };
        let mut tok = text.split_whitespace();
        let head = tok.next().unwrap_or("");
        match head {
            ".model" => {
                if self.nl.n_signals() > 0 {
                    return Err(malformed(".model after content"));
                }
                self.nl.set_name(tok.next().unwrap_or("top"));
            }
            ".inputs" => {
                for name in tok {
                    self.nl.add_primary_input(name).map_err(netlist)?;
                }
            }
            ".outputs" => {
                for name in tok {
                    self.output_text.push_str(name);
                    self.outputs.push((line, self.output_text.len()));
                }
            }
            ".names" => {
                self.pins.clear();
                self.pins.extend(tok.map(|name| self.nl.intern(name)));
                let Some(output) = self.pins.pop() else {
                    return Err(malformed(".names needs at least an output"));
                };
                self.names = Some((line, output));
                self.rows.clear();
            }
            ".latch" => {
                let (Some(d), Some(q)) = (tok.next(), tok.next()) else {
                    return Err(malformed(".latch needs input and output"));
                };
                let d = self.nl.intern(d);
                let q = self.nl.intern(q);
                self.nl.add_gate(GateKind::Dff, &[d], q).map_err(netlist)?;
            }
            ".end" => return Ok(Step::End),
            _ if head.starts_with('.') => {
                return Err(malformed(&format!("unsupported directive {head}")));
            }
            _ if self.names.is_some() => {
                self.rows.push_str(text);
                self.rows.push('\n');
            }
            _ => return Err(malformed("cover row outside .names")),
        }
        Ok(Step::Next)
    }

    /// Adds the open `.names` gate, if any.
    fn close_names(&mut self) -> Result<(), ParseBlifError> {
        if let Some((line, output)) = self.names.take() {
            self.nl
                .add_lut(&self.pins, output, &self.rows)
                .map_err(|source| ParseBlifError::Netlist { line, source })?;
        }
        Ok(())
    }

    fn finish(mut self) -> Result<Netlist, ParseBlifError> {
        self.close_names()?;
        let mut start = 0;
        for &(line, end) in &self.outputs {
            let name = &self.output_text[start..end];
            start = end;
            let sig =
                self.nl
                    .signal_by_name(name)
                    .ok_or_else(|| ParseBlifError::UnknownOutput {
                        line,
                        name: name.to_string(),
                    })?;
            self.nl
                .add_primary_output(sig)
                .map_err(|source| ParseBlifError::Netlist { line, source })?;
        }
        Ok(self.nl)
    }
}

/// Serialises a [`Netlist`] as BLIF text that [`parse_blif`] round-trips.
///
/// Primitive gates are emitted as `.names` with the canonical sum-of-
/// products cover for their function; LUTs with their own cover rows;
/// DFFs become `.latch` lines.
pub fn write_blif(nl: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(out, ".model {}", nl.name());
    if !nl.primary_inputs().is_empty() {
        push_names(&mut out, nl, ".inputs", nl.primary_inputs().iter().copied());
    }
    if !nl.primary_outputs().is_empty() {
        push_names(
            &mut out,
            nl,
            ".outputs",
            nl.primary_outputs().iter().copied(),
        );
    }
    for (id, g) in nl.gate_ids().zip(nl.gates()) {
        if g.kind.is_dff() {
            let _ = writeln!(
                out,
                ".latch {} {} re clk 0",
                nl.signal_name(g.inputs[0]),
                nl.signal_name(g.output)
            );
            continue;
        }
        let pins = g.inputs.iter().copied().chain([g.output]);
        push_names(&mut out, nl, ".names", pins);
        match g.kind {
            GateKind::Lut => out.push_str(nl.cover(id)),
            kind => push_cover_rows(&mut out, kind, g.inputs.len()),
        }
    }
    out.push_str(".end\n");
    out
}

/// Appends the line `head`, then the names of `signals`, a space apart.
fn push_names(
    out: &mut String,
    nl: &Netlist,
    head: &str,
    signals: impl IntoIterator<Item = SignalId>,
) {
    out.push_str(head);
    for s in signals {
        out.push(' ');
        out.push_str(nl.signal_name(s));
    }
    out.push('\n');
}

/// Appends the canonical sum-of-products cover rows of a primitive gate
/// with `n` inputs, each ended by `\n`. A LUT keeps its own rows, and a
/// DFF is written as `.latch`: neither has any here.
fn push_cover_rows(out: &mut String, kind: GateKind, n: usize) {
    match kind {
        GateKind::Buf => out.push_str("1 1\n"),
        GateKind::Not => out.push_str("0 1\n"),
        GateKind::Xor => out.push_str("01 1\n10 1\n"),
        GateKind::Xnor => out.push_str("00 1\n11 1\n"),
        // One row: every input 1 (AND) or every input 0 (NOR).
        GateKind::And | GateKind::Nor => {
            let bit = if kind == GateKind::And { '1' } else { '0' };
            out.extend(std::iter::repeat_n(bit, n));
            out.push_str(" 1\n");
        }
        // One row per input, the rest don't-care: input i is 1 (OR) or
        // 0 (NAND).
        GateKind::Or | GateKind::Nand => {
            let bit = if kind == GateKind::Or { '1' } else { '0' };
            for i in 0..n {
                out.extend((0..n).map(|j| if j == i { bit } else { '-' }));
                out.push_str(" 1\n");
            }
        }
        GateKind::Lut | GateKind::Dff => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GateId;

    #[test]
    fn parse_simple_model() {
        let src = "\
# a comment
.model demo
.inputs a b \\
c
.outputs y q
.names a b w
11 1
.names w c y
1- 1
-1 1
.latch y q re clk 0
.end
";
        let nl = parse_blif(src).unwrap();
        assert_eq!(nl.name(), "demo");
        assert_eq!(nl.primary_inputs().len(), 3);
        assert_eq!(nl.primary_outputs().len(), 2);
        assert_eq!(nl.n_gates(), 3);
        assert_eq!(nl.n_dffs(), 1);
        nl.validate().unwrap();
    }

    #[test]
    fn roundtrip_primitive_gates() {
        let mut nl = Netlist::new("rt");
        let a = nl.add_primary_input("a").unwrap();
        let b = nl.add_primary_input("b").unwrap();
        let w = nl.add_signal("w").unwrap();
        let x = nl.add_signal("x").unwrap();
        let q = nl.add_signal("q").unwrap();
        nl.add_gate(GateKind::Nand, &[a, b], w).unwrap();
        nl.add_gate(GateKind::Xor, &[w, b], x).unwrap();
        nl.add_gate(GateKind::Dff, &[x], q).unwrap();
        nl.add_primary_output(q).unwrap();
        let text = write_blif(&nl);
        let back = parse_blif(&text).unwrap();
        assert_eq!(back.n_gates(), 3);
        assert_eq!(back.n_dffs(), 1);
        assert_eq!(back.primary_inputs().len(), 2);
        assert_eq!(back.primary_outputs().len(), 1);
        back.validate().unwrap();
        // Second round trip is a fixpoint.
        assert_eq!(write_blif(&back), write_blif(&parse_blif(&text).unwrap()));
    }

    /// Every cover `write_blif` emits computes its gate: on each input
    /// combination, some row matches iff the gate outputs 1.
    #[test]
    fn cover_rows_compute_their_gates() {
        type Eval = fn(&[bool]) -> bool;
        let kinds: [(GateKind, Eval); 8] = [
            (GateKind::Buf, |x| x[0]),
            (GateKind::Not, |x| !x[0]),
            (GateKind::And, |x| x.iter().all(|&b| b)),
            (GateKind::Nand, |x| !x.iter().all(|&b| b)),
            (GateKind::Or, |x| x.iter().any(|&b| b)),
            (GateKind::Nor, |x| !x.iter().any(|&b| b)),
            (GateKind::Xor, |x| x[0] ^ x[1]),
            (GateKind::Xnor, |x| x[0] == x[1]),
        ];
        for (kind, eval) in kinds {
            let arities = match kind {
                GateKind::Buf | GateKind::Not => 1..=1,
                GateKind::Xor | GateKind::Xnor => 2..=2,
                _ => 1..=9,
            };
            for n in arities {
                let mut rows = String::new();
                push_cover_rows(&mut rows, kind, n);
                for combo in 0..1u32 << n {
                    let x: Vec<bool> = (0..n).map(|i| combo >> i & 1 == 1).collect();
                    let on = rows.lines().any(|row| {
                        let (pattern, value) = row.split_once(' ').expect("pattern and value");
                        assert_eq!((pattern.len(), value), (n, "1"), "{kind:?}/{n}");
                        pattern.chars().zip(&x).all(|(c, &b)| match c {
                            '0' => !b,
                            '1' => b,
                            _ => true,
                        })
                    });
                    assert_eq!(on, eval(&x), "{kind:?}/{n} on {x:?}");
                }
            }
        }
    }

    #[test]
    fn unknown_output_rejected() {
        let src = ".model t\n.inputs a\n.outputs zz\n.end\n";
        assert_eq!(
            parse_blif(src).unwrap_err(),
            ParseBlifError::UnknownOutput {
                line: 3,
                name: "zz".into()
            }
        );
    }

    #[test]
    fn duplicate_input_signal_reported_with_line() {
        let src = ".model t\n.inputs a\n.inputs a\n.end\n";
        match parse_blif(src).unwrap_err() {
            ParseBlifError::Netlist { line, source } => {
                assert_eq!(line, 3);
                assert!(matches!(source, NetlistError::DuplicateSignalName(_)));
            }
            e => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn empty_names_rejected_with_line() {
        let src = ".model t\n.inputs a\n.names\n.end\n";
        assert!(matches!(
            parse_blif(src).unwrap_err(),
            ParseBlifError::Malformed { line: 3, .. }
        ));
    }

    #[test]
    fn truncated_latch_rejected_with_line() {
        let src = ".model t\n.inputs d\n.latch d\n.end\n";
        assert!(matches!(
            parse_blif(src).unwrap_err(),
            ParseBlifError::Malformed { line: 3, .. }
        ));
    }

    #[test]
    fn dangling_names_output_feeding_nothing_still_parses() {
        // A `.names` whose output drives nothing is legal BLIF; only
        // undriven `.outputs` are an error.
        let src = ".model t\n.inputs a\n.outputs y\n.names a y\n1 1\n.names a w\n0 1\n.end\n";
        let nl = parse_blif(src).unwrap();
        assert_eq!(nl.n_gates(), 2);
        nl.validate().unwrap();
    }

    #[test]
    fn unsupported_directive_rejected() {
        let src = ".model t\n.gate and2 A=a B=b O=y\n.end\n";
        assert!(matches!(
            parse_blif(src).unwrap_err(),
            ParseBlifError::Malformed { line: 2, .. }
        ));
    }

    #[test]
    fn stray_cover_row_rejected() {
        let src = ".model t\n11 1\n.end\n";
        assert!(matches!(
            parse_blif(src).unwrap_err(),
            ParseBlifError::Malformed { .. }
        ));
    }

    #[test]
    fn double_driver_reported_with_line() {
        let src = ".model t\n.inputs a\n.names a y\n1 1\n.names a y\n0 1\n.end\n";
        match parse_blif(src).unwrap_err() {
            ParseBlifError::Netlist { line, source } => {
                assert_eq!(line, 5);
                assert!(matches!(source, NetlistError::SignalAlreadyDriven(_)));
            }
            e => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn constant_names_allowed() {
        let src = ".model t\n.outputs k\n.names k\n1\n.end\n";
        let nl = parse_blif(src).unwrap();
        assert_eq!(nl.n_gates(), 1);
        assert_eq!(nl.gate(GateId(0)).kind, GateKind::Lut);
        assert_eq!(nl.cover(GateId(0)), "1\n");
    }

    /// A continued line is one directive, numbered by its first physical
    /// line; a comment ends a line before its `\\`; and cover rows are
    /// kept trimmed, in order, with their gate.
    #[test]
    fn continuations_join_and_keep_their_first_line() {
        let src = "\
.model t
.inputs a \\
  b # trailing comment
.outputs y \\ # a comment
z
.names a \\
b y
 1- 1\t
-1 1
.names b a \\
  y
11 1
.end
";
        let err = parse_blif(src).unwrap_err();
        assert_eq!(err.line(), 10);
        assert_eq!(err.to_string(), r#"line 10: signal "y" already driven"#);
        let ok = src.replace("b a \\\n  y", "b a \\\n  z");
        let nl = parse_blif(&ok).unwrap();
        let [a, b, y, z] = ["a", "b", "y", "z"].map(|n| nl.signal_by_name(n).unwrap());
        assert_eq!(
            (a, b, y, z),
            (SignalId(0), SignalId(1), SignalId(2), SignalId(3))
        );
        assert_eq!(nl.primary_outputs(), &[y, z]);
        assert_eq!(nl.gate(GateId(0)).inputs, &[a, b]);
        assert_eq!(nl.cover(GateId(0)), "1- 1\n-1 1\n");
        assert_eq!(nl.gate(GateId(1)).inputs, &[b, a]);
        assert_eq!(nl.cover(GateId(1)), "11 1\n");
    }

    /// Structural errors name the BLIF signals, at the `.names` line.
    #[test]
    fn structural_errors_name_signals() {
        let src = ".model t\n.inputs a\n.outputs y\n.names a a y\n11 1\n.end\n";
        let err = parse_blif(src).unwrap_err();
        assert_eq!(
            err.to_string(),
            r#"line 4: the gate driving "y" lists input "a" twice"#
        );
        assert_eq!(err.line(), 4);
        let src = ".model t\n.inputs a\n.names a a\n1 1\n";
        assert_eq!(
            parse_blif(src).unwrap_err(),
            ParseBlifError::Netlist {
                line: 3,
                source: NetlistError::SignalAlreadyDriven("a".into())
            }
        );
    }

    /// A trailing continuation with nothing after it is dropped, and a
    /// line after `.end` is never read.
    #[test]
    fn text_after_the_last_directive_is_ignored() {
        let src = ".model t\n.inputs a\n.outputs a\n.end\n.gate x\n";
        assert_eq!(parse_blif(src).unwrap().primary_outputs().len(), 1);
        let src = ".model t\n.inputs a\n.outputs a\n.names \\";
        assert_eq!(parse_blif(src).unwrap().n_gates(), 0);
    }
}
