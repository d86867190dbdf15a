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

/// Parses a BLIF-subset description into a [`Netlist`].
///
/// Supported directives: `.model`, `.inputs`, `.outputs`, `.names`
/// (cover rows become [`GateKind::Lut`]), `.latch` (becomes
/// [`GateKind::Dff`]; type/control/init fields are accepted and ignored)
/// and `.end`. `#` comments and `\` continuations are handled.
///
/// # Errors
///
/// Returns an error on malformed directives or structural violations
/// (multiple drivers, undefined outputs, combinational cycles).
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
    let mut nl = Netlist::new("top");
    let mut outputs: Vec<(usize, String)> = Vec::new();
    let mut pending: Option<(usize, Vec<String>, Vec<String>)> = None; // (.names line, tokens, cover)

    // Join continuation lines, remembering the first physical line number.
    let mut logical: Vec<(usize, String)> = Vec::new();
    let mut acc = String::new();
    let mut acc_line = 0usize;
    for (i, raw) in src.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim_end();
        if acc.is_empty() {
            acc_line = i + 1;
        }
        if let Some(stripped) = line.strip_suffix('\\') {
            acc.push_str(stripped);
            acc.push(' ');
            continue;
        }
        acc.push_str(line);
        if !acc.trim().is_empty() {
            logical.push((acc_line, std::mem::take(&mut acc)));
        } else {
            acc.clear();
        }
    }

    let flush_names = |nl: &mut Netlist,
                       pend: &mut Option<(usize, Vec<String>, Vec<String>)>|
     -> Result<(), ParseBlifError> {
        if let Some((line, tokens, cover)) = pend.take() {
            let (ins, out) = tokens.split_at(tokens.len() - 1);
            let inputs: Vec<SignalId> = ins
                .iter()
                .map(|n| intern(nl, n))
                .collect::<Result<_, _>>()
                .map_err(|source| ParseBlifError::Netlist { line, source })?;
            let out_sig =
                intern(nl, &out[0]).map_err(|source| ParseBlifError::Netlist { line, source })?;
            nl.add_gate(
                format!("names_{}", out[0]),
                GateKind::Lut { cover },
                inputs,
                out_sig,
            )
            .map_err(|source| ParseBlifError::Netlist { line, source })?;
        }
        Ok(())
    };

    for (line, text) in logical {
        let text = text.trim();
        if text.starts_with('.') {
            flush_names(&mut nl, &mut pending)?;
        }
        let mut tok = text.split_whitespace();
        let head = tok.next().unwrap_or("");
        match head {
            ".model" => {
                let name = tok.next().unwrap_or("top");
                let mut renamed = Netlist::new(name);
                std::mem::swap(&mut renamed, &mut nl);
                // Keep any content accumulated before `.model` (none in
                // well-formed files).
                if renamed.n_signals() > 0 {
                    return Err(ParseBlifError::Malformed {
                        line,
                        what: ".model after content".into(),
                    });
                }
            }
            ".inputs" => {
                for name in tok {
                    nl.add_primary_input(name)
                        .map_err(|source| ParseBlifError::Netlist { line, source })?;
                }
            }
            ".outputs" => {
                for name in tok {
                    outputs.push((line, name.to_string()));
                }
            }
            ".names" => {
                let tokens: Vec<String> = tok.map(str::to_string).collect();
                if tokens.is_empty() {
                    return Err(ParseBlifError::Malformed {
                        line,
                        what: ".names needs at least an output".into(),
                    });
                }
                pending = Some((line, tokens, Vec::new()));
            }
            ".latch" => {
                let d = tok.next();
                let q = tok.next();
                let (Some(d), Some(q)) = (d, q) else {
                    return Err(ParseBlifError::Malformed {
                        line,
                        what: ".latch needs input and output".into(),
                    });
                };
                let d_sig = intern(&mut nl, d)
                    .map_err(|source| ParseBlifError::Netlist { line, source })?;
                let q_sig = intern(&mut nl, q)
                    .map_err(|source| ParseBlifError::Netlist { line, source })?;
                nl.add_gate(format!("latch_{q}"), GateKind::Dff, vec![d_sig], q_sig)
                    .map_err(|source| ParseBlifError::Netlist { line, source })?;
            }
            ".end" => break,
            _ if head.starts_with('.') => {
                return Err(ParseBlifError::Malformed {
                    line,
                    what: format!("unsupported directive {head}"),
                });
            }
            _ => {
                // A cover row of the pending `.names`.
                match &mut pending {
                    Some((_, _, cover)) => cover.push(text.to_string()),
                    None => {
                        return Err(ParseBlifError::Malformed {
                            line,
                            what: "cover row outside .names".into(),
                        })
                    }
                }
            }
        }
    }
    flush_names(&mut nl, &mut pending)?;

    for (line, name) in outputs {
        let sig = nl
            .signal_by_name(&name)
            .ok_or_else(|| ParseBlifError::UnknownOutput {
                line,
                name: name.clone(),
            })?;
        nl.add_primary_output(sig)
            .map_err(|source| ParseBlifError::Netlist { line, source })?;
    }
    Ok(nl)
}

fn intern(nl: &mut Netlist, name: &str) -> Result<SignalId, NetlistError> {
    match nl.signal_by_name(name) {
        Some(s) => Ok(s),
        None => nl.add_signal(name),
    }
}

/// Serialises a [`Netlist`] as BLIF text that [`parse_blif`] round-trips.
///
/// Primitive gates are emitted as `.names` with the canonical sum-of-
/// products cover for their function; DFFs become `.latch` lines.
pub fn write_blif(nl: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(out, ".model {}", nl.name());
    if !nl.primary_inputs().is_empty() {
        let names: Vec<&str> = nl
            .primary_inputs()
            .iter()
            .map(|&s| nl.signal_name(s))
            .collect();
        let _ = writeln!(out, ".inputs {}", names.join(" "));
    }
    if !nl.primary_outputs().is_empty() {
        let names: Vec<&str> = nl
            .primary_outputs()
            .iter()
            .map(|&s| nl.signal_name(s))
            .collect();
        let _ = writeln!(out, ".outputs {}", names.join(" "));
    }
    for g in nl.gates() {
        if g.kind.is_dff() {
            let _ = writeln!(
                out,
                ".latch {} {} re clk 0",
                nl.signal_name(g.inputs[0]),
                nl.signal_name(g.output)
            );
            continue;
        }
        let mut names: Vec<&str> = g.inputs.iter().map(|&s| nl.signal_name(s)).collect();
        names.push(nl.signal_name(g.output));
        let _ = writeln!(out, ".names {}", names.join(" "));
        for row in cover_rows(&g.kind, g.inputs.len()) {
            let _ = writeln!(out, "{row}");
        }
    }
    out.push_str(".end\n");
    out
}

/// The canonical sum-of-products cover rows for a primitive gate.
fn cover_rows(kind: &GateKind, n: usize) -> Vec<String> {
    match kind {
        GateKind::Buf => vec!["1 1".into()],
        GateKind::Not => vec!["0 1".into()],
        GateKind::And => vec![format!("{} 1", "1".repeat(n))],
        GateKind::Nor => vec![format!("{} 1", "0".repeat(n))],
        GateKind::Or => (0..n)
            .map(|i| {
                let mut row = vec!['-'; n];
                row[i] = '1';
                format!("{} 1", row.iter().collect::<String>())
            })
            .collect(),
        GateKind::Nand => (0..n)
            .map(|i| {
                let mut row = vec!['-'; n];
                row[i] = '0';
                format!("{} 1", row.iter().collect::<String>())
            })
            .collect(),
        GateKind::Xor => vec!["01 1".into(), "10 1".into()],
        GateKind::Xnor => vec!["00 1".into(), "11 1".into()],
        GateKind::Lut { cover } => cover.clone(),
        GateKind::Dff => unreachable!("DFFs are written as .latch"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GateKind;

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
        nl.add_gate("g0", GateKind::Nand, vec![a, b], w).unwrap();
        nl.add_gate("g1", GateKind::Xor, vec![w, b], x).unwrap();
        nl.add_gate("ff", GateKind::Dff, vec![x], q).unwrap();
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
                let rows = cover_rows(&kind, n);
                for combo in 0..1u32 << n {
                    let x: Vec<bool> = (0..n).map(|i| combo >> i & 1 == 1).collect();
                    let on = rows.iter().any(|row| {
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
        assert!(matches!(nl.gates()[0].kind, GateKind::Lut { .. }));
    }
}
