//! The independent re-evaluator: recomputes every certificate claim
//! from the hypergraph and the §II adjacency vectors alone.
//!
//! Nothing here calls the optimizer or the [`Placement`] evaluators —
//! connectivity, cut, areas, `t_Pj`, feasibility windows, `$_k` and
//! `k̄` are all re-derived from first principles, so a clean report is
//! evidence against both the incremental engine bookkeeping *and* the
//! data-model evaluators the producer used for its claims.
//!
//! [`Placement`]: netpart_hypergraph::Placement

use std::fmt;

use netpart_hypergraph::{Hypergraph, Pin};

use crate::certificate::{CellCopySpec, CertKind, SolutionCertificate};

/// One discrepancy between a certificate and the verifier's own
/// re-evaluation.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// The certificate is for a different circuit.
    CircuitMismatch {
        /// Which identity field disagreed (`cells`, `nets`, `area`, `digest`).
        field: &'static str,
        /// Value recorded in the certificate.
        claimed: u64,
        /// Value recomputed from the circuit.
        actual: u64,
    },
    /// A `cell` line names an id outside the circuit.
    UnknownCell {
        /// The offending cell id.
        cell: u32,
    },
    /// The same cell id appears on more than one `cell` line.
    DuplicateCell {
        /// The duplicated cell id.
        cell: u32,
    },
    /// A circuit cell has no `cell` line (or an empty copy list).
    MissingCell {
        /// The unplaced cell id.
        cell: u32,
    },
    /// A copy names a part outside `parts`.
    PartOutOfRange {
        /// The cell whose copy is misplaced.
        cell: u32,
        /// The out-of-range part.
        part: u16,
    },
    /// A replicated copy keeps no outputs.
    EmptyCopy {
        /// The cell with the empty copy.
        cell: u32,
    },
    /// The copies' output masks overlap or fail to cover every output.
    OutputsNotPartitioned {
        /// The offending cell.
        cell: u32,
    },
    /// A terminal (pad) is replicated.
    ReplicatedTerminal {
        /// The replicated pad.
        cell: u32,
    },
    /// A claimed cut net id is outside the circuit.
    PhantomNet {
        /// The offending net id.
        net: u32,
    },
    /// A net claimed cut is not cut.
    CutNetNotCut {
        /// The net.
        net: u32,
    },
    /// A cut net is missing from the claimed cut list.
    CutNetMissing {
        /// The net.
        net: u32,
    },
    /// A part's claimed CLB count disagrees with the recomputation.
    PartClbMismatch {
        /// The part.
        part: usize,
        /// Claimed CLBs.
        claimed: u64,
        /// Recomputed CLBs.
        actual: u64,
    },
    /// A part's claimed `t_Pj` disagrees with the recomputation.
    PartTerminalMismatch {
        /// The part.
        part: usize,
        /// Claimed terminals.
        claimed: u64,
        /// Recomputed terminals.
        actual: u64,
    },
    /// A part's device index is outside the embedded library.
    DeviceOutOfRange {
        /// The part.
        part: usize,
        /// The out-of-range library index.
        device: usize,
    },
    /// A non-empty k-way part has no device assignment at all.
    MissingDevice {
        /// The part.
        part: usize,
    },
    /// A part violates its device's feasibility window.
    InfeasiblePart {
        /// The part.
        part: usize,
        /// The device's library index.
        device: usize,
        /// Recomputed CLBs on the part.
        clbs: u64,
        /// Recomputed terminals on the part.
        terminals: u64,
        /// Which bound broke, e.g. `clbs 3 < floor 38`.
        why: String,
    },
    /// The claimed `$_k` disagrees with the recomputation.
    CostMismatch {
        /// Claimed cost.
        claimed: u64,
        /// Recomputed cost.
        actual: u64,
    },
    /// The claimed `k̄` disagrees (bit-exact comparison).
    KbarMismatch {
        /// Claimed value.
        claimed: f64,
        /// Recomputed value.
        actual: f64,
    },
    /// The claimed overall feasibility flag disagrees.
    FeasibilityMismatch {
        /// Claimed flag.
        claimed: bool,
        /// Recomputed flag.
        actual: bool,
    },
    /// A non-empty part has no device site on the embedded board.
    BoardSiteOverflow {
        /// The part with no backing site.
        part: usize,
        /// Number of sites on the embedded board.
        sites: usize,
    },
    /// An embedded channel endpoint is outside the board's sites.
    ChannelEndpointOutOfRange {
        /// The channel index.
        channel: u32,
        /// The out-of-range site index.
        site: u32,
        /// Number of sites on the embedded board.
        sites: usize,
    },
    /// A cut net has no route line.
    RouteMissing {
        /// The unrouted cut net.
        net: u32,
    },
    /// A route line covers a net that is not cut (or repeats a net).
    RouteExtraneous {
        /// The net.
        net: u32,
    },
    /// A route references a channel outside the embedded board.
    PhantomChannel {
        /// The net whose route is broken.
        net: u32,
        /// The nonexistent channel index.
        channel: u32,
    },
    /// A route lists the same channel twice.
    RouteDuplicateChannel {
        /// The net.
        net: u32,
        /// The repeated channel index.
        channel: u32,
    },
    /// A route's channels do not connect all sites the net touches.
    RouteDisconnected {
        /// The net.
        net: u32,
    },
    /// The claimed total hop cost disagrees with the recomputation.
    HopsMismatch {
        /// Claimed hops.
        claimed: u64,
        /// Recomputed hops.
        actual: u64,
    },
    /// The claimed channel congestion disagrees with the recomputation.
    CongestionMismatch {
        /// Claimed congestion.
        claimed: u64,
        /// Recomputed congestion.
        actual: u64,
    },
}

impl Violation {
    /// A short stable code naming the violation class.
    pub fn code(&self) -> &'static str {
        match self {
            Violation::CircuitMismatch { .. } => "circuit-mismatch",
            Violation::UnknownCell { .. } => "unknown-cell",
            Violation::DuplicateCell { .. } => "duplicate-cell",
            Violation::MissingCell { .. } => "missing-cell",
            Violation::PartOutOfRange { .. } => "part-out-of-range",
            Violation::EmptyCopy { .. } => "empty-copy",
            Violation::OutputsNotPartitioned { .. } => "outputs-not-partitioned",
            Violation::ReplicatedTerminal { .. } => "replicated-terminal",
            Violation::PhantomNet { .. } => "phantom-net",
            Violation::CutNetNotCut { .. } => "cut-net-not-cut",
            Violation::CutNetMissing { .. } => "cut-net-missing",
            Violation::PartClbMismatch { .. } => "part-clb-mismatch",
            Violation::PartTerminalMismatch { .. } => "part-terminal-mismatch",
            Violation::DeviceOutOfRange { .. } => "device-out-of-range",
            Violation::MissingDevice { .. } => "missing-device",
            Violation::InfeasiblePart { .. } => "infeasible-part",
            Violation::CostMismatch { .. } => "cost-mismatch",
            Violation::KbarMismatch { .. } => "kbar-mismatch",
            Violation::FeasibilityMismatch { .. } => "feasibility-mismatch",
            Violation::BoardSiteOverflow { .. } => "board-site-overflow",
            Violation::ChannelEndpointOutOfRange { .. } => "channel-endpoint-out-of-range",
            Violation::RouteMissing { .. } => "route-missing",
            Violation::RouteExtraneous { .. } => "route-extraneous",
            Violation::PhantomChannel { .. } => "route-phantom-channel",
            Violation::RouteDuplicateChannel { .. } => "route-duplicate-channel",
            Violation::RouteDisconnected { .. } => "route-disconnected",
            Violation::HopsMismatch { .. } => "hops-mismatch",
            Violation::CongestionMismatch { .. } => "congestion-mismatch",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::CircuitMismatch {
                field,
                claimed,
                actual,
            } => write!(
                f,
                "certificate is for a different circuit: {field} {claimed} vs {actual}"
            ),
            Violation::UnknownCell { cell } => write!(f, "cell c{cell} is not in the circuit"),
            Violation::DuplicateCell { cell } => write!(f, "cell c{cell} is listed twice"),
            Violation::MissingCell { cell } => write!(f, "cell c{cell} has no placement"),
            Violation::PartOutOfRange { cell, part } => {
                write!(f, "cell c{cell} placed on nonexistent part P{part}")
            }
            Violation::EmptyCopy { cell } => {
                write!(f, "a replica of cell c{cell} keeps no outputs")
            }
            Violation::OutputsNotPartitioned { cell } => write!(
                f,
                "the copies of cell c{cell} do not partition its outputs"
            ),
            Violation::ReplicatedTerminal { cell } => {
                write!(f, "terminal c{cell} is replicated")
            }
            Violation::PhantomNet { net } => {
                write!(f, "claimed cut net n{net} is not in the circuit")
            }
            Violation::CutNetNotCut { net } => {
                write!(f, "net n{net} is claimed cut but spans one part")
            }
            Violation::CutNetMissing { net } => {
                write!(f, "net n{net} is cut but missing from the claimed cut set")
            }
            Violation::PartClbMismatch {
                part,
                claimed,
                actual,
            } => write!(f, "part P{part}: claimed {claimed} CLBs, recomputed {actual}"),
            Violation::PartTerminalMismatch {
                part,
                claimed,
                actual,
            } => write!(
                f,
                "part P{part}: claimed t_Pj = {claimed}, recomputed {actual}"
            ),
            Violation::DeviceOutOfRange { part, device } => write!(
                f,
                "part P{part}: device index {device} is outside the embedded library"
            ),
            Violation::MissingDevice { part } => {
                write!(f, "non-empty part P{part} has no device assignment")
            }
            Violation::InfeasiblePart {
                part,
                device,
                clbs,
                terminals,
                why,
            } => write!(
                f,
                "part P{part} infeasible on device {device} ({clbs} CLBs, {terminals} terminals): {why}"
            ),
            Violation::CostMismatch { claimed, actual } => {
                write!(f, "claimed $_k = {claimed}, recomputed {actual}")
            }
            Violation::KbarMismatch { claimed, actual } => {
                write!(f, "claimed k̄ = {claimed}, recomputed {actual}")
            }
            Violation::FeasibilityMismatch { claimed, actual } => {
                write!(f, "claimed feasible = {claimed}, recomputed {actual}")
            }
            Violation::BoardSiteOverflow { part, sites } => write!(
                f,
                "non-empty part P{part} has no device site (board has {sites})"
            ),
            Violation::ChannelEndpointOutOfRange {
                channel,
                site,
                sites,
            } => write!(
                f,
                "channel {channel} endpoint {site} is outside the board's {sites} sites"
            ),
            Violation::RouteMissing { net } => {
                write!(f, "cut net n{net} has no route over the board")
            }
            Violation::RouteExtraneous { net } => {
                write!(f, "net n{net} has a route but is not cut (or is routed twice)")
            }
            Violation::PhantomChannel { net, channel } => {
                write!(f, "route of n{net} uses nonexistent channel {channel}")
            }
            Violation::RouteDuplicateChannel { net, channel } => {
                write!(f, "route of n{net} lists channel {channel} twice")
            }
            Violation::RouteDisconnected { net } => write!(
                f,
                "route of n{net} does not connect all sites the net touches"
            ),
            Violation::HopsMismatch { claimed, actual } => {
                write!(f, "claimed hops = {claimed}, recomputed {actual}")
            }
            Violation::CongestionMismatch { claimed, actual } => {
                write!(f, "claimed congestion = {claimed}, recomputed {actual}")
            }
        }
    }
}

/// Everything the verifier recomputed, for reporting alongside the
/// violations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Recomputed {
    /// Cut-set size.
    pub cut: usize,
    /// CLBs per part.
    pub part_clbs: Vec<u64>,
    /// `t_Pj` per part.
    pub part_terminals: Vec<u64>,
    /// `$_k` over non-empty parts (k-way only).
    pub total_cost: Option<u64>,
    /// `k̄` (k-way only).
    pub kbar: Option<f64>,
    /// Overall device feasibility (k-way only).
    pub feasible: Option<bool>,
    /// Total hop cost of the claimed routes (board certificates only).
    pub hops: Option<u64>,
    /// Channel congestion Σ_c max(0, load_c − cap_c) (board
    /// certificates only).
    pub congestion: Option<u64>,
}

/// The verifier's verdict on one certificate.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VerifyReport {
    violations: Vec<Violation>,
    recomputed: Recomputed,
}

impl VerifyReport {
    /// Whether the certificate passed every check.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The violations, in detection order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The independently recomputed solution metrics.
    pub fn recomputed(&self) -> &Recomputed {
        &self.recomputed
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(
                f,
                "certificate OK: cut {} re-derived independently",
                self.recomputed.cut
            )?;
            if let Some(c) = self.recomputed.total_cost {
                write!(f, ", $_k = {c}")?;
            }
            if let Some(k) = self.recomputed.kbar {
                write!(f, ", k̄ = {k:.4}")?;
            }
            if let Some(h) = self.recomputed.hops {
                write!(f, ", hops = {h}")?;
            }
            if let Some(g) = self.recomputed.congestion {
                write!(f, ", congestion = {g}")?;
            }
            return Ok(());
        }
        writeln!(
            f,
            "certificate REJECTED: {} violation(s)",
            self.violations.len()
        )?;
        for v in &self.violations {
            writeln!(f, "  [{}] {v}", v.code())?;
        }
        Ok(())
    }
}

/// The verifier's own pin-connectivity rule, mirroring §II: an output
/// pin is live on a copy iff the copy keeps it; an input pin is live
/// iff the cell is unreplicated, or the input feeds no output at all
/// (global input), or some kept output depends on it.
fn copy_connected(
    adj: &netpart_hypergraph::AdjacencyMatrix,
    n_copies: usize,
    copy: &CellCopySpec,
    pin: Pin,
) -> bool {
    match pin {
        Pin::Output(o) => copy.outputs & (1u32 << o) != 0,
        Pin::Input(j) => {
            let j = usize::from(j);
            if n_copies == 1 {
                return true;
            }
            let m = adj.m_outputs();
            let feeds_any = (0..m).any(|o| adj.depends(o, j));
            if !feeds_any {
                return true; // global input: every copy keeps it
            }
            (0..m).any(|o| copy.outputs & (1u32 << o) != 0 && adj.depends(o, j))
        }
    }
}

/// Parses serialized certificate text and re-verifies it against `hg`
/// in one step.
///
/// This is the re-verification path of persisted artifacts (the
/// `netpart-serve` disk cache re-checks every entry through it before
/// trusting a replay): a certificate read back from disk is only as
/// good as the bytes that survived, so parse failures are surfaced as
/// errors and the parsed claims go through the full [`verify`] oracle.
///
/// # Errors
///
/// Returns the [`ParseError`](crate::ParseError) of a malformed or
/// truncated certificate text.
pub fn verify_text(
    hg: &Hypergraph,
    text: &str,
) -> Result<VerifyReport, crate::certificate::ParseError> {
    let cert = SolutionCertificate::parse(text)?;
    Ok(verify(hg, &cert))
}

/// Re-evaluates `cert` against `hg` from scratch and reports every
/// discrepancy.
pub fn verify(hg: &Hypergraph, cert: &SolutionCertificate) -> VerifyReport {
    let mut violations = Vec::new();

    // 1. Circuit identity. Structure mismatches make every later index
    //    meaningless, so bail out after reporting them.
    let digest = crate::certificate::circuit_digest(hg);
    let identity: [(&'static str, u64, u64); 4] = [
        ("cells", cert.n_cells as u64, hg.n_cells() as u64),
        ("nets", cert.n_nets as u64, hg.n_nets() as u64),
        ("area", cert.total_area, hg.total_area()),
        ("digest", cert.digest, digest),
    ];
    for (field, claimed, actual) in identity {
        if claimed != actual {
            violations.push(Violation::CircuitMismatch {
                field,
                claimed,
                actual,
            });
        }
    }
    if !violations.is_empty() {
        return VerifyReport {
            violations,
            recomputed: Recomputed::default(),
        };
    }

    // 2. Assemble the per-cell copy table, flagging duplicate, unknown
    //    and missing cells.
    let mut copies: Vec<Option<&[CellCopySpec]>> = vec![None; hg.n_cells()];
    for (id, list) in &cert.cells {
        let Some(slot) = copies.get_mut(*id as usize) else {
            violations.push(Violation::UnknownCell { cell: *id });
            continue;
        };
        if slot.is_some() {
            violations.push(Violation::DuplicateCell { cell: *id });
            continue;
        }
        *slot = Some(list.as_slice());
    }
    for (i, slot) in copies.iter().enumerate() {
        if slot.is_none_or(|l| l.is_empty()) {
            violations.push(Violation::MissingCell { cell: i as u32 });
        }
    }

    // 3. Replication legality per cell: parts in range, masks disjoint,
    //    non-empty and jointly covering, pads never replicated.
    for id in hg.cell_ids() {
        let Some(list) = copies[id.index()] else {
            continue;
        };
        let cell = hg.cell(id);
        let m = cell.m_outputs();
        let full: u32 = if m == 0 {
            0
        } else if m >= 32 {
            u32::MAX
        } else {
            (1u32 << m) - 1
        };
        let mut union = 0u32;
        let mut disjoint = true;
        for cp in list {
            if usize::from(cp.part) >= cert.n_parts {
                violations.push(Violation::PartOutOfRange {
                    cell: id.0,
                    part: cp.part,
                });
            }
            if list.len() > 1 && cp.outputs == 0 {
                violations.push(Violation::EmptyCopy { cell: id.0 });
            }
            disjoint &= union & cp.outputs == 0;
            union |= cp.outputs;
        }
        if !disjoint || union != full {
            violations.push(Violation::OutputsNotPartitioned { cell: id.0 });
        }
        if list.len() > 1 && cell.is_terminal() {
            violations.push(Violation::ReplicatedTerminal { cell: id.0 });
        }
    }

    // Illegal placements make the metric recomputation below
    // ill-defined (out-of-range parts would index out of bounds);
    // report what we have.
    if !violations.is_empty() {
        return VerifyReport {
            violations,
            recomputed: Recomputed::default(),
        };
    }

    // 4. Per-part CLB areas: every copy carries the full cell area.
    let mut part_clbs = vec![0u64; cert.n_parts];
    for id in hg.cell_ids() {
        let area = u64::from(hg.cell(id).area());
        for cp in copies[id.index()].unwrap_or(&[]) {
            part_clbs[usize::from(cp.part)] += area;
        }
    }

    // 5. Cut set and per-part terminal usage t_Pj, net by net: a part
    //    pays one IOB per pad endpoint it hosts, and at least one if
    //    the net crosses a device boundary it touches.
    let mut part_terminals = vec![0u64; cert.n_parts];
    let mut cut_actual: Vec<u32> = Vec::new();
    // Per cut net, the parts it touches (parallel to `cut_actual`) —
    // the site sets the board route checks re-derive against.
    let mut cut_parts: Vec<Vec<usize>> = Vec::new();
    for nid in hg.net_ids() {
        let net = hg.net(nid);
        let mut touched = vec![false; cert.n_parts];
        let mut pads = vec![0u64; cert.n_parts];
        for ep in net.endpoints() {
            let cell = hg.cell(ep.cell);
            let adj = cell.adjacency();
            let list = copies[ep.cell.index()].unwrap_or(&[]);
            for cp in list {
                if copy_connected(adj, list.len(), cp, ep.pin) {
                    touched[usize::from(cp.part)] = true;
                    if cell.is_terminal() {
                        pads[usize::from(cp.part)] += 1;
                    }
                }
            }
        }
        let span = touched.iter().filter(|&&t| t).count();
        if span >= 2 {
            cut_actual.push(nid.0);
            cut_parts.push(
                touched
                    .iter()
                    .enumerate()
                    .filter_map(|(p, &t)| t.then_some(p))
                    .collect(),
            );
        }
        for p in 0..cert.n_parts {
            let crossing_cost = u64::from(span >= 2 && touched[p]);
            part_terminals[p] += pads[p].max(crossing_cost);
        }
    }

    // 6. Compare the claimed cut set against the recomputed one.
    for &n in &cert.claims.cut_nets {
        if (n as usize) >= hg.n_nets() {
            violations.push(Violation::PhantomNet { net: n });
        } else if cut_actual.binary_search(&n).is_err() {
            violations.push(Violation::CutNetNotCut { net: n });
        }
    }
    for &n in &cut_actual {
        if cert.claims.cut_nets.binary_search(&n).is_err() {
            violations.push(Violation::CutNetMissing { net: n });
        }
    }

    // 7. Per-part claims.
    for p in 0..cert.n_parts {
        let claimed = cert.claims.part_clbs.get(p).copied().unwrap_or(0);
        if claimed != part_clbs[p] {
            violations.push(Violation::PartClbMismatch {
                part: p,
                claimed,
                actual: part_clbs[p],
            });
        }
        let claimed = cert.claims.part_terminals.get(p).copied().unwrap_or(0);
        if claimed != part_terminals[p] {
            violations.push(Violation::PartTerminalMismatch {
                part: p,
                claimed,
                actual: part_terminals[p],
            });
        }
    }

    // 8. Device feasibility, cost and k̄ (k-way certificates only),
    //    using the verifier's own window math over the embedded specs.
    let mut recomputed = Recomputed {
        cut: cut_actual.len(),
        part_clbs,
        part_terminals,
        ..Recomputed::default()
    };
    if cert.kind == CertKind::KWay {
        let mut total_cost = 0u64;
        let mut sum_terms = 0u64;
        let mut cap_terms = 0u64;
        let mut feasible = true;
        for p in 0..cert.n_parts {
            let clbs = recomputed.part_clbs[p];
            let terminals = recomputed.part_terminals[p];
            if clbs == 0 && terminals == 0 {
                continue; // empty parts cost nothing, mirror eq. 1
            }
            let Some(&d) = cert.devices.get(p) else {
                violations.push(Violation::MissingDevice { part: p });
                feasible = false;
                continue;
            };
            let Some(spec) = cert.library.get(d) else {
                violations.push(Violation::DeviceOutOfRange { part: p, device: d });
                feasible = false;
                continue;
            };
            let floor = (spec.min_util * f64::from(spec.clbs)).ceil() as u64;
            let ceil = (spec.max_util * f64::from(spec.clbs)).floor() as u64;
            let mut why = Vec::new();
            if clbs < floor {
                why.push(format!("clbs {clbs} < floor {floor}"));
            }
            if clbs > ceil {
                why.push(format!("clbs {clbs} > ceiling {ceil}"));
            }
            if terminals > u64::from(spec.iobs) {
                why.push(format!("terminals {terminals} > t_i {}", spec.iobs));
            }
            if !why.is_empty() {
                feasible = false;
                violations.push(Violation::InfeasiblePart {
                    part: p,
                    device: d,
                    clbs,
                    terminals,
                    why: why.join(", "),
                });
            }
            total_cost += spec.price;
            sum_terms += terminals;
            cap_terms += u64::from(spec.iobs);
        }
        let kbar = if cap_terms == 0 {
            0.0
        } else {
            sum_terms as f64 / cap_terms as f64
        };
        recomputed.total_cost = Some(total_cost);
        recomputed.kbar = Some(kbar);
        recomputed.feasible = Some(feasible);

        if let Some(claimed) = cert.claims.total_cost {
            if claimed != total_cost {
                violations.push(Violation::CostMismatch {
                    claimed,
                    actual: total_cost,
                });
            }
        }
        if let Some(bits) = cert.claims.kbar_bits {
            if bits != kbar.to_bits() {
                violations.push(Violation::KbarMismatch {
                    claimed: f64::from_bits(bits),
                    actual: kbar,
                });
            }
        }
        if let Some(claimed) = cert.claims.feasible {
            if claimed != feasible {
                violations.push(Violation::FeasibilityMismatch {
                    claimed,
                    actual: feasible,
                });
            }
        }
        // An infeasible part honestly claimed infeasible is recorded as
        // InfeasiblePart above but the certificate itself is consistent;
        // drop those detail rows when the producer's claim agrees.
        if cert.claims.feasible == Some(false) && recomputed.feasible == Some(false) {
            violations.retain(|v| !matches!(v, Violation::InfeasiblePart { .. }));
        }
    }

    // 9. Board routing re-derivation: every cut net must be routed over
    //    a channel tree connecting exactly the sites its parts map to
    //    (identity mapping, part j → site j); loads, total hop cost and
    //    congestion are recomputed from the route lines and the embedded
    //    channel specs alone — never from the producer's router.
    if let Some(board) = &cert.board {
        check_board(
            board,
            &cut_actual,
            &cut_parts,
            &recomputed,
            cert,
            &mut violations,
        );
        if let Some((hops, congestion)) = recompute_routing(board) {
            recomputed.hops = Some(hops);
            recomputed.congestion = Some(congestion);
            if let Some(claimed) = cert.claims.hops {
                if claimed != hops {
                    violations.push(Violation::HopsMismatch {
                        claimed,
                        actual: hops,
                    });
                }
            }
            if let Some(claimed) = cert.claims.congestion {
                if claimed != congestion {
                    violations.push(Violation::CongestionMismatch {
                        claimed,
                        actual: congestion,
                    });
                }
            }
        }
    }

    VerifyReport {
        violations,
        recomputed,
    }
}

/// Structural board checks: parts backed by sites, channel endpoints in
/// range, route↔cut-set agreement, channel ids valid and unrepeated,
/// and per-net site connectivity via union-find over route channels.
fn check_board(
    board: &crate::certificate::BoardClaim,
    cut_actual: &[u32],
    cut_parts: &[Vec<usize>],
    recomputed: &Recomputed,
    cert: &SolutionCertificate,
    violations: &mut Vec<Violation>,
) {
    for p in 0..cert.n_parts {
        let clbs = recomputed.part_clbs.get(p).copied().unwrap_or(0);
        let terminals = recomputed.part_terminals.get(p).copied().unwrap_or(0);
        if (clbs > 0 || terminals > 0) && p >= board.sites {
            violations.push(Violation::BoardSiteOverflow {
                part: p,
                sites: board.sites,
            });
        }
    }
    for (i, ch) in board.channels.iter().enumerate() {
        for site in [ch.a, ch.b] {
            if (site as usize) >= board.sites {
                violations.push(Violation::ChannelEndpointOutOfRange {
                    channel: i as u32,
                    site,
                    sites: board.sites,
                });
            }
        }
    }

    let mut routed: Vec<u32> = Vec::new();
    for (net, channels) in &board.routes {
        let in_cut = cut_actual.binary_search(net).is_ok();
        let duplicate = routed.contains(net);
        routed.push(*net);
        if !in_cut || duplicate {
            violations.push(Violation::RouteExtraneous { net: *net });
            continue;
        }
        // Channel validity.
        let mut seen: Vec<u32> = Vec::new();
        let mut valid = true;
        for &c in channels {
            if (c as usize) >= board.channels.len() {
                violations.push(Violation::PhantomChannel {
                    net: *net,
                    channel: c,
                });
                valid = false;
                continue;
            }
            if seen.contains(&c) {
                violations.push(Violation::RouteDuplicateChannel {
                    net: *net,
                    channel: c,
                });
            } else {
                seen.push(c);
            }
        }
        if !valid {
            continue;
        }
        // Connectivity: all touched sites in one component of the route.
        let idx = cut_actual.binary_search(net).expect("checked in_cut above");
        let sites = &cut_parts[idx];
        if sites.iter().any(|&s| s >= board.sites) {
            continue; // already reported as BoardSiteOverflow
        }
        let mut root: Vec<usize> = (0..board.sites).collect();
        fn find(root: &mut [usize], mut x: usize) -> usize {
            while root[x] != x {
                root[x] = root[root[x]];
                x = root[x];
            }
            x
        }
        for &c in &seen {
            let ch = board.channels[c as usize];
            if (ch.a as usize) >= board.sites || (ch.b as usize) >= board.sites {
                continue; // already reported as ChannelEndpointOutOfRange
            }
            let (ra, rb) = (
                find(&mut root, ch.a as usize),
                find(&mut root, ch.b as usize),
            );
            root[ra] = rb;
        }
        let anchor = find(&mut root, sites[0]);
        if sites[1..].iter().any(|&s| find(&mut root, s) != anchor) {
            violations.push(Violation::RouteDisconnected { net: *net });
        }
    }
    for (i, &net) in cut_actual.iter().enumerate() {
        if cut_parts[i].len() >= 2 && !routed.contains(&net) {
            violations.push(Violation::RouteMissing { net });
        }
    }
}

/// Recomputes `(hops, congestion)` from the route lines and channel
/// specs. Phantom channel ids are skipped (they are already violations)
/// and a duplicated channel inside one route is counted once.
fn recompute_routing(board: &crate::certificate::BoardClaim) -> Option<(u64, u64)> {
    let mut loads = vec![0u64; board.channels.len()];
    let mut hops = 0u64;
    for (_, channels) in &board.routes {
        let mut seen: Vec<u32> = Vec::new();
        for &c in channels {
            let Some(ch) = board.channels.get(c as usize) else {
                continue;
            };
            if seen.contains(&c) {
                continue;
            }
            seen.push(c);
            loads[c as usize] += 1;
            hops += u64::from(ch.hop);
        }
    }
    let congestion = board
        .channels
        .iter()
        .zip(&loads)
        .map(|(ch, &load)| load.saturating_sub(u64::from(ch.capacity)))
        .sum();
    Some((hops, congestion))
}
