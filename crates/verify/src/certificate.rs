//! The solution certificate: a complete, self-contained text record of
//! one partitioning result, precise enough for an independent verifier
//! to re-derive every claim from the circuit alone.
//!
//! The format is a versioned line protocol (no registry serializer, per
//! the hermetic-build policy). Floats — the device utilization window
//! bounds and the claimed `k̄` — are stored as raw IEEE-754 bit
//! patterns in hex so round trips are exact and certificates from two
//! runs can be compared byte for byte.

use std::fmt;

use netpart_fpga::{Device, DeviceLibrary, Evaluation};
use netpart_hypergraph::{Hypergraph, Placement};

/// What kind of run produced a certificate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CertKind {
    /// A two-way FM run (no device assignment).
    Bipartition,
    /// A cost-driven k-way run with one device per part.
    KWay,
}

impl fmt::Display for CertKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertKind::Bipartition => write!(f, "bipartition"),
            CertKind::KWay => write!(f, "kway"),
        }
    }
}

/// One device of the library embedded in a certificate.
///
/// The verifier checks feasibility against these fields directly — it
/// never reconstructs a [`DeviceLibrary`] (whose constructor re-sorts),
/// so part→device indices keep the producer's meaning.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceSpec {
    /// Device name (informational).
    pub name: String,
    /// CLB capacity `c_i`.
    pub clbs: u32,
    /// IOB capacity `t_i`.
    pub iobs: u32,
    /// Price `d_i`.
    pub price: u64,
    /// Lower utilization bound `l_i`.
    pub min_util: f64,
    /// Upper utilization bound `u_i`.
    pub max_util: f64,
}

impl From<&Device> for DeviceSpec {
    fn from(d: &Device) -> Self {
        DeviceSpec {
            name: d.name().to_string(),
            clbs: d.clbs(),
            iobs: d.iobs(),
            price: d.price(),
            min_util: d.min_util(),
            max_util: d.max_util(),
        }
    }
}

/// One copy of a cell as recorded in a certificate: the hosting part
/// and the subset of outputs this copy keeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellCopySpec {
    /// Hosting part index.
    pub part: u16,
    /// Output subset kept by this copy (bit `o` set ⇔ output `o` kept).
    pub outputs: u32,
}

/// One inter-FPGA channel of the board embedded in a certificate.
///
/// Like [`DeviceSpec`], the verifier checks routes against these fields
/// directly — it never reconstructs the producer's board model, so
/// channel indices keep the producer's meaning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChannelSpec {
    /// First endpoint (site index).
    pub a: u32,
    /// Second endpoint (site index).
    pub b: u32,
    /// Net capacity of the channel.
    pub capacity: u32,
    /// Hop cost of crossing the channel.
    pub hop: u32,
}

/// The board-topology section of a certificate: the channel graph the
/// producer routed over, plus one claimed route per cut net. Present
/// only for runs under `--board`; certificates without it serialize
/// byte-identically to protocol v1 before boards existed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BoardClaim {
    /// Number of device sites (part `j` is hosted on site `j`).
    pub sites: usize,
    /// The producer's structural board digest (informational; the
    /// verifier re-checks structure, not provenance).
    pub digest: u64,
    /// Channels, indexed by the ids route lines refer to.
    pub channels: Vec<ChannelSpec>,
    /// Claimed routes: `(net id, channel ids ascending)`, one per cut
    /// net, in ascending net order.
    pub routes: Vec<(u32, Vec<u32>)>,
}

/// The producer's claims about its own solution, re-derived from
/// scratch by [`verify`](crate::verify).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Claims {
    /// Net ids claimed cut, ascending.
    pub cut_nets: Vec<u32>,
    /// Claimed CLB count per part.
    pub part_clbs: Vec<u64>,
    /// Claimed terminal usage `t_Pj` per part.
    pub part_terminals: Vec<u64>,
    /// Claimed total device cost `$_k` (k-way only).
    pub total_cost: Option<u64>,
    /// Claimed `k̄` as raw IEEE-754 bits (k-way only).
    pub kbar_bits: Option<u64>,
    /// Claimed overall device feasibility (k-way only).
    pub feasible: Option<bool>,
    /// Claimed total hop cost of the routed cut nets (board runs only).
    pub hops: Option<u64>,
    /// Claimed total channel congestion Σ_c max(0, load_c − cap_c)
    /// (board runs only).
    pub congestion: Option<u64>,
}

/// A complete, serializable record of one partitioning solution.
#[derive(Clone, Debug, PartialEq)]
pub struct SolutionCertificate {
    /// Run kind.
    pub kind: CertKind,
    /// Path of the source netlist, if the producer knew one.
    pub source: Option<String>,
    /// Seed of the winning run (informational).
    pub seed: u64,
    /// Cell count of the circuit the solution is for.
    pub n_cells: usize,
    /// Net count of the circuit the solution is for.
    pub n_nets: usize,
    /// Total CLB area of the circuit.
    pub total_area: u64,
    /// Structural digest of the circuit (see [`circuit_digest`]).
    pub digest: u64,
    /// The device library the solution was judged against (k-way only;
    /// empty for bipartitions).
    pub library: Vec<DeviceSpec>,
    /// Part count.
    pub n_parts: usize,
    /// Library index per part (k-way only; empty for bipartitions).
    pub devices: Vec<usize>,
    /// Raw `cell <id> …` lines in file order. Kept unaggregated so the
    /// verifier — not the parser — decides what a duplicate or missing
    /// cell means.
    pub cells: Vec<(u32, Vec<CellCopySpec>)>,
    /// The board topology and routes, for runs under `--board`.
    pub board: Option<BoardClaim>,
    /// The producer's claims.
    pub claims: Claims,
}

/// A certificate line that could not be parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number (0 for whole-file problems such as truncation).
    pub line: usize,
    /// What went wrong.
    pub what: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "certificate: {}", self.what)
        } else {
            write!(f, "certificate line {}: {}", self.line, self.what)
        }
    }
}

impl std::error::Error for ParseError {}

/// FNV-1a, re-implemented here so the verifier shares no hashing code
/// with the engine's result cache.
struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A structural digest of the circuit: cell kinds, areas, pin→net
/// wiring and the §II adjacency vectors, plus every net's endpoint
/// list. Names are excluded, so renaming cells or nets does not
/// invalidate certificates; any rewiring does.
pub fn circuit_digest(hg: &Hypergraph) -> u64 {
    let mut h = Fnv::new();
    h.u64(hg.n_cells() as u64);
    h.u64(hg.n_nets() as u64);
    for id in hg.cell_ids() {
        let cell = hg.cell(id);
        let kind_tag: u64 = if cell.is_terminal() {
            if cell.m_outputs() > 0 {
                1 // input pad
            } else {
                2 // output pad
            }
        } else {
            0
        };
        h.u64(kind_tag);
        h.u64(u64::from(cell.area()));
        h.u64(cell.n_inputs() as u64);
        h.u64(cell.m_outputs() as u64);
        for &n in cell.input_nets() {
            h.u64(u64::from(n.0));
        }
        for &n in cell.output_nets() {
            h.u64(u64::from(n.0));
        }
        let adj = cell.adjacency();
        for o in 0..cell.m_outputs() {
            let mut row = 0u64;
            for j in 0..cell.n_inputs() {
                if adj.depends(o, j) {
                    row = row.rotate_left(1) ^ 3;
                } else {
                    row = row.rotate_left(1) ^ 1;
                }
            }
            h.u64(row);
        }
    }
    for id in hg.net_ids() {
        let net = hg.net(id);
        for ep in net.endpoints() {
            h.u64(u64::from(ep.cell.0));
            let pin_tag = match ep.pin {
                netpart_hypergraph::Pin::Input(j) => u64::from(j),
                netpart_hypergraph::Pin::Output(o) => 0x8000_0000u64 | u64::from(o),
            };
            h.u64(pin_tag);
        }
    }
    h.finish()
}

impl SolutionCertificate {
    /// Builds a certificate for a bipartition `placement`.
    ///
    /// The claims are read off the placement with the hypergraph
    /// crate's own evaluators — deliberately so: the verifier
    /// recomputes them from scratch, which makes every successful
    /// verification a differential test of those evaluators too.
    pub fn from_bipartition(hg: &Hypergraph, placement: &Placement, seed: u64) -> Self {
        SolutionCertificate {
            kind: CertKind::Bipartition,
            source: None,
            seed,
            n_cells: hg.n_cells(),
            n_nets: hg.n_nets(),
            total_area: hg.total_area(),
            digest: circuit_digest(hg),
            library: Vec::new(),
            n_parts: placement.n_parts(),
            devices: Vec::new(),
            cells: cell_lines(hg, placement),
            board: None,
            claims: Claims {
                cut_nets: cut_nets(hg, placement),
                part_clbs: placement.part_areas(hg),
                part_terminals: placement
                    .part_terminal_counts(hg)
                    .into_iter()
                    .map(|t| t as u64)
                    .collect(),
                ..Claims::default()
            },
        }
    }

    /// Builds a certificate for a k-way `placement` judged against
    /// `library` with the given per-part device assignment.
    ///
    /// Pass the library the run was actually evaluated with — after a
    /// floor relaxation that is the relaxed library, not the base one.
    pub fn from_kway(
        hg: &Hypergraph,
        placement: &Placement,
        library: &DeviceLibrary,
        devices: &[usize],
        eval: &Evaluation,
        seed: u64,
    ) -> Self {
        SolutionCertificate {
            kind: CertKind::KWay,
            source: None,
            seed,
            n_cells: hg.n_cells(),
            n_nets: hg.n_nets(),
            total_area: hg.total_area(),
            digest: circuit_digest(hg),
            library: library.iter().map(DeviceSpec::from).collect(),
            n_parts: placement.n_parts(),
            devices: devices[..placement.n_parts()].to_vec(),
            cells: cell_lines(hg, placement),
            board: None,
            claims: Claims {
                cut_nets: cut_nets(hg, placement),
                part_clbs: placement.part_areas(hg),
                part_terminals: placement
                    .part_terminal_counts(hg)
                    .into_iter()
                    .map(|t| t as u64)
                    .collect(),
                total_cost: Some(eval.total_cost),
                kbar_bits: Some(eval.avg_iob_util.to_bits()),
                feasible: Some(eval.feasible),
                ..Claims::default()
            },
        }
    }

    /// Attaches the source netlist path (used by `netpart verify` to
    /// find the circuit when no override is given).
    pub fn with_source(mut self, path: impl Into<String>) -> Self {
        self.source = Some(path.into());
        self
    }

    /// Attaches a board section plus the routed hop/congestion claims
    /// (runs under `--board`). Certificates without a board section are
    /// serialized byte-identically to the pre-board protocol.
    pub fn with_board(mut self, board: BoardClaim, hops: u64, congestion: u64) -> Self {
        self.board = Some(board);
        self.claims.hops = Some(hops);
        self.claims.congestion = Some(congestion);
        self
    }

    /// Serializes the certificate as its line protocol.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("netpart-certificate v1\n");
        out.push_str(&format!("kind {}\n", self.kind));
        if let Some(src) = &self.source {
            out.push_str(&format!("source {src}\n"));
        }
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!(
            "circuit cells={} nets={} area={} digest={:016x}\n",
            self.n_cells, self.n_nets, self.total_area, self.digest
        ));
        out.push_str(&format!("library {}\n", self.library.len()));
        for (i, d) in self.library.iter().enumerate() {
            out.push_str(&format!(
                "device {} {} {} {} {:016x} {:016x} {}\n",
                i,
                d.clbs,
                d.iobs,
                d.price,
                d.min_util.to_bits(),
                d.max_util.to_bits(),
                d.name
            ));
        }
        out.push_str(&format!("parts {}\n", self.n_parts));
        for p in 0..self.n_parts {
            out.push_str(&format!("part {p}"));
            if let Some(&d) = self.devices.get(p) {
                out.push_str(&format!(" device={d}"));
            }
            out.push_str(&format!(
                " clbs={} terminals={}\n",
                self.claims.part_clbs.get(p).copied().unwrap_or(0),
                self.claims.part_terminals.get(p).copied().unwrap_or(0)
            ));
        }
        out.push_str(&format!("cells {}\n", self.cells.len()));
        for (id, copies) in &self.cells {
            out.push_str(&format!("cell {id}"));
            for cp in copies {
                out.push_str(&format!(" {}:{:x}", cp.part, cp.outputs));
            }
            out.push('\n');
        }
        out.push_str(&format!("cut {}", self.claims.cut_nets.len()));
        for n in &self.claims.cut_nets {
            out.push_str(&format!(" {n}"));
        }
        out.push('\n');
        if let Some(board) = &self.board {
            out.push_str(&format!(
                "board sites={} channels={} digest={:016x}\n",
                board.sites,
                board.channels.len(),
                board.digest
            ));
            for (i, ch) in board.channels.iter().enumerate() {
                out.push_str(&format!(
                    "channelspec {} {} {} {} {}\n",
                    i, ch.a, ch.b, ch.capacity, ch.hop
                ));
            }
            out.push_str(&format!("routes {}\n", board.routes.len()));
            for (net, channels) in &board.routes {
                out.push_str(&format!("route {net}"));
                for c in channels {
                    out.push_str(&format!(" {c}"));
                }
                out.push('\n');
            }
        }
        if let Some(c) = self.claims.total_cost {
            out.push_str(&format!("claim cost {c}\n"));
        }
        if let Some(b) = self.claims.kbar_bits {
            out.push_str(&format!("claim kbar {b:016x}\n"));
        }
        if let Some(f) = self.claims.feasible {
            out.push_str(&format!("claim feasible {f}\n"));
        }
        if let Some(h) = self.claims.hops {
            out.push_str(&format!("claim hops {h}\n"));
        }
        if let Some(g) = self.claims.congestion {
            out.push_str(&format!("claim congestion {g}\n"));
        }
        out.push_str("end netpart-certificate\n");
        // Callers keep certificate text around to compare or cache it;
        // growth by doubling would leave up to half of it unused.
        out.shrink_to_fit();
        out
    }

    /// Parses the line protocol back into a certificate.
    ///
    /// # Errors
    ///
    /// A [`ParseError`] naming the offending line; a missing
    /// `end netpart-certificate` trailer (truncation) reports line 0.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        Parser::new(text).run()
    }
}

/// Extracts the per-cell copy lines of a placement, in cell order.
fn cell_lines(hg: &Hypergraph, placement: &Placement) -> Vec<(u32, Vec<CellCopySpec>)> {
    hg.cell_ids()
        .map(|c| {
            (
                c.0,
                placement
                    .copies(c)
                    .iter()
                    .map(|cp| CellCopySpec {
                        part: cp.part.0,
                        outputs: cp.outputs,
                    })
                    .collect(),
            )
        })
        .collect()
}

/// The net ids a placement cuts, ascending.
fn cut_nets(hg: &Hypergraph, placement: &Placement) -> Vec<u32> {
    hg.net_ids()
        .filter(|&n| placement.is_cut(hg, n))
        .map(|n| n.0)
        .collect()
}

struct Parser<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            lines: text.lines().enumerate(),
        }
    }

    fn next_line(&mut self) -> Result<(usize, &'a str), ParseError> {
        for (i, raw) in self.lines.by_ref() {
            let line = raw.trim();
            if !line.is_empty() {
                return Ok((i + 1, line));
            }
        }
        Err(ParseError {
            line: 0,
            what: "truncated: missing `end netpart-certificate` trailer".into(),
        })
    }

    fn expect_field<T: std::str::FromStr>(
        line_no: usize,
        token: Option<&str>,
        key: &str,
    ) -> Result<T, ParseError> {
        let tok = token.ok_or_else(|| ParseError {
            line: line_no,
            what: format!("missing `{key}` field"),
        })?;
        let val = tok.strip_prefix(key).and_then(|r| r.strip_prefix('='));
        let val = val.ok_or_else(|| ParseError {
            line: line_no,
            what: format!("expected `{key}=…`, found `{tok}`"),
        })?;
        val.parse().map_err(|_| ParseError {
            line: line_no,
            what: format!("bad `{key}` value `{val}`"),
        })
    }

    fn run(mut self) -> Result<SolutionCertificate, ParseError> {
        let (n, header) = self.next_line()?;
        if header != "netpart-certificate v1" {
            return Err(ParseError {
                line: n,
                what: format!("unknown header `{header}` (expected `netpart-certificate v1`)"),
            });
        }
        let (n, kind_line) = self.next_line()?;
        let kind = match kind_line.strip_prefix("kind ").map(str::trim) {
            Some("bipartition") => CertKind::Bipartition,
            Some("kway") => CertKind::KWay,
            _ => {
                return Err(ParseError {
                    line: n,
                    what: format!("expected `kind bipartition|kway`, found `{kind_line}`"),
                })
            }
        };

        let (mut n, mut line) = self.next_line()?;
        let source = if let Some(src) = line.strip_prefix("source ") {
            let s = src.trim().to_string();
            (n, line) = self.next_line()?;
            Some(s)
        } else {
            None
        };

        let seed: u64 = line
            .strip_prefix("seed ")
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| ParseError {
                line: n,
                what: format!("expected `seed <u64>`, found `{line}`"),
            })?;

        let (n, circ) = self.next_line()?;
        let mut toks = circ.split_whitespace();
        if toks.next() != Some("circuit") {
            return Err(ParseError {
                line: n,
                what: format!("expected `circuit …`, found `{circ}`"),
            });
        }
        let n_cells: usize = Self::expect_field(n, toks.next(), "cells")?;
        let n_nets: usize = Self::expect_field(n, toks.next(), "nets")?;
        let total_area: u64 = Self::expect_field(n, toks.next(), "area")?;
        let digest_tok: String = Self::expect_field(n, toks.next(), "digest")?;
        let digest = u64::from_str_radix(&digest_tok, 16).map_err(|_| ParseError {
            line: n,
            what: format!("bad digest `{digest_tok}`"),
        })?;

        let (n, lib_line) = self.next_line()?;
        let n_devices: usize = lib_line
            .strip_prefix("library ")
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| ParseError {
                line: n,
                what: format!("expected `library <count>`, found `{lib_line}`"),
            })?;
        let mut library = Vec::with_capacity(n_devices);
        for i in 0..n_devices {
            let (n, dev) = self.next_line()?;
            let mut t = dev.split_whitespace();
            let bad = |what: String| ParseError { line: n, what };
            if t.next() != Some("device") {
                return Err(bad(format!("expected `device {i} …`, found `{dev}`")));
            }
            let parse_u64 = |tok: Option<&str>, what: &str| -> Result<u64, ParseError> {
                tok.and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad(format!("bad device {what}")))
            };
            let idx = parse_u64(t.next(), "index")?;
            if idx != i as u64 {
                return Err(bad(format!("device index {idx}, expected {i}")));
            }
            let clbs = parse_u64(t.next(), "clbs")? as u32;
            let iobs = parse_u64(t.next(), "iobs")? as u32;
            let price = parse_u64(t.next(), "price")?;
            let lbits = t
                .next()
                .and_then(|v| u64::from_str_radix(v, 16).ok())
                .ok_or_else(|| bad("bad device min_util bits".into()))?;
            let ubits = t
                .next()
                .and_then(|v| u64::from_str_radix(v, 16).ok())
                .ok_or_else(|| bad("bad device max_util bits".into()))?;
            let name = t.collect::<Vec<_>>().join(" ");
            if name.is_empty() {
                return Err(bad("missing device name".into()));
            }
            library.push(DeviceSpec {
                name,
                clbs,
                iobs,
                price,
                min_util: f64::from_bits(lbits),
                max_util: f64::from_bits(ubits),
            });
        }

        let (n, parts_line) = self.next_line()?;
        let n_parts: usize = parts_line
            .strip_prefix("parts ")
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| ParseError {
                line: n,
                what: format!("expected `parts <count>`, found `{parts_line}`"),
            })?;
        let mut devices = Vec::new();
        let mut part_clbs = vec![0u64; n_parts];
        let mut part_terminals = vec![0u64; n_parts];
        for p in 0..n_parts {
            let (n, part) = self.next_line()?;
            let mut t = part.split_whitespace();
            if t.next() != Some("part") {
                return Err(ParseError {
                    line: n,
                    what: format!("expected `part {p} …`, found `{part}`"),
                });
            }
            let idx: usize = t.next().and_then(|v| v.parse().ok()).ok_or(ParseError {
                line: n,
                what: "bad part index".into(),
            })?;
            if idx != p {
                return Err(ParseError {
                    line: n,
                    what: format!("part index {idx}, expected {p}"),
                });
            }
            let mut rest = t.peekable();
            if rest.peek().is_some_and(|tok| tok.starts_with("device=")) {
                let d: usize = Self::expect_field(n, rest.next(), "device")?;
                devices.push(d);
            }
            part_clbs[p] = Self::expect_field(n, rest.next(), "clbs")?;
            part_terminals[p] = Self::expect_field(n, rest.next(), "terminals")?;
        }

        let (n, cells_line) = self.next_line()?;
        let n_cell_lines: usize = cells_line
            .strip_prefix("cells ")
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| ParseError {
                line: n,
                what: format!("expected `cells <count>`, found `{cells_line}`"),
            })?;
        let mut cells = Vec::with_capacity(n_cell_lines);
        for _ in 0..n_cell_lines {
            let (n, cl) = self.next_line()?;
            let mut t = cl.split_whitespace();
            if t.next() != Some("cell") {
                return Err(ParseError {
                    line: n,
                    what: format!("expected `cell <id> …`, found `{cl}`"),
                });
            }
            let id: u32 = t.next().and_then(|v| v.parse().ok()).ok_or(ParseError {
                line: n,
                what: "bad cell id".into(),
            })?;
            let mut copies = Vec::new();
            for tok in t {
                let (part, mask) = tok.split_once(':').ok_or_else(|| ParseError {
                    line: n,
                    what: format!("expected `part:mask`, found `{tok}`"),
                })?;
                let part: u16 = part.parse().map_err(|_| ParseError {
                    line: n,
                    what: format!("bad part in `{tok}`"),
                })?;
                let outputs = u32::from_str_radix(mask, 16).map_err(|_| ParseError {
                    line: n,
                    what: format!("bad output mask in `{tok}`"),
                })?;
                copies.push(CellCopySpec { part, outputs });
            }
            cells.push((id, copies));
        }

        let (n, cut_line) = self.next_line()?;
        let mut t = cut_line.split_whitespace();
        if t.next() != Some("cut") {
            return Err(ParseError {
                line: n,
                what: format!("expected `cut <count> …`, found `{cut_line}`"),
            });
        }
        let cut_count: usize = t.next().and_then(|v| v.parse().ok()).ok_or(ParseError {
            line: n,
            what: "bad cut count".into(),
        })?;
        let mut cut_nets = Vec::with_capacity(cut_count);
        for tok in t {
            cut_nets.push(tok.parse().map_err(|_| ParseError {
                line: n,
                what: format!("bad cut net id `{tok}`"),
            })?);
        }
        if cut_nets.len() != cut_count {
            return Err(ParseError {
                line: n,
                what: format!(
                    "cut count {} does not match the {} listed net ids",
                    cut_count,
                    cut_nets.len()
                ),
            });
        }

        let mut claims = Claims {
            cut_nets,
            part_clbs,
            part_terminals,
            ..Claims::default()
        };
        let mut board: Option<BoardClaim> = None;
        loop {
            let (n, line) = self.next_line()?;
            if line == "end netpart-certificate" {
                break;
            }
            if line.starts_with("board ") {
                if board.is_some() {
                    return Err(ParseError {
                        line: n,
                        what: "duplicate board section".into(),
                    });
                }
                board = Some(self.parse_board(n, line)?);
                continue;
            }
            let rest = line.strip_prefix("claim ").ok_or_else(|| ParseError {
                line: n,
                what: format!("expected `claim …`, `board …` or the end trailer, found `{line}`"),
            })?;
            let (key, val) = rest.split_once(' ').ok_or_else(|| ParseError {
                line: n,
                what: format!("bad claim `{rest}`"),
            })?;
            let bad = |what: String| ParseError { line: n, what };
            match key {
                "cost" => {
                    claims.total_cost = Some(
                        val.trim()
                            .parse()
                            .map_err(|_| bad(format!("bad cost `{val}`")))?,
                    );
                }
                "kbar" => {
                    claims.kbar_bits = Some(
                        u64::from_str_radix(val.trim(), 16)
                            .map_err(|_| bad(format!("bad kbar bits `{val}`")))?,
                    );
                }
                "feasible" => {
                    claims.feasible = Some(
                        val.trim()
                            .parse()
                            .map_err(|_| bad(format!("bad feasible flag `{val}`")))?,
                    );
                }
                "hops" => {
                    claims.hops = Some(
                        val.trim()
                            .parse()
                            .map_err(|_| bad(format!("bad hops `{val}`")))?,
                    );
                }
                "congestion" => {
                    claims.congestion = Some(
                        val.trim()
                            .parse()
                            .map_err(|_| bad(format!("bad congestion `{val}`")))?,
                    );
                }
                other => return Err(bad(format!("unknown claim `{other}`"))),
            }
        }

        Ok(SolutionCertificate {
            kind,
            source,
            seed,
            n_cells,
            n_nets,
            total_area,
            digest,
            library,
            n_parts,
            devices,
            cells,
            board,
            claims,
        })
    }

    /// Parses the `board …` header plus its `channelspec`/`routes`/
    /// `route` block. `header` is the already-read board line.
    fn parse_board(&mut self, line_no: usize, header: &str) -> Result<BoardClaim, ParseError> {
        let mut toks = header.split_whitespace();
        let _ = toks.next(); // `board`
        let sites: usize = Self::expect_field(line_no, toks.next(), "sites")?;
        let n_channels: usize = Self::expect_field(line_no, toks.next(), "channels")?;
        let digest_tok: String = Self::expect_field(line_no, toks.next(), "digest")?;
        let digest = u64::from_str_radix(&digest_tok, 16).map_err(|_| ParseError {
            line: line_no,
            what: format!("bad board digest `{digest_tok}`"),
        })?;
        let mut channels = Vec::with_capacity(n_channels);
        for i in 0..n_channels {
            let (n, line) = self.next_line()?;
            let bad = |what: String| ParseError { line: n, what };
            let mut t = line.split_whitespace();
            if t.next() != Some("channelspec") {
                return Err(bad(format!("expected `channelspec {i} …`, found `{line}`")));
            }
            let parse_u32 = |tok: Option<&str>, what: &str| -> Result<u32, ParseError> {
                tok.and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad(format!("bad channelspec {what}")))
            };
            let idx = parse_u32(t.next(), "index")?;
            if idx as usize != i {
                return Err(bad(format!("channelspec index {idx}, expected {i}")));
            }
            let a = parse_u32(t.next(), "endpoint")?;
            let b = parse_u32(t.next(), "endpoint")?;
            let capacity = parse_u32(t.next(), "capacity")?;
            let hop = parse_u32(t.next(), "hop")?;
            channels.push(ChannelSpec {
                a,
                b,
                capacity,
                hop,
            });
        }
        let (n, routes_line) = self.next_line()?;
        let n_routes: usize = routes_line
            .strip_prefix("routes ")
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| ParseError {
                line: n,
                what: format!("expected `routes <count>`, found `{routes_line}`"),
            })?;
        let mut routes = Vec::with_capacity(n_routes);
        for _ in 0..n_routes {
            let (n, line) = self.next_line()?;
            let mut t = line.split_whitespace();
            if t.next() != Some("route") {
                return Err(ParseError {
                    line: n,
                    what: format!("expected `route <net> …`, found `{line}`"),
                });
            }
            let net: u32 = t.next().and_then(|v| v.parse().ok()).ok_or(ParseError {
                line: n,
                what: "bad route net id".into(),
            })?;
            let mut chans = Vec::new();
            for tok in t {
                chans.push(tok.parse().map_err(|_| ParseError {
                    line: n,
                    what: format!("bad route channel id `{tok}`"),
                })?);
            }
            routes.push((net, chans));
        }
        Ok(BoardClaim {
            sites,
            digest,
            channels,
            routes,
        })
    }
}
