//! Table-driven coverage of the [`Violation`] code vocabulary.
//!
//! Every variant has (a) a stable short code — downstream tooling greps
//! verifier output for these strings, so renaming one is a breaking
//! change — and (b) a concrete certificate mutation that triggers it.
//! The table below pairs each code with such a mutation of one honest
//! base certificate; `expected_code` re-states every code as a literal
//! in an exhaustive match, so adding a `Violation` variant fails this
//! test's build until the new code and a triggering row are added here.
//!
//! A mutation may legitimately trip adjacent checks too (e.g. breaking
//! a device window also flips the feasibility flag), so each case
//! asserts its code is *present*, not alone — but every violation in
//! every report is cross-checked against `expected_code`, pinning the
//! whole vocabulary, and the report must never be clean.

use netpart_hypergraph::{CellId, PartId, Placement};
use netpart_verify::{
    gen, verify, BoardClaim, CellCopySpec, CertKind, ChannelSpec, DeviceSpec, SolutionCertificate,
    Violation,
};

/// The stable code contract, restated independently of
/// `Violation::code`. No wildcard arm: a new variant breaks the build
/// here until its code (and a trigger row below) is added.
fn expected_code(v: &Violation) -> &'static str {
    match v {
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

/// A device so generous (window `[0, 1]`, huge capacities) that any
/// placement is feasible on it — the base certificate must be clean.
fn generous(name: &str, price: u64) -> DeviceSpec {
    DeviceSpec {
        name: name.to_string(),
        clbs: 1_000_000,
        iobs: 1_000_000,
        price,
        min_util: 0.0,
        max_util: 1.0,
    }
}

/// An honest k-way certificate with a board section over a small mapped
/// circuit, built by bootstrapping the claims from the verifier's own
/// recomputation (so base-cleanliness is guaranteed by construction,
/// not by duplicating the claim math here).
fn base_certificate(
    hg: &netpart_hypergraph::Hypergraph,
    placement: &Placement,
) -> SolutionCertificate {
    let mut cert = SolutionCertificate::from_bipartition(hg, placement, 7);
    cert.kind = CertKind::KWay;
    cert.library = vec![generous("gen-a", 100), generous("gen-b", 170)];
    cert.devices = vec![0, 1];
    let pre = verify(hg, &cert);
    cert.claims.total_cost = pre.recomputed().total_cost;
    cert.claims.kbar_bits = pre.recomputed().kbar.map(f64::to_bits);
    cert.claims.feasible = pre.recomputed().feasible;

    // One fat channel between the two sites; every cut net routes over
    // it. Hop/congestion claims are bootstrapped the same way.
    let board = BoardClaim {
        sites: 2,
        digest: 0xfeed_beef,
        channels: vec![ChannelSpec {
            a: 0,
            b: 1,
            capacity: 1_000_000,
            hop: 1,
        }],
        routes: cert.claims.cut_nets.iter().map(|&n| (n, vec![0])).collect(),
    };
    cert = cert.with_board(board, 0, 0);
    let pre = verify(hg, &cert);
    cert.claims.hops = pre.recomputed().hops;
    cert.claims.congestion = pre.recomputed().congestion;
    cert
}

type Mutation = Box<dyn Fn(&mut SolutionCertificate)>;

#[test]
fn every_violation_code_is_stable_and_has_a_triggering_input() {
    let hg = gen::mapped(120, 8, 7);
    let mut placement = Placement::new_uniform(&hg, 2, PartId(0));
    for i in (1..hg.n_cells()).step_by(2) {
        placement.place(CellId(i as u32), PartId(1));
    }
    let base = base_certificate(&hg, &placement);
    let report = verify(&hg, &base);
    assert!(
        report.is_clean(),
        "base certificate must be honest: {report}"
    );
    assert!(
        !base.claims.cut_nets.is_empty(),
        "the alternating placement must cut nets for the route cases"
    );
    assert!(
        base.claims.part_terminals.iter().all(|&t| t > 0),
        "both parts need terminals for the infeasible-part case"
    );

    // Cell-level fixtures: a replicable logic cell (for the copy-mask
    // cases) and a terminal pad. `cert.cells` is in cell-id order, so
    // the id doubles as the index.
    let logic = hg
        .cell_ids()
        .find(|&c| !hg.cell(c).is_terminal() && hg.cell(c).m_outputs() >= 1)
        .expect("mapped circuits have logic cells");
    let logic_full: u32 = (1u32 << hg.cell(logic).m_outputs()) - 1;
    let pad = hg
        .cell_ids()
        .find(|&c| hg.cell(c).is_terminal())
        .expect("mapped circuits have pads");
    let uncut = (0..hg.n_nets() as u32)
        .find(|&n| base.claims.cut_nets.binary_search(&n).is_err())
        .expect("some net is uncut");

    let cases: Vec<(&'static str, Mutation)> = vec![
        ("circuit-mismatch", Box::new(|c| c.total_area += 1)),
        (
            "unknown-cell",
            Box::new({
                let ghost = hg.n_cells() as u32;
                move |c| {
                    c.cells.push((
                        ghost,
                        vec![CellCopySpec {
                            part: 0,
                            outputs: 1,
                        }],
                    ))
                }
            }),
        ),
        (
            "duplicate-cell",
            Box::new(|c| {
                let first = c.cells[0].clone();
                c.cells.push(first);
            }),
        ),
        ("missing-cell", Box::new(|c| drop(c.cells.remove(0)))),
        ("part-out-of-range", Box::new(|c| c.cells[0].1[0].part = 2)),
        (
            "empty-copy",
            Box::new(move |c| {
                c.cells[logic.index()].1 = vec![
                    CellCopySpec {
                        part: 0,
                        outputs: logic_full,
                    },
                    CellCopySpec {
                        part: 1,
                        outputs: 0,
                    },
                ];
            }),
        ),
        (
            "outputs-not-partitioned",
            Box::new(move |c| c.cells[logic.index()].1[0].outputs = 0),
        ),
        (
            "replicated-terminal",
            Box::new(move |c| {
                let full = c.cells[pad.index()].1[0].outputs;
                c.cells[pad.index()].1 = vec![
                    CellCopySpec {
                        part: 0,
                        outputs: full,
                    },
                    CellCopySpec {
                        part: 1,
                        outputs: 0,
                    },
                ];
            }),
        ),
        (
            "phantom-net",
            Box::new({
                let ghost = hg.n_nets() as u32;
                move |c| c.claims.cut_nets.push(ghost)
            }),
        ),
        (
            "cut-net-not-cut",
            Box::new(move |c| {
                let pos = c
                    .claims
                    .cut_nets
                    .binary_search(&uncut)
                    .expect_err("uncut net is absent");
                c.claims.cut_nets.insert(pos, uncut);
            }),
        ),
        (
            "cut-net-missing",
            Box::new(|c| {
                c.claims.cut_nets.remove(0);
            }),
        ),
        (
            "part-clb-mismatch",
            Box::new(|c| c.claims.part_clbs[0] += 1),
        ),
        (
            "part-terminal-mismatch",
            Box::new(|c| c.claims.part_terminals[0] += 1),
        ),
        (
            "device-out-of-range",
            Box::new(|c| c.devices[0] = c.library.len()),
        ),
        ("missing-device", Box::new(|c| c.devices.clear())),
        (
            // Shrinking the device's IOB cap below the part's real
            // terminal usage breaks the window while `claim feasible
            // true` stands — the honest-infeasible carve-out must not
            // swallow the detail row.
            "infeasible-part",
            Box::new(|c| c.library[0].iobs = 0),
        ),
        (
            "cost-mismatch",
            Box::new(|c| c.claims.total_cost = c.claims.total_cost.map(|v| v + 1)),
        ),
        (
            "kbar-mismatch",
            Box::new(|c| c.claims.kbar_bits = c.claims.kbar_bits.map(|b| b ^ 1)),
        ),
        (
            "feasibility-mismatch",
            Box::new(|c| c.claims.feasible = Some(false)),
        ),
        (
            "board-site-overflow",
            Box::new(|c| c.board.as_mut().expect("board attached").sites = 1),
        ),
        (
            "channel-endpoint-out-of-range",
            Box::new(|c| c.board.as_mut().expect("board attached").channels[0].b = 9),
        ),
        (
            "route-missing",
            Box::new(|c| drop(c.board.as_mut().expect("board attached").routes.remove(0))),
        ),
        (
            "route-extraneous",
            Box::new(|c| {
                let b = c.board.as_mut().expect("board attached");
                let again = b.routes[0].clone();
                b.routes.push(again);
            }),
        ),
        (
            "route-phantom-channel",
            Box::new(|c| c.board.as_mut().expect("board attached").routes[0].1 = vec![7]),
        ),
        (
            "route-duplicate-channel",
            Box::new(|c| c.board.as_mut().expect("board attached").routes[0].1 = vec![0, 0]),
        ),
        (
            "route-disconnected",
            Box::new(|c| {
                c.board.as_mut().expect("board attached").routes[0]
                    .1
                    .clear()
            }),
        ),
        (
            "hops-mismatch",
            Box::new(|c| c.claims.hops = c.claims.hops.map(|v| v + 1)),
        ),
        (
            "congestion-mismatch",
            Box::new(|c| c.claims.congestion = c.claims.congestion.map(|v| v + 5)),
        ),
    ];

    // Table sanity: one row per code, no repeats.
    let mut codes: Vec<&str> = cases.iter().map(|(code, _)| *code).collect();
    codes.sort_unstable();
    codes.dedup();
    assert_eq!(codes.len(), cases.len(), "duplicate code row in the table");

    for (code, mutate) in &cases {
        let mut cert = base.clone();
        mutate(&mut cert);
        let report = verify(&hg, &cert);
        assert!(!report.is_clean(), "{code}: mutation went undetected");
        for v in report.violations() {
            assert_eq!(
                v.code(),
                expected_code(v),
                "{code}: a reported code drifted from the stable vocabulary"
            );
        }
        assert!(
            report.violations().iter().any(|v| v.code() == *code),
            "{code}: expected among {:?}",
            report
                .violations()
                .iter()
                .map(Violation::code)
                .collect::<Vec<_>>()
        );
    }
}
