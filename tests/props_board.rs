//! Randomized property suite for the board-topology subsystem.
//!
//! Hand-rolled generators over `netpart-rng` (the hermetic build has no
//! `proptest` registry crate; see the policy note in `Cargo.toml`) —
//! every case is a pure function of its seed, so a failure report is a
//! two-integer reproducer. The cheap sweeps run in
//! the default pass; the `#[ignore]`d deep sweeps ride CI's release
//! `--ignored` step.
//!
//! Properties:
//!
//! * every route is a connected, duplicate-free channel set spanning
//!   the demand's sites, and loads/hops re-derive exactly;
//! * a board whose channels all have capacity ≥ the demand count is
//!   capacity-legal (congestion 0);
//! * congestion is monotone in channel capacity and routes are
//!   byte-identical under capacity changes (the router is
//!   capacity-oblivious by contract);
//! * the board digest is invariant under site renaming and channel
//!   reordering, and sensitive to capacity changes.

use netpart::prelude::*;
use netpart_rng::Rng;

/// Builds a random connected board: a random spanning tree plus a few
/// extra channels, with random capacities/hops/widths.
fn random_board(rng: &mut Rng, max_capacity: u32) -> Board {
    let n_sites = 2 + rng.gen_range(0..7);
    let sites: Vec<String> = (0..n_sites).map(|i| format!("s{i}")).collect();
    let mut text = String::from("board random\n");
    for s in &sites {
        text.push_str(&format!("site {s}\n"));
    }
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for b in 1..n_sites {
        // Spanning tree: each site links to a random earlier one.
        edges.push((rng.gen_range(0..b), b));
    }
    for _ in 0..rng.gen_range(0..n_sites) {
        let a = rng.gen_range(0..n_sites);
        let b = rng.gen_range(0..n_sites);
        if a != b {
            edges.push((a.min(b), a.max(b)));
        }
    }
    for (a, b) in edges {
        let capacity = 1 + rng.gen_range(0..max_capacity as usize);
        let hop = 1 + rng.gen_range(0..5);
        let width = 1 + rng.gen_range(0..4);
        text.push_str(&format!(
            "channel {} {} capacity={capacity} hop={hop} width={width}\n",
            sites[a], sites[b]
        ));
    }
    text.push_str("end board\n");
    parse_board(&text).expect("generated boards are well-formed")
}

/// Random cut-net demands: each net touches 2..=n_sites distinct sites.
fn random_demands(rng: &mut Rng, board: &Board, max_nets: usize) -> Vec<NetDemand> {
    let n = rng.gen_range(1..max_nets + 1);
    (0..n as u32)
        .map(|net| {
            let k = 2 + rng.gen_range(0..board.n_sites() - 1);
            let mut sites: Vec<u32> = (0..board.n_sites() as u32).collect();
            rng.shuffle(&mut sites);
            sites.truncate(k);
            sites.sort_unstable();
            NetDemand { net, sites }
        })
        .collect()
}

/// Path-halving union-find `find`.
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        parent[x as usize] = parent[parent[x as usize] as usize];
        x = parent[x as usize];
    }
    x
}

/// Asserts a routing's internal consistency against its board and
/// demands: channel ids valid and duplicate-free per route, every
/// demand's sites connected by its route, loads and hops re-derived.
fn assert_routing_valid(board: &Board, demands: &[NetDemand], routing: &Routing) {
    assert_eq!(routing.routes.len(), demands.len());
    let mut loads = vec![0u32; board.n_channels()];
    let mut hops = 0u64;
    for (route, demand) in routing.routes.iter().zip(demands) {
        assert_eq!(route.net, demand.net);
        let mut seen = vec![false; board.n_channels()];
        let mut parent: Vec<u32> = (0..board.n_sites() as u32).collect();
        for &c in &route.channels {
            let ch = board.channels()[c as usize];
            assert!(!seen[c as usize], "duplicate channel {c} in net {}", route.net);
            seen[c as usize] = true;
            loads[c as usize] += 1;
            hops += u64::from(ch.hop);
            let (ra, rb) = (find(&mut parent, ch.a), find(&mut parent, ch.b));
            parent[ra as usize] = rb;
        }
        let root = find(&mut parent, demand.sites[0]);
        for &s in &demand.sites[1..] {
            assert_eq!(
                find(&mut parent, s),
                root,
                "net {} leaves site {s} disconnected",
                route.net
            );
        }
    }
    assert_eq!(routing.loads, loads, "load bookkeeping drifted");
    assert_eq!(routing.hops, hops, "hop bookkeeping drifted");
}

fn sweep_route_validity(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let mut rng = Rng::seed_from_u64(seed);
        let board = random_board(&mut rng, 8);
        let demands = random_demands(&mut rng, &board, 24);
        let routing = route_nets(&board, &demands).expect("in-range demands route");
        assert_routing_valid(&board, &demands, &routing);
    }
}

#[test]
fn routes_are_valid_spanning_channel_sets() {
    sweep_route_validity(0..40);
}

#[test]
#[ignore = "deep sweep (400 random boards)"]
fn routes_are_valid_spanning_channel_sets_deep() {
    sweep_route_validity(40..440);
}

fn sweep_generous_capacity(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let mut rng = Rng::seed_from_u64(seed);
        // Every channel's capacity (≥ 64) exceeds the demand count
        // (≤ 24), so no channel can overflow.
        let board = {
            let b = random_board(&mut rng, 1);
            let text = b
                .to_text()
                .lines()
                .map(|l| l.replace("capacity=1", "capacity=64"))
                .collect::<Vec<_>>()
                .join("\n");
            parse_board(&text).expect("capacity rewrite keeps the board well-formed")
        };
        let demands = random_demands(&mut rng, &board, 24);
        let routing = route_nets(&board, &demands).expect("routes");
        let objective = TopologyObjective::evaluate(&board, &routing);
        assert!(objective.capacity_legal(), "seed {seed}: {objective}");
        assert_eq!(objective.congestion, 0);
        assert!(objective.max_channel_util <= 1.0);
    }
}

#[test]
fn generous_boards_are_capacity_legal() {
    sweep_generous_capacity(0..40);
}

#[test]
#[ignore = "deep sweep (400 random boards)"]
fn generous_boards_are_capacity_legal_deep() {
    sweep_generous_capacity(40..440);
}

/// Rebuilds `board` with one channel's capacity replaced.
fn with_capacity(board: &Board, channel: usize, capacity: u32) -> Board {
    let mut n_channel_lines = 0usize;
    let text = board
        .to_text()
        .lines()
        .map(|line| {
            if line.starts_with("channel ") {
                let this = n_channel_lines;
                n_channel_lines += 1;
                if this == channel {
                    let cap = board.channels()[channel].capacity;
                    return line.replace(
                        &format!("capacity={cap}"),
                        &format!("capacity={capacity}"),
                    );
                }
            }
            line.to_string()
        })
        .collect::<Vec<_>>()
        .join("\n");
    parse_board(&text).expect("capacity rewrite keeps the board well-formed")
}

fn sweep_capacity_monotonicity(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let mut rng = Rng::seed_from_u64(seed);
        let board = random_board(&mut rng, 4);
        let demands = random_demands(&mut rng, &board, 24);
        let routing = route_nets(&board, &demands).expect("routes");
        let base = TopologyObjective::evaluate(&board, &routing);
        let channel = rng.gen_range(0..board.n_channels());
        let cap = board.channels()[channel].capacity;
        for delta in [1u32, 8, 64] {
            let raised = with_capacity(&board, channel, cap + delta);
            let r2 = route_nets(&raised, &demands).expect("routes");
            // The router is capacity-oblivious: routes (and therefore
            // hops and loads) are byte-identical, so congestion is
            // *exactly* monotone nonincreasing in any capacity raise.
            assert_eq!(r2.routes, routing.routes, "seed {seed}: routes moved");
            assert_eq!(r2.loads, routing.loads);
            let obj = TopologyObjective::evaluate(&raised, &r2);
            assert!(
                obj.congestion <= base.congestion,
                "seed {seed}: capacity +{delta} raised congestion {} -> {}",
                base.congestion,
                obj.congestion
            );
        }
        if cap > 1 {
            let lowered = with_capacity(&board, channel, cap - 1);
            let r3 = route_nets(&lowered, &demands).expect("routes");
            assert_eq!(r3.routes, routing.routes);
            let obj = TopologyObjective::evaluate(&lowered, &r3);
            assert!(obj.congestion >= base.congestion, "seed {seed}");
        }
    }
}

#[test]
fn congestion_is_monotone_in_channel_capacity() {
    sweep_capacity_monotonicity(0..40);
}

#[test]
#[ignore = "deep sweep (400 random boards)"]
fn congestion_is_monotone_in_channel_capacity_deep() {
    sweep_capacity_monotonicity(40..440);
}

fn sweep_digest_invariance(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let mut rng = Rng::seed_from_u64(seed);
        let board = random_board(&mut rng, 8);
        // Rename every site and shuffle the channel lines; the digest
        // keys channels by normalized endpoint indices, so neither
        // transformation may change it.
        let mut site_lines = Vec::new();
        let mut channel_lines = Vec::new();
        let renamed_text = board
            .to_text()
            .lines()
            .map(|l| {
                let mut l = l.to_string();
                for i in (0..board.n_sites()).rev() {
                    l = l.replace(&format!("s{i}"), &format!("renamed_{i}"));
                }
                l
            })
            .collect::<Vec<String>>();
        for l in &renamed_text {
            if l.starts_with("site ") {
                site_lines.push(l.clone());
            } else if l.starts_with("channel ") {
                channel_lines.push(l.clone());
            }
        }
        rng.shuffle(&mut channel_lines);
        let shuffled = format!(
            "board renamed\n{}\n{}\nend board\n",
            site_lines.join("\n"),
            channel_lines.join("\n")
        );
        let twin = parse_board(&shuffled).expect("renamed board parses");
        assert_eq!(board.digest(), twin.digest(), "seed {seed}");
        // ... and it is sensitive to a capacity change.
        let channel = rng.gen_range(0..board.n_channels());
        let bumped = with_capacity(&board, channel, board.channels()[channel].capacity + 1);
        assert_ne!(board.digest(), bumped.digest(), "seed {seed}");
    }
}

#[test]
fn digest_is_invariant_under_renaming_and_reordering() {
    sweep_digest_invariance(0..40);
}

#[test]
#[ignore = "deep sweep (400 random boards)"]
fn digest_is_invariant_under_renaming_and_reordering_deep() {
    sweep_digest_invariance(40..440);
}
