//! Deterministic channel router: assigns every cut net to a tree of
//! board channels connecting the sites its parts occupy.
//!
//! Determinism contract (DESIGN.md §17): the router is a pure function
//! of `(board structure, demand list)`. Nets are routed in ascending
//! net-id order; each net grows a Steiner tree greedily — repeated
//! multi-source shortest-path searches from the partial tree, with path
//! cost ordered by `(Σ hop, Σ load-before-this-net, site id)` and
//! channels relaxed in ascending channel-id order. No hash-map
//! iteration, no randomness, no wall-clock input.
//!
//! The router is *capacity-oblivious*: channel capacities never affect
//! route choice (load-awareness uses only the loads imposed by earlier
//! nets in this same call). Consequently routes are byte-identical
//! across boards that differ only in capacities, which makes the
//! congestion term Σ_c max(0, load_c − cap_c) exactly monotone
//! nonincreasing in any capacity — a property the test lab checks, not
//! just a heuristic hope.

use crate::error::BoardError;
use crate::model::Board;

/// One net's routing demand: the distinct sites its pins' parts map to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetDemand {
    /// Net id (hypergraph net index).
    pub net: u32,
    /// Distinct site indices the net must connect, sorted ascending.
    pub sites: Vec<u32>,
}

/// The channel tree chosen for one net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Net id this route serves.
    pub net: u32,
    /// Channel indices of the routing tree, sorted ascending.
    pub channels: Vec<u32>,
}

/// The result of routing a full demand list over a board.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Routing {
    /// One route per demand with ≥ 2 sites, in ascending net order.
    pub routes: Vec<Route>,
    /// Per-channel load: how many routed nets use each channel.
    pub loads: Vec<u32>,
    /// Total hop cost: Σ over routes Σ channel hop.
    pub hops: u64,
    /// Total congestion: `Σ_c max(0, loads[c] − capacity[c])`.
    pub congestion: u64,
}

impl Routing {
    /// Number of channels whose load exceeds capacity.
    pub fn overflowed_channels(&self, board: &Board) -> usize {
        board
            .channels()
            .iter()
            .zip(&self.loads)
            .filter(|(ch, &load)| load > ch.capacity)
            .count()
    }
}

/// Routes every demand over the board. Demands with fewer than two
/// sites are skipped (an uncut net crosses no channel). Errors only on
/// out-of-range site indices — a validated board is connected, so every
/// in-range demand is routable.
pub fn route_nets(board: &Board, demands: &[NetDemand]) -> Result<Routing, BoardError> {
    let n_sites = board.n_sites();
    let mut loads = vec![0u32; board.n_channels()];
    let mut routes = Vec::new();

    let mut order: Vec<&NetDemand> = demands.iter().collect();
    order.sort_by_key(|d| d.net);

    // Scratch arrays reused across nets; `dist` keys are (hops, load).
    let mut dist: Vec<Option<(u64, u64)>> = vec![None; n_sites];
    let mut parent: Vec<Option<u32>> = vec![None; n_sites];
    let mut in_tree = vec![false; n_sites];

    for demand in order {
        for &s in &demand.sites {
            if (s as usize) >= n_sites {
                return Err(BoardError::SiteOutOfRange {
                    site: s,
                    sites: n_sites,
                });
            }
        }
        if demand.sites.len() < 2 {
            continue;
        }
        let mut terminals: Vec<u32> = demand.sites.clone();
        terminals.sort_unstable();
        terminals.dedup();

        let mut tree_channels: Vec<u32> = Vec::new();
        let mut tree_sites: Vec<u32> = vec![terminals[0]];
        let mut remaining: Vec<u32> = terminals[1..].to_vec();

        while !remaining.is_empty() {
            // Multi-source Dijkstra from the current tree. Site count is
            // small (boards have a handful of FPGAs), so a linear scan
            // for the frontier minimum keeps this allocation-free and
            // trivially deterministic.
            for d in dist.iter_mut() {
                *d = None;
            }
            for p in parent.iter_mut() {
                *p = None;
            }
            let mut settled = vec![false; n_sites];
            for &s in &tree_sites {
                dist[s as usize] = Some((0, 0));
            }
            loop {
                let mut next: Option<usize> = None;
                let mut best = (u64::MAX, u64::MAX);
                for (s, d) in dist.iter().enumerate() {
                    if settled[s] {
                        continue;
                    }
                    if let Some(key) = *d {
                        if key < best {
                            best = key;
                            next = Some(s);
                        }
                    }
                }
                let Some(s) = next else { break };
                settled[s] = true;
                let (hops_here, load_here) = best;
                for &c in board.incident(s) {
                    let ch = board.channels()[c as usize];
                    let other = if ch.a as usize == s { ch.b } else { ch.a } as usize;
                    if settled[other] {
                        continue;
                    }
                    let key = (
                        hops_here + u64::from(ch.hop),
                        load_here + u64::from(loads[c as usize]),
                    );
                    // Strict improvement only: with ties broken by the
                    // scan order above (lowest site id) and the
                    // ascending channel iteration here, the parent tree
                    // is unique for a given (board, loads) state.
                    if dist[other].is_none_or(|cur| key < cur) {
                        dist[other] = Some(key);
                        parent[other] = Some(c);
                    }
                }
            }
            // Nearest remaining terminal; ties favour the lowest id.
            let (pos, _) = remaining
                .iter()
                .enumerate()
                .min_by_key(|(_, &t)| (dist[t as usize].unwrap_or((u64::MAX, u64::MAX)), t))
                .expect("remaining is non-empty");
            let target = remaining.swap_remove(pos);
            remaining.sort_unstable();
            debug_assert!(
                dist[target as usize].is_some(),
                "validated boards are connected"
            );
            // Walk parents back to the tree, claiming channels.
            let mut cursor = target as usize;
            while let Some(c) = parent[cursor] {
                if in_tree[cursor] {
                    break;
                }
                tree_channels.push(c);
                tree_sites.push(cursor as u32);
                let ch = board.channels()[c as usize];
                cursor = if ch.a as usize == cursor { ch.b } else { ch.a } as usize;
            }
            if !tree_sites.contains(&(cursor as u32)) {
                tree_sites.push(cursor as u32);
            }
            for &s in &tree_sites {
                in_tree[s as usize] = true;
            }
        }
        for s in in_tree.iter_mut() {
            *s = false;
        }

        tree_channels.sort_unstable();
        tree_channels.dedup();
        for &c in &tree_channels {
            loads[c as usize] += 1;
        }
        routes.push(Route {
            net: demand.net,
            channels: tree_channels,
        });
    }

    let mut hops = 0u64;
    for route in &routes {
        for &c in &route.channels {
            hops += u64::from(board.channels()[c as usize].hop);
        }
    }
    let congestion = board
        .channels()
        .iter()
        .zip(&loads)
        .map(|(ch, &load)| u64::from(load.saturating_sub(ch.capacity)))
        .sum();

    Ok(Routing {
        routes,
        loads,
        hops,
        congestion,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Board;

    fn demand(net: u32, sites: &[u32]) -> NetDemand {
        NetDemand {
            net,
            sites: sites.to_vec(),
        }
    }

    #[test]
    fn direct2_routes_every_cut_net_over_the_single_channel() {
        let board = Board::direct2();
        let routing =
            route_nets(&board, &[demand(0, &[0, 1]), demand(3, &[0, 1])]).expect("routes");
        assert_eq!(routing.routes.len(), 2);
        for r in &routing.routes {
            assert_eq!(r.channels, vec![0]);
        }
        assert_eq!(routing.loads, vec![2]);
        assert_eq!(routing.hops, 2);
        assert_eq!(routing.congestion, 0);
    }

    #[test]
    fn star_leaf_to_leaf_pays_two_hops() {
        let board = Board::star(4);
        // leaf0 = site 1, leaf3 = site 4.
        let routing = route_nets(&board, &[demand(0, &[1, 4])]).expect("routes");
        assert_eq!(routing.routes[0].channels.len(), 2);
        assert_eq!(routing.hops, 2);
    }

    #[test]
    fn multi_terminal_net_gets_a_connected_tree() {
        let board = Board::mesh2x2();
        let routing = route_nets(&board, &[demand(0, &[0, 1, 2, 3])]).expect("routes");
        // A Steiner tree over all four mesh corners needs exactly 3 edges.
        assert_eq!(routing.routes[0].channels.len(), 3);
        assert_eq!(routing.hops, 3);
    }

    #[test]
    fn uncut_nets_are_skipped() {
        let board = Board::direct2();
        let routing = route_nets(&board, &[demand(0, &[1])]).expect("routes");
        assert!(routing.routes.is_empty());
        assert_eq!(routing.loads, vec![0]);
    }

    #[test]
    fn load_awareness_spreads_parallel_channels() {
        // Two parallel channels between the same pair: successive nets
        // alternate because the second key (load) breaks the hop tie.
        let board = Board::try_new(
            "parallel",
            vec![
                crate::model::Site {
                    name: "a".into(),
                    device_class: None,
                },
                crate::model::Site {
                    name: "b".into(),
                    device_class: None,
                },
            ],
            vec![
                crate::model::Channel {
                    a: 0,
                    b: 1,
                    capacity: 1,
                    hop: 1,
                    width: 1,
                },
                crate::model::Channel {
                    a: 0,
                    b: 1,
                    capacity: 1,
                    hop: 1,
                    width: 1,
                },
            ],
        )
        .expect("valid");
        let routing = route_nets(
            &board,
            &[demand(0, &[0, 1]), demand(1, &[0, 1]), demand(2, &[0, 1])],
        )
        .expect("routes");
        assert_eq!(routing.loads, vec![2, 1]);
        assert_eq!(routing.congestion, 1);
    }

    #[test]
    fn routes_are_independent_of_capacity() {
        let mk = |cap: u32| {
            let mesh = Board::mesh2x2();
            let channels: Vec<_> = mesh
                .channels()
                .iter()
                .map(|ch| crate::model::Channel {
                    capacity: cap,
                    ..*ch
                })
                .collect();
            Board::try_new("mesh2x2", mesh.sites().to_vec(), channels).expect("valid")
        };
        let demands = vec![demand(0, &[0, 3]), demand(1, &[1, 2]), demand(2, &[0, 1, 3])];
        let tight = route_nets(&mk(1), &demands).expect("routes");
        let roomy = route_nets(&mk(1000), &demands).expect("routes");
        assert_eq!(tight.routes, roomy.routes);
        assert_eq!(tight.loads, roomy.loads);
        assert!(tight.congestion >= roomy.congestion);
        assert_eq!(roomy.congestion, 0);
    }
}
