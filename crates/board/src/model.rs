//! The board-topology graph: device sites as nodes, inter-FPGA channels
//! as edges with capacity / hop-cost / width attributes.
//!
//! Channels are undirected and parallel channels between the same site
//! pair are allowed (they model independent cable bundles). The board
//! must be connected so that every cut net is routable; `try_new`
//! enforces this along with name uniqueness and positive attributes.

use crate::error::BoardError;
use netpart_rng::Fnv1a;

/// A device site on the board — the physical slot part `j` of a
/// placement is hosted on (the mapping is the identity: part 0 → site 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// Site name, unique on the board.
    pub name: String,
    /// Optional device-class annotation (informational; feasibility is
    /// still decided by the device library during partitioning).
    pub device_class: Option<String>,
}

/// An undirected inter-FPGA channel between two sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Channel {
    /// First endpoint (site index).
    pub a: u32,
    /// Second endpoint (site index).
    pub b: u32,
    /// How many cut nets the channel can carry before it congests.
    pub capacity: u32,
    /// Hop cost of crossing the channel (≥ 1).
    pub hop: u32,
    /// Physical wire width (informational; ≥ 1).
    pub width: u32,
}

/// A validated board: named sites plus undirected capacitated channels,
/// with a prebuilt adjacency index for the router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Board {
    name: String,
    sites: Vec<Site>,
    channels: Vec<Channel>,
    /// Per-site list of incident channel indices, each sorted ascending
    /// so every traversal is deterministic.
    adjacency: Vec<Vec<u32>>,
}

impl Board {
    /// Validates and indexes a board. Errors on: no sites, duplicate
    /// site names, channel endpoints out of range or equal (self-loop),
    /// zero capacity / hop / width, or a disconnected site graph.
    pub fn try_new(
        name: impl Into<String>,
        sites: Vec<Site>,
        channels: Vec<Channel>,
    ) -> Result<Self, BoardError> {
        let invalid = |what: String| Err(BoardError::Invalid { what });
        if sites.is_empty() {
            return invalid("board has no sites".into());
        }
        let mut seen = std::collections::BTreeSet::new();
        for site in &sites {
            if site.name.is_empty() {
                return invalid("empty site name".into());
            }
            if !seen.insert(site.name.as_str()) {
                return invalid(format!("duplicate site `{}`", site.name));
            }
        }
        let n = sites.len();
        for ch in &channels {
            if (ch.a as usize) >= n || (ch.b as usize) >= n {
                return invalid(format!(
                    "channel endpoint out of range ({}-{}, {} sites)",
                    ch.a, ch.b, n
                ));
            }
            if ch.a == ch.b {
                return invalid(format!("channel {}-{} is a self-loop", ch.a, ch.b));
            }
            if ch.capacity == 0 {
                return invalid(format!("channel {}-{} has zero capacity", ch.a, ch.b));
            }
            if ch.hop == 0 {
                return invalid(format!("channel {}-{} has zero hop cost", ch.a, ch.b));
            }
            if ch.width == 0 {
                return invalid(format!("channel {}-{} has zero width", ch.a, ch.b));
            }
        }
        let mut adjacency = vec![Vec::new(); n];
        for (idx, ch) in channels.iter().enumerate() {
            adjacency[ch.a as usize].push(idx as u32);
            adjacency[ch.b as usize].push(idx as u32);
        }
        let board = Board {
            name: name.into(),
            sites,
            channels,
            adjacency,
        };
        if n > 1 {
            let mut visited = vec![false; n];
            let mut stack = vec![0usize];
            visited[0] = true;
            let mut reached = 1usize;
            while let Some(s) = stack.pop() {
                for &c in &board.adjacency[s] {
                    let ch = board.channels[c as usize];
                    let other = if ch.a as usize == s { ch.b } else { ch.a } as usize;
                    if !visited[other] {
                        visited[other] = true;
                        reached += 1;
                        stack.push(other);
                    }
                }
            }
            if reached < n {
                return invalid(format!(
                    "board is disconnected ({reached} of {n} sites reachable from `{}`)",
                    board.sites[0].name
                ));
            }
        }
        Ok(board)
    }

    /// Board name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of device sites.
    pub fn n_sites(&self) -> usize {
        self.sites.len()
    }

    /// Number of channels.
    pub fn n_channels(&self) -> usize {
        self.channels.len()
    }

    /// All sites, indexed by site id.
    pub fn sites(&self) -> &[Site] {
        &self.sites
    }

    /// All channels, indexed by channel id.
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// Channel indices incident to `site`, ascending.
    pub fn incident(&self, site: usize) -> &[u32] {
        &self.adjacency[site]
    }

    /// FNV-1a digest of the board *structure*: site count and the
    /// multiset of channels keyed by endpoint indices and attributes.
    /// Site names, device-class annotations, the board name, and the
    /// textual order of channel lines are all excluded, so renaming
    /// sites or reordering channel declarations never changes the
    /// digest (the rename-invariance contract, DESIGN.md §17).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.sites.len() as u64);
        let mut keys: Vec<[u64; 5]> = self
            .channels
            .iter()
            .map(|ch| {
                let (lo, hi) = if ch.a <= ch.b {
                    (ch.a, ch.b)
                } else {
                    (ch.b, ch.a)
                };
                [
                    u64::from(lo),
                    u64::from(hi),
                    u64::from(ch.capacity),
                    u64::from(ch.hop),
                    u64::from(ch.width),
                ]
            })
            .collect();
        keys.sort_unstable();
        h.write_u64(keys.len() as u64);
        for v in keys.into_iter().flatten() {
            h.write_u64(v);
        }
        h.finish()
    }

    /// Serializes the board back to `.board` text; `parse` round-trips
    /// the result exactly.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("board {}\n", self.name));
        for site in &self.sites {
            match &site.device_class {
                Some(class) => out.push_str(&format!("site {} device={class}\n", site.name)),
                None => out.push_str(&format!("site {}\n", site.name)),
            }
        }
        for ch in &self.channels {
            out.push_str(&format!(
                "channel {} {} capacity={} hop={} width={}\n",
                self.sites[ch.a as usize].name,
                self.sites[ch.b as usize].name,
                ch.capacity,
                ch.hop,
                ch.width
            ));
        }
        out.push_str("end board\n");
        out
    }

    /// Built-in scenario: two FPGAs joined by one direct cable bundle.
    pub fn direct2() -> Self {
        let sites = vec![named("fpga0"), named("fpga1")];
        let channels = vec![Channel {
            a: 0,
            b: 1,
            capacity: 64,
            hop: 1,
            width: 32,
        }];
        Self::try_new("direct2", sites, channels).expect("builtin board is valid")
    }

    /// Built-in scenario: a 2×2 mesh (sites `m00 m01 m10 m11`, four
    /// grid-edge channels).
    pub fn mesh2x2() -> Self {
        let sites = vec![named("m00"), named("m01"), named("m10"), named("m11")];
        let edge = |a: u32, b: u32| Channel {
            a,
            b,
            capacity: 32,
            hop: 1,
            width: 16,
        };
        let channels = vec![edge(0, 1), edge(2, 3), edge(0, 2), edge(1, 3)];
        Self::try_new("mesh2x2", sites, channels).expect("builtin board is valid")
    }

    /// Built-in chiplet-style scenario: a routing hub (site 0) with
    /// `leaves` device sites hanging off it; leaf-to-leaf traffic pays
    /// two hops through the hub.
    pub fn star(leaves: usize) -> Self {
        assert!(leaves >= 2, "a star needs at least two leaves");
        let mut sites = vec![named("hub")];
        let mut channels = Vec::with_capacity(leaves);
        for i in 0..leaves {
            sites.push(named(&format!("leaf{i}")));
            channels.push(Channel {
                a: 0,
                b: (i + 1) as u32,
                capacity: 48,
                hop: 1,
                width: 16,
            });
        }
        Self::try_new(format!("star{leaves}"), sites, channels).expect("builtin board is valid")
    }
}

fn named(name: &str) -> Site {
    Site {
        name: name.to_string(),
        device_class: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_validate_and_roundtrip() {
        for board in [Board::direct2(), Board::mesh2x2(), Board::star(8)] {
            let text = board.to_text();
            let reparsed = crate::parse::parse(&text).expect("round-trip parses");
            assert_eq!(board, reparsed);
        }
    }

    #[test]
    fn star_hosts_leaves_plus_hub() {
        let b = Board::star(8);
        assert_eq!(b.n_sites(), 9);
        assert_eq!(b.n_channels(), 8);
    }

    #[test]
    fn digest_ignores_names_and_channel_order() {
        let base = Board::direct2();
        let renamed = Board::try_new(
            "other-name",
            vec![named("alpha"), named("beta")],
            vec![Channel {
                a: 0,
                b: 1,
                capacity: 64,
                hop: 1,
                width: 32,
            }],
        )
        .expect("valid");
        assert_eq!(base.digest(), renamed.digest());

        let mesh = Board::mesh2x2();
        let mut shuffled: Vec<Channel> = mesh.channels().to_vec();
        shuffled.reverse();
        let reordered = Board::try_new("mesh2x2", mesh.sites().to_vec(), shuffled).expect("valid");
        assert_eq!(mesh.digest(), reordered.digest());
        assert_ne!(base.digest(), mesh.digest());
    }

    #[test]
    fn disconnected_board_is_rejected() {
        let err = Board::try_new(
            "split",
            vec![named("a"), named("b"), named("c")],
            vec![Channel {
                a: 0,
                b: 1,
                capacity: 1,
                hop: 1,
                width: 1,
            }],
        )
        .unwrap_err();
        assert!(matches!(err, BoardError::Invalid { .. }));
        assert!(err.to_string().contains("disconnected"));
    }

    #[test]
    fn zero_capacity_is_rejected() {
        let err = Board::try_new(
            "z",
            vec![named("a"), named("b")],
            vec![Channel {
                a: 0,
                b: 1,
                capacity: 0,
                hop: 1,
                width: 1,
            }],
        )
        .unwrap_err();
        assert!(err.to_string().contains("zero capacity"));
    }
}
