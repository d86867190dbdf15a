//! Shared deterministic circuit generators for the differential and
//! property harnesses.
//!
//! Promoted from the `tests/props_*` suites so the certificate
//! differential tests (including `netpart-core`'s unit tests), the
//! seeded property suites and the examples all draw from one source of
//! truth. Everything here is a pure function of its seeds.

use netpart_hypergraph::Hypergraph;
use netpart_netlist::{generate, GeneratorConfig, Netlist};
use netpart_techmap::{map, MapperConfig};

/// A synthetic gate-level netlist: `gates` combinational gates plus
/// `dffs` flip-flops at the given clustering factor.
pub fn gen_netlist(gates: usize, dffs: usize, clustering: f64, seed: u64) -> Netlist {
    generate(
        &GeneratorConfig::new(gates)
            .with_dff(dffs)
            .with_clustering(clustering)
            .with_seed(seed),
    )
}

/// A generated netlist taken through XC3000 technology mapping to a
/// CLB-level hypergraph (clustering 0.6, the props-suite default).
///
/// # Panics
///
/// Panics if mapping fails — generated netlists always map.
pub fn mapped(gates: usize, dffs: usize, seed: u64) -> Hypergraph {
    let nl = gen_netlist(gates, dffs, 0.6, seed);
    map(&nl, &MapperConfig::xc3000())
        .expect("generated netlists map")
        .to_hypergraph(&nl)
}

/// A mapped circuit plus a deterministic pseudo-random bipartition side
/// vector (xorshift64 over `side_seed`), as used by the gain-model
/// property suite.
pub fn mapped_with_sides(
    gates: usize,
    dffs: usize,
    seed: u64,
    side_seed: u64,
) -> (Hypergraph, Vec<u8>) {
    let hg = mapped(gates, dffs, seed);
    let mut x = side_seed | 1;
    let sides = (0..hg.n_cells())
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x & 1) as u8
        })
        .collect();
    (hg, sides)
}
