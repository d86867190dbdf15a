//! The benchmark suite of the paper's experiments (Table II), synthesised.
//!
//! The paper evaluates on nine MCNC `partitioning93` circuits: the
//! ISCAS'85 combinational circuits `c3540`, `c5315`, `c6288`, `c7552` and
//! the ISCAS'89 sequential circuits `s5378`, `s9234`, `s13207`, `s15850`,
//! `s38584`, technology-mapped into the XC3000 family. Those mapped
//! netlists are not redistributable, so this module *synthesises*
//! stand-ins with the same names:
//!
//! * gate, PI, PO and DFF counts follow the published ISCAS circuit sizes,
//!   so the post-mapping CLB/IOB/net/pin counts land in the same range as
//!   the paper's Table II;
//! * the sequential circuits are generated with a higher `clustering`
//!   parameter — the paper explains its stronger Table III gains on the
//!   `s*` circuits by their cells being "more clustered".
//!
//! The substitution is documented in `DESIGN.md` §3.

use crate::generate::{generate, GeneratorConfig};
use crate::model::Netlist;

/// Generation parameters for one named benchmark.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BenchSpec {
    /// Benchmark name (matching the paper's tables).
    pub name: &'static str,
    /// Combinational gate count (from the published ISCAS sizes).
    pub gates: usize,
    /// Primary inputs.
    pub pi: usize,
    /// Primary outputs.
    pub po: usize,
    /// D flip-flops.
    pub dff: usize,
    /// Clustering parameter (higher for the sequential circuits).
    pub clustering: f64,
    /// Generator seed (fixed so every run sees identical circuits).
    pub seed: u64,
}

impl BenchSpec {
    /// The generator configuration realising this spec.
    pub fn config(&self) -> GeneratorConfig {
        GeneratorConfig::new(self.gates)
            .with_pi(self.pi)
            .with_po(self.po)
            .with_dff(self.dff)
            .with_clustering(self.clustering)
            .with_seed(self.seed)
    }

    /// Generates the benchmark netlist.
    pub fn build(&self) -> Netlist {
        let mut nl = generate(&self.config());
        nl.set_name(self.name);
        nl
    }

    /// Returns `true` for the sequential (`s*`) circuits.
    pub fn is_sequential(&self) -> bool {
        self.dff > 0
    }
}

/// The nine benchmarks of the paper's Tables II–VII and Fig. 3.
pub const SPECS: [BenchSpec; 9] = [
    BenchSpec {
        name: "c3540",
        gates: 1669,
        pi: 50,
        po: 22,
        dff: 0,
        clustering: 0.55,
        seed: 3540,
    },
    BenchSpec {
        name: "c5315",
        gates: 2307,
        pi: 178,
        po: 123,
        dff: 0,
        clustering: 0.55,
        seed: 5315,
    },
    BenchSpec {
        name: "c6288",
        gates: 2416,
        pi: 32,
        po: 32,
        dff: 0,
        clustering: 0.80,
        seed: 6288,
    },
    BenchSpec {
        name: "c7552",
        gates: 3512,
        pi: 207,
        po: 108,
        dff: 0,
        clustering: 0.55,
        seed: 7552,
    },
    BenchSpec {
        name: "s5378",
        gates: 2779,
        pi: 35,
        po: 49,
        dff: 179,
        clustering: 0.85,
        seed: 5378,
    },
    BenchSpec {
        name: "s9234",
        gates: 5597,
        pi: 36,
        po: 39,
        dff: 211,
        clustering: 0.85,
        seed: 9234,
    },
    BenchSpec {
        name: "s13207",
        gates: 7951,
        pi: 62,
        po: 152,
        dff: 638,
        clustering: 0.85,
        seed: 13207,
    },
    BenchSpec {
        name: "s15850",
        gates: 9772,
        pi: 77,
        po: 150,
        dff: 534,
        clustering: 0.85,
        seed: 15850,
    },
    BenchSpec {
        name: "s38584",
        gates: 19253,
        pi: 38,
        po: 304,
        dff: 1426,
        clustering: 0.85,
        seed: 38584,
    },
];

/// Looks a benchmark spec up by name.
pub fn spec(name: &str) -> Option<&'static BenchSpec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Generates a benchmark netlist by name.
pub fn build(name: &str) -> Option<Netlist> {
    spec(name).map(BenchSpec::build)
}

/// The benchmark names in table order.
pub fn names() -> impl Iterator<Item = &'static str> {
    SPECS.iter().map(|s| s.name)
}

/// A reduced-size version of a named benchmark for fast tests: the same
/// proportions and clustering at `1/scale_down` of the gate count.
///
/// Returns `None` for unknown names.
pub fn build_scaled(name: &str, scale_down: usize) -> Option<Netlist> {
    let s = spec(name)?;
    let d = scale_down.max(1);
    let cfg = GeneratorConfig::new((s.gates / d).max(32))
        .with_pi((s.pi / d).max(4))
        .with_po((s.po / d).max(2))
        .with_dff(s.dff / d)
        .with_clustering(s.clustering)
        .with_seed(s.seed);
    let mut nl = generate(&cfg);
    nl.set_name(format!("{}_div{}", s.name, d));
    Some(nl)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_specs_lookup() {
        assert_eq!(names().count(), 9);
        assert!(spec("s9234").is_some());
        assert!(spec("c1355").is_none());
        assert!(build("nope").is_none());
    }

    #[test]
    fn sequential_flags() {
        assert!(spec("s5378").unwrap().is_sequential());
        assert!(!spec("c3540").unwrap().is_sequential());
    }

    #[test]
    fn smallest_benchmark_builds_and_validates() {
        let nl = build("c3540").unwrap();
        nl.validate().unwrap();
        assert_eq!(nl.name(), "c3540");
        assert_eq!(nl.primary_inputs().len(), 50);
        assert_eq!(nl.n_dffs(), 0);
        assert_eq!(nl.n_gates(), 1669);
    }

    #[test]
    fn scaled_versions_shrink() {
        let nl = build_scaled("s9234", 10).unwrap();
        nl.validate().unwrap();
        assert_eq!(nl.n_dffs(), 21);
        assert!(nl.n_gates() < 700);
        assert_eq!(nl.name(), "s9234_div10");
    }
}
