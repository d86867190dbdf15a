//! The three workloads: which circuits each one generates from the seed,
//! and which engine call solves them.

use netpart_core::{BipartitionConfig, KWayConfig, PartitionError, ReplicationMode};
use netpart_engine::{Engine, KWayPortfolioResult, PortfolioResult};
use netpart_fpga::DeviceLibrary;
use netpart_hypergraph::Hypergraph;
use netpart_multilevel::MultilevelConfig;
use netpart_netlist::bench_suite::{BenchSpec, SPECS};
use netpart_netlist::{generate, write_blif, GeneratorConfig};
use netpart_obs::Recorder;
use netpart_verify::{Recomputed, SolutionCertificate};
use std::sync::Arc;

/// The seed that reproduces the reference circuits: the Rent synthetics
/// of `netpart synth … --seed 42` and the archived bench-suite circuits.
pub const DEFAULT_SEED: u64 = 42;

/// Seed of every engine request (the CLI's default `--seed`); only the
/// circuits vary with the benchmark seed.
const ENGINE_SEED: u64 = 1;

/// Rent exponent of both synthetic workloads.
const RENT_P: f64 = 0.65;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 100k-gate Rent synthetic, multilevel bipartition, no replication.
    RentMl,
    /// The nine bench-suite circuits at 1/4 scale, k-way carving with
    /// functional replication.
    PaperKway,
    /// 20k-gate Rent synthetic, multilevel bipartition with functional
    /// replication.
    RentRepl,
}

/// One circuit of a workload, as the BLIF bytes the flow starts from.
pub struct Circuit {
    pub name: String,
    pub blif: String,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::RentMl, Workload::PaperKway, Workload::RentRepl];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RentMl => "rent-ml",
            Workload::PaperKway => "paper-kway",
            Workload::RentRepl => "rent-repl",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's circuits. `structure` is the generator seed: it
    /// decides the circuits themselves, and with them how much work the
    /// engine does. `names` renames every signal (see [`rename`]).
    /// `shrink` gives the small variants the smoke test runs.
    pub fn circuits(self, structure: u64, names: u64, shrink: bool) -> Vec<Circuit> {
        let rent = |gates: usize| {
            let nl = generate(
                &GeneratorConfig::new(gates)
                    .with_dff(gates / 20)
                    .with_rent(RENT_P)
                    .with_seed(structure),
            );
            vec![Circuit {
                name: format!("rent{}k", gates / 1000),
                blif: rename(&write_blif(&nl), names),
            }]
        };
        match (self, shrink) {
            (Workload::RentMl, false) => rent(100_000),
            (Workload::RentMl, true) => rent(10_000),
            (Workload::RentRepl, false) => rent(20_000),
            (Workload::RentRepl, true) => rent(6_000),
            (Workload::PaperKway, _) => {
                let div = if shrink { 16 } else { 4 };
                SPECS
                    .iter()
                    .map(|s| {
                        let nl = scaled(s, div, structure).build();
                        Circuit {
                            name: s.name.to_string(),
                            blif: rename(&write_blif(&nl), names),
                        }
                    })
                    .collect()
            }
        }
    }

    /// Runs the workload's engine request on one ingested circuit.
    pub fn solve(
        self,
        hg: &Hypergraph,
        recorder: Option<Arc<dyn Recorder>>,
    ) -> Result<Solved, PartitionError> {
        let engine = |ml: Option<MultilevelConfig>| {
            let e = Engine::new(1).with_multilevel(ml);
            match &recorder {
                Some(r) => e.with_recorder(Arc::clone(r)),
                None => e,
            }
        };
        let bipartition = |mode: ReplicationMode| {
            let cfg = BipartitionConfig::equal(hg, 0.1)
                .with_seed(ENGINE_SEED)
                .with_replication(mode);
            let (res, _) = engine(Some(MultilevelConfig::new())).bipartition_many(hg, &cfg, 1)?;
            Ok(Solved::Bipartition(res, cfg))
        };
        match self {
            Workload::RentMl => bipartition(ReplicationMode::None),
            Workload::RentRepl => bipartition(ReplicationMode::functional(2)),
            Workload::PaperKway => {
                let cfg = KWayConfig::new(DeviceLibrary::xc3000())
                    .with_candidates(3)
                    .with_seed(ENGINE_SEED)
                    .with_max_passes(8)
                    .with_replication(ReplicationMode::functional(0));
                let (res, _) = engine(None).kway(hg, &cfg, 4)?;
                Ok(Solved::Kway(res, cfg))
            }
        }
    }
}

/// A bench-suite spec at `1/div` of its gate count (the proportions of
/// `bench_suite::build_scaled`), its generator seed shifted by the
/// benchmark seed's distance from [`DEFAULT_SEED`].
fn scaled(s: &BenchSpec, div: usize, seed: u64) -> BenchSpec {
    BenchSpec {
        gates: (s.gates / div).max(32),
        pi: (s.pi / div).max(4),
        po: (s.po / div).max(2),
        dff: s.dff / div,
        seed: s.seed.wrapping_add(seed).wrapping_sub(DEFAULT_SEED),
        ..*s
    }
}

/// Prefixes every signal name of `blif` with two letters drawn from
/// `seed`; [`DEFAULT_SEED`] leaves the text as it is. The bytes the
/// parser reads and the names it hashes change, while the circuit, and
/// so every cell id, partition and certificate, stays the same.
pub fn rename(blif: &str, seed: u64) -> String {
    if seed == DEFAULT_SEED {
        return blif.to_string();
    }
    let letter = |i: u64| char::from(b'a' + (i % 26) as u8);
    let prefix: String = [letter(seed), letter(seed / 26)].iter().collect();
    let mut out = String::with_capacity(blif.len() + blif.len() / 2);
    for line in blif.lines() {
        let mut tokens = line.split(' ');
        let directive = tokens.next().unwrap_or_default();
        // `.latch D Q re clk 0`: only D and Q are signals of the circuit.
        let signals = match directive {
            ".inputs" | ".outputs" | ".names" => usize::MAX,
            ".latch" => 2,
            _ => 0,
        };
        out.push_str(directive);
        for (i, t) in tokens.enumerate() {
            out.push(' ');
            if i < signals {
                out.push_str(&prefix);
            }
            out.push_str(t);
        }
        out.push('\n');
    }
    out
}

/// An engine result, before certification.
pub enum Solved {
    Bipartition(Arc<PortfolioResult>, BipartitionConfig),
    Kway(Arc<KWayPortfolioResult>, KWayConfig),
}

impl Solved {
    /// Portfolio tasks (k-way) or starts (bipartition) that produced a
    /// feasible result.
    pub fn feasible_tasks(&self) -> u64 {
        match self {
            Solved::Bipartition(r, _) => {
                r.results.iter().filter(|s| s.result.balanced).count() as u64
            }
            Solved::Kway(r, _) => r.feasible_tasks as u64,
        }
    }

    /// The winner as a certificate, or `None` if it exported no placement.
    pub fn certificate(&self, hg: &Hypergraph) -> Option<SolutionCertificate> {
        match self {
            Solved::Bipartition(r, cfg) => r.certificate(hg, cfg),
            Solved::Kway(r, cfg) => Some(r.certificate(hg, cfg)),
        }
    }
}

/// Solution quality, as re-derived by the verifier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Quality {
    pub cut_nets: u64,
    /// `$_k` (eq. 1). A bipartition picks no devices, so there it is
    /// the cheapest device multiset covering each side's CLBs.
    pub device_cost: u64,
    /// Σ_j t_Pj, the numerator of eq. 2.
    pub terminals: u64,
}

impl Quality {
    pub fn of(r: &Recomputed) -> Quality {
        let lib = DeviceLibrary::xc3000();
        let device_cost = r.total_cost.unwrap_or_else(|| {
            r.part_clbs
                .iter()
                .map(|&clbs| lib.optimal_cost_plan(clbs).map_or(0, |(cost, _)| cost))
                .sum()
        });
        Quality {
            cut_nets: r.cut as u64,
            device_cost,
            terminals: r.part_terminals.iter().sum(),
        }
    }

    pub fn add(self, o: Quality) -> Quality {
        Quality {
            cut_nets: self.cut_nets + o.cut_nets,
            device_cost: self.device_cost + o.device_cost,
            terminals: self.terminals + o.terminals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_netlist::bench_suite::build_scaled;

    #[test]
    fn default_seed_reproduces_the_archived_scaled_suite() {
        for s in &SPECS {
            let ours = write_blif(&scaled(s, 4, DEFAULT_SEED).build());
            let mut archived = build_scaled(s.name, 4).expect("known name");
            archived.set_name(s.name);
            assert_eq!(ours, write_blif(&archived), "{}", s.name);
        }
    }

    #[test]
    fn renaming_keeps_the_circuit() {
        let nl = scaled(&SPECS[4], 16, DEFAULT_SEED).build();
        let text = write_blif(&nl);
        assert_eq!(rename(&text, DEFAULT_SEED), text);
        let renamed = netpart_netlist::parse_blif(&rename(&text, 7)).expect("renamed text parses");
        assert_eq!(renamed.n_gates(), nl.n_gates());
        assert_eq!(renamed.n_dffs(), nl.n_dffs());
        assert_eq!(renamed.signal_name(renamed.primary_inputs()[0]), "hapi0");
        assert_eq!(write_blif(&renamed).len(), rename(&text, 7).len());
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("serve-batch"), None);
    }
}
