//! The paper's experiments (§IV), one driver per exhibit.
//!
//! Relocated into the hermetic root package (from the registry-dependent
//! bench crate) so the golden-snapshot tests can regenerate every
//! archived CSV offline. Timing columns are controlled by [`Timing`]:
//! the golden protocol runs [`Timing::Deterministic`], which prints `-`
//! in every wall-clock cell so regenerated tables are byte-stable.

use netpart_board::{demands, route_nets, Board, TopologyObjective};
use netpart_core::{BipartitionConfig, KWayConfig, PartitionError, ReplicationMode};
use netpart_engine::Engine;
use netpart_fpga::DeviceLibrary;
use netpart_hypergraph::Hypergraph;
use netpart_netlist::bench_suite;
use netpart_report::{f1, f2, pct, Table};
use netpart_techmap::{map, MapperConfig};
use std::fmt;
use std::time::Instant;

/// Whether experiment drivers measure wall-clock time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Timing {
    /// Measure wall time and print CPU columns (non-reproducible —
    /// byte-identical regeneration is impossible in this mode).
    Wall,
    /// Skip timing; CPU columns print `-`. The golden-snapshot
    /// protocol (see `tests/golden_tables.rs`).
    #[default]
    Deterministic,
}

/// A typed failure of an experiment driver. Every way a driver can go
/// wrong — an unknown circuit name, a mapping failure, an infeasible
/// partitioning run — is represented here instead of panicking, so the
/// `tables` binary (and any other harness) can report the failure and
/// exit cleanly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExperimentError {
    /// A requested benchmark name is not in the suite.
    UnknownCircuit {
        /// The offending name.
        name: String,
        /// The valid names, comma-separated.
        expected: String,
    },
    /// Technology mapping failed for a circuit.
    MappingFailed {
        /// The circuit being mapped.
        name: String,
        /// The mapper's message.
        reason: String,
    },
    /// A partitioning run inside an experiment failed.
    PartitionFailed {
        /// The circuit being partitioned.
        name: String,
        /// The underlying typed error.
        source: PartitionError,
    },
    /// An experiment's bookkeeping lost a record it just produced
    /// (an internal invariant violation, reported instead of unwrapped).
    MissingRecord {
        /// The circuit whose record is missing.
        name: String,
        /// The replication threshold of the missing record.
        threshold: Option<u32>,
    },
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::UnknownCircuit { name, expected } => {
                write!(
                    f,
                    "unknown benchmark {name:?} (expected one of: {expected})"
                )
            }
            ExperimentError::MappingFailed { name, reason } => {
                write!(f, "technology mapping failed for {name}: {reason}")
            }
            ExperimentError::PartitionFailed { name, source } => {
                write!(f, "partitioning {name} failed: {source}")
            }
            ExperimentError::MissingRecord { name, threshold } => write!(
                f,
                "internal: no record for circuit {name} at threshold {threshold:?}"
            ),
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::PartitionFailed { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Builds and technology-maps the benchmark suite.
///
/// `scale_down > 1` shrinks every circuit by that factor (for quick runs
/// and benches); `names` restricts the suite (empty = all nine).
///
/// # Errors
///
/// [`ExperimentError::UnknownCircuit`] for a name outside the suite,
/// [`ExperimentError::MappingFailed`] if technology mapping rejects a
/// circuit (the generated suite always maps, but scaled variants are
/// checked rather than assumed).
pub fn try_suite(
    scale_down: usize,
    names: &[&str],
) -> Result<Vec<(String, Hypergraph)>, ExperimentError> {
    let selected: Vec<&str> = if names.is_empty() {
        bench_suite::names().collect()
    } else {
        names.to_vec()
    };
    selected
        .iter()
        .map(|name| {
            let nl = if scale_down <= 1 {
                bench_suite::build(name)
            } else {
                bench_suite::build_scaled(name, scale_down)
            }
            .ok_or_else(|| ExperimentError::UnknownCircuit {
                name: (*name).to_string(),
                expected: bench_suite::names().collect::<Vec<_>>().join(", "),
            })?;
            let mapped =
                map(&nl, &MapperConfig::xc3000()).map_err(|e| ExperimentError::MappingFailed {
                    name: (*name).to_string(),
                    reason: e.to_string(),
                })?;
            Ok(((*name).to_string(), mapped.to_hypergraph(&nl)))
        })
        .collect()
}

/// Builds and technology-maps the benchmark suite.
///
/// # Panics
///
/// Panics if a requested name is unknown; see [`try_suite`] for the
/// fallible form.
pub fn suite(scale_down: usize, names: &[&str]) -> Vec<(String, Hypergraph)> {
    match try_suite(scale_down, names) {
        Ok(s) => s,
        Err(e) => panic!("{e}"),
    }
}

/// Table I: the XC3000 device library.
pub fn table1() -> Table {
    let lib = DeviceLibrary::xc3000();
    let mut t = Table::new(
        "Table I — XC3000 device library subset",
        &[
            "Device",
            "c_i (CLB)",
            "t_i (IOB)",
            "d_i (N$)",
            "l_i",
            "u_i",
            "d_i/c_i",
        ],
    );
    for d in &lib {
        t.row([
            d.name().to_string(),
            d.clbs().to_string(),
            d.iobs().to_string(),
            d.price().to_string(),
            f2(d.min_util()),
            f2(d.max_util()),
            f2(d.cost_per_clb()),
        ]);
    }
    t
}

/// Table II: benchmark circuit characteristics after XC3000 mapping.
pub fn table2(suite: &[(String, Hypergraph)]) -> Table {
    let mut t = Table::new(
        "Table II — benchmark circuit characteristics (synthetic stand-ins)",
        &["Circuit", "#CLBs", "#IOBs", "#DFF", "#NETs", "#PINs"],
    );
    for (name, hg) in suite {
        let s = hg.stats();
        t.row([
            name.clone(),
            s.clbs.to_string(),
            s.iobs.to_string(),
            s.dffs.to_string(),
            s.nets.to_string(),
            s.pins.to_string(),
        ]);
    }
    t
}

/// Figure 3: distribution of cells over replication potential `ψ`
/// (percent of interior cells; `0*` is the paper's bucket for
/// multi-output cells with `ψ = 0`).
pub fn figure3(suite: &[(String, Hypergraph)]) -> Table {
    let mut t = Table::new(
        "Figure 3 — cell distribution vs replication potential ψ (% of cells)",
        &[
            "Circuit",
            "ψ=0 (1-out)",
            "ψ=0* (multi)",
            "ψ=1",
            "ψ=2",
            "ψ=3",
            "ψ=4",
            "ψ≥5",
        ],
    );
    for (name, hg) in suite {
        let mut buckets = [0usize; 7];
        let mut total = 0usize;
        for c in hg.cells() {
            if c.is_terminal() {
                continue;
            }
            total += 1;
            let psi = c.replication_potential();
            let idx = match (psi, c.m_outputs()) {
                (0, 0 | 1) => 0,
                (0, _) => 1,
                (1, _) => 2,
                (2, _) => 3,
                (3, _) => 4,
                (4, _) => 5,
                _ => 6,
            };
            buckets[idx] += 1;
        }
        let mut row = vec![name.clone()];
        row.extend(buckets.iter().map(|&b| pct(b as f64 / total.max(1) as f64)));
        t.row(row);
    }
    t
}

/// One circuit's Table III measurements.
#[derive(Clone, Debug)]
pub struct Table3Record {
    /// Circuit name.
    pub name: String,
    /// Best cut over the plain FM runs.
    pub plain_best: usize,
    /// Mean cut over the plain FM runs.
    pub plain_avg: f64,
    /// Best cut with functional replication.
    pub repl_best: usize,
    /// Mean cut with functional replication.
    pub repl_avg: f64,
    /// Mean replicated-cell count with functional replication.
    pub repl_cells: f64,
    /// Wall-clock for the plain runs (0 under [`Timing::Deterministic`]).
    pub plain_secs: f64,
    /// Wall-clock for the replication runs (0 under
    /// [`Timing::Deterministic`]).
    pub repl_secs: f64,
}

impl Table3Record {
    /// Relative best-cut reduction.
    pub fn best_reduction(&self) -> f64 {
        1.0 - self.repl_best as f64 / self.plain_best.max(1) as f64
    }

    /// Relative average-cut reduction.
    pub fn avg_reduction(&self) -> f64 {
        1.0 - self.repl_avg / self.plain_avg.max(1.0)
    }
}

/// Runs the Table III experiment on one circuit: `runs` equal-halves
/// bipartitions (±10 % area, terminals relaxed) with and without
/// functional replication at `T = 0`.
///
/// # Errors
///
/// [`ExperimentError::PartitionFailed`] if either run set fails — the
/// equal-halves bounds are satisfiable for every suite circuit, but a
/// caller-supplied hypergraph gets a typed error, not a panic.
pub fn table3_record(
    name: &str,
    hg: &Hypergraph,
    runs: usize,
    timing: Timing,
) -> Result<Table3Record, ExperimentError> {
    let fail = |source: PartitionError| ExperimentError::PartitionFailed {
        name: name.to_string(),
        source,
    };
    let clock = |t0: Instant| match timing {
        Timing::Wall => t0.elapsed().as_secs_f64(),
        Timing::Deterministic => 0.0,
    };
    let base = BipartitionConfig::equal(hg, 0.1).with_seed(1000);
    let engine = Engine::new(1);
    let t0 = Instant::now();
    let (plain, _) = engine.bipartition_many(hg, &base, runs).map_err(fail)?;
    let plain_secs = clock(t0);
    let t0 = Instant::now();
    let (repl, _) = engine
        .bipartition_many(
            hg,
            &base
                .clone()
                .with_replication(ReplicationMode::functional(0)),
            runs,
        )
        .map_err(fail)?;
    let repl_secs = clock(t0);
    Ok(Table3Record {
        name: name.to_string(),
        plain_best: plain.best_cut(),
        plain_avg: plain.avg_cut(),
        repl_best: repl.best_cut(),
        repl_avg: repl.avg_cut(),
        repl_cells: repl.avg_replicated(),
        plain_secs,
        repl_secs,
    })
}

/// Table III: best/average cut of FM min-cut vs FM + functional
/// replication over `runs` randomized bipartitions per circuit.
///
/// Under [`Timing::Deterministic`] the CPU-overhead column prints `-`
/// and the table is a pure function of `(suite, runs)`.
///
/// # Errors
///
/// Propagates the first [`ExperimentError`] from
/// [`table3_record`].
pub fn table3(
    suite: &[(String, Hypergraph)],
    runs: usize,
    timing: Timing,
) -> Result<(Table, Vec<Table3Record>), ExperimentError> {
    let mut t = Table::new(
        format!("Table III — cutset size over {runs} runs (equal halves, T = 0)"),
        &[
            "Circuit",
            "FM best",
            "FM avg",
            "FR best",
            "FR avg",
            "Best red %",
            "Avg red %",
            "Repl cells",
            "CPU ovh %",
        ],
    );
    let cpu = |r: &Table3Record| match timing {
        Timing::Wall => pct(r.repl_secs / r.plain_secs.max(1e-9) - 1.0),
        Timing::Deterministic => "-".into(),
    };
    let mut records = Vec::new();
    for (name, hg) in suite {
        let r = table3_record(name, hg, runs, timing)?;
        t.row([
            r.name.clone(),
            r.plain_best.to_string(),
            f1(r.plain_avg),
            r.repl_best.to_string(),
            f1(r.repl_avg),
            pct(r.best_reduction()),
            pct(r.avg_reduction()),
            f1(r.repl_cells),
            cpu(&r),
        ]);
        records.push(r);
    }
    finish_table3(&mut t, &records, timing);
    Ok((t, records))
}

fn finish_table3(t: &mut Table, records: &[Table3Record], timing: Timing) {
    if !records.is_empty() {
        let m = |f: &dyn Fn(&Table3Record) -> f64| {
            records.iter().map(f).sum::<f64>() / records.len() as f64
        };
        let cpu = match timing {
            Timing::Wall => pct(m(&|r| r.repl_secs / r.plain_secs.max(1e-9) - 1.0)),
            Timing::Deterministic => "-".into(),
        };
        t.row([
            "Avg.".into(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            pct(m(&|r| r.best_reduction())),
            pct(m(&|r| r.avg_reduction())),
            String::new(),
            cpu,
        ]);
    }
}

/// One circuit × one threshold of the k-way experiment.
#[derive(Clone, Debug)]
pub struct KWayRecord {
    /// Circuit name.
    pub name: String,
    /// Threshold `T` (`None` = no replication, the paper's "\[3\]" column).
    pub threshold: Option<u32>,
    /// Fraction of interior cells replicated.
    pub replicated_frac: f64,
    /// Total device cost (eq. 1).
    pub cost: u64,
    /// Average CLB utilization.
    pub clb_util: f64,
    /// Average IOB utilization (eq. 2).
    pub iob_util: f64,
    /// Devices used.
    pub k: usize,
    /// Wall-clock seconds for this run (0 under
    /// [`Timing::Deterministic`]).
    pub secs: f64,
    /// Whether a feasible partition was found.
    pub feasible: bool,
}

/// Runs the k-way cost experiment for one circuit across thresholds.
///
/// `thresholds` entries of `None` run without replication (the "\[3\]"
/// baseline); `Some(t)` runs functional replication at `T = t`.
pub fn kway_experiment(
    name: &str,
    hg: &Hypergraph,
    thresholds: &[Option<u32>],
    candidates: usize,
    seed: u64,
    timing: Timing,
) -> Vec<KWayRecord> {
    let logic_cells = hg.cells().iter().filter(|c| !c.is_terminal()).count();
    thresholds
        .iter()
        .map(|&th| {
            let mode = match th {
                None => ReplicationMode::None,
                Some(t) => ReplicationMode::functional(t),
            };
            let cfg = KWayConfig::new(DeviceLibrary::xc3000())
                .with_candidates(candidates)
                .with_seed(seed)
                .with_max_passes(8)
                .with_replication(mode);
            let t0 = Instant::now();
            let out = Engine::new(1).kway(hg, &cfg, 1);
            let secs = match timing {
                Timing::Wall => t0.elapsed().as_secs_f64(),
                Timing::Deterministic => 0.0,
            };
            match out.as_ref().map(|(res, _)| &res.result) {
                Ok(r) => KWayRecord {
                    name: name.to_string(),
                    threshold: th,
                    replicated_frac: r.placement.replicated_cell_count() as f64
                        / logic_cells.max(1) as f64,
                    cost: r.evaluation.total_cost,
                    clb_util: r.evaluation.avg_clb_util,
                    iob_util: r.evaluation.avg_iob_util,
                    k: r.devices.len(),
                    secs,
                    feasible: true,
                },
                Err(_) => KWayRecord {
                    name: name.to_string(),
                    threshold: th,
                    replicated_frac: f64::NAN,
                    cost: 0,
                    clb_util: f64::NAN,
                    iob_util: f64::NAN,
                    k: 0,
                    secs,
                    feasible: false,
                },
            }
        })
        .collect()
}

fn fmt_or_dash(feasible: bool, s: String) -> String {
    if feasible {
        s
    } else {
        "-".into()
    }
}

/// Tables IV–VII from one set of k-way runs per circuit: replicated-cell
/// percentage and CPU (IV), average CLB utilization (V), total device
/// cost (VI) and average IOB utilization (VII), each for the
/// no-replication baseline and `T = 0, 1, 2, 3`.
///
/// Under [`Timing::Deterministic`] the two CPU columns of Table IV
/// print `-` and all four tables are pure functions of
/// `(suite, candidates, seed)`.
///
/// # Errors
///
/// [`ExperimentError::MissingRecord`] if the experiment bookkeeping
/// lost a `(circuit, threshold)` record — an internal invariant
/// reported as a typed error rather than unwrapped.
pub fn tables_4_to_7(
    suite: &[(String, Hypergraph)],
    candidates: usize,
    seed: u64,
    timing: Timing,
) -> Result<(Table, Table, Table, Table, Vec<KWayRecord>), ExperimentError> {
    let thresholds = [None, Some(0), Some(1), Some(2), Some(3)];
    let mut all = Vec::new();
    for (name, hg) in suite {
        all.extend(kway_experiment(
            name,
            hg,
            &thresholds,
            candidates,
            seed,
            timing,
        ));
    }
    let by = |name: &str, th: Option<u32>| -> Result<&KWayRecord, ExperimentError> {
        all.iter()
            .find(|r| r.name == name && r.threshold == th)
            .ok_or_else(|| ExperimentError::MissingRecord {
                name: name.to_string(),
                threshold: th,
            })
    };
    let cpu = |r: &KWayRecord| match timing {
        Timing::Wall => f1(r.secs),
        Timing::Deterministic => "-".into(),
    };

    let mut t4 = Table::new(
        format!("Table IV — replicated cells (%) and CPU cost ({candidates} feasible partitions)"),
        &[
            "Circuit",
            "T=0 %",
            "T=1 %",
            "T=2 %",
            "T=3 %",
            "CPU T=3 (s)",
            "CPU [3] (s)",
        ],
    );
    let mut t5 = Table::new(
        "Table V — average CLB utilization (%) after partitioning",
        &[
            "Circuit", "[3]", "T=1", "Incr.", "T=2", "Incr.", "T=3", "Incr.",
        ],
    );
    let mut t6 = Table::new(
        "Table VI — total device cost after partitioning",
        &[
            "Circuit", "[3]", "T=1", "Red. %", "T=2", "Red. %", "T=3", "Red. %",
        ],
    );
    let mut t7 = Table::new(
        "Table VII — average IOB utilization (%) after partitioning",
        &[
            "Circuit", "[3]", "T=1", "Red. %", "T=2", "Red. %", "T=3", "Red. %",
        ],
    );

    for (name, _) in suite {
        let base = by(name, None)?;
        let mut row4 = vec![name.clone()];
        for t in [0u32, 1, 2, 3] {
            let r = by(name, Some(t))?;
            row4.push(fmt_or_dash(r.feasible, pct(r.replicated_frac)));
        }
        row4.push(cpu(by(name, Some(3))?));
        row4.push(cpu(base));
        t4.row(row4);
        let mut row5 = vec![name.clone(), fmt_or_dash(base.feasible, pct(base.clb_util))];
        let mut row6 = vec![
            name.clone(),
            fmt_or_dash(base.feasible, base.cost.to_string()),
        ];
        let mut row7 = vec![name.clone(), fmt_or_dash(base.feasible, pct(base.iob_util))];
        for t in [1u32, 2, 3] {
            let r = by(name, Some(t))?;
            let ok = r.feasible && base.feasible;
            row5.push(fmt_or_dash(r.feasible, pct(r.clb_util)));
            row5.push(fmt_or_dash(ok, pct(r.clb_util - base.clb_util)));
            row6.push(fmt_or_dash(r.feasible, r.cost.to_string()));
            row6.push(fmt_or_dash(
                ok,
                pct(1.0 - r.cost as f64 / base.cost.max(1) as f64),
            ));
            row7.push(fmt_or_dash(r.feasible, pct(r.iob_util)));
            row7.push(fmt_or_dash(
                ok,
                pct(1.0 - r.iob_util / base.iob_util.max(1e-9)),
            ));
        }
        t5.row(row5);
        t6.row(row6);
        t7.row(row7);
    }
    Ok((t4, t5, t6, t7, all))
}

/// The builtin multi-FPGA board scenarios the topology experiment
/// sweeps: a 2-FPGA direct link, a 2×2 mesh and an 8-leaf star.
pub fn builtin_boards() -> Vec<Board> {
    vec![Board::direct2(), Board::mesh2x2(), Board::star(8)]
}

/// One circuit × one board of the topology scenario matrix.
#[derive(Clone, Debug)]
pub struct BoardMatrixRecord {
    /// Circuit name.
    pub name: String,
    /// Board name.
    pub board: String,
    /// Occupied parts of the placement that was routed.
    pub parts: usize,
    /// Whether the placement mapped onto the board (parts ≤ sites).
    pub mappable: bool,
    /// Cut nets routed (0 when unmappable).
    pub routed_nets: usize,
    /// Total hop cost of the routing.
    pub hops: u64,
    /// Total channel congestion `Σ_c max(0, load_c − cap_c)`.
    pub congestion: u64,
    /// Channels loaded beyond capacity.
    pub overflowed: usize,
    /// Peak load/capacity ratio over all channels.
    pub max_util: f64,
}

/// The board scenario matrix: routes each circuit's cut nets over every
/// builtin board topology and scores the topology objective.
///
/// The 2-site board routes the best equal-halves bipartition (functional
/// replication at `T = 0`); the larger boards route the cost-driven
/// k-way placement (`T = 1`). A placement occupying more parts than a
/// board has sites is reported as unmappable (`-` cells) rather than
/// failing the whole matrix. Under the golden protocol every cell is a
/// pure function of `(suite, candidates, seed)`.
///
/// # Errors
///
/// [`ExperimentError::PartitionFailed`] if a partitioning run fails,
/// [`ExperimentError::MissingRecord`] if the winning bipartition
/// exported no placement.
pub fn board_matrix(
    suite: &[(String, Hypergraph)],
    candidates: usize,
    seed: u64,
) -> Result<(Table, Vec<BoardMatrixRecord>), ExperimentError> {
    let boards = builtin_boards();
    let mut t = Table::new(
        "Board matrix — cut nets routed over the builtin board topologies",
        &[
            "Circuit",
            "Board",
            "Parts",
            "Routed",
            "Hops",
            "Congestion",
            "Overflow",
            "Max util",
            "Legal",
        ],
    );
    let mut records = Vec::new();
    for (name, hg) in suite {
        let fail = |source: PartitionError| ExperimentError::PartitionFailed {
            name: name.clone(),
            source,
        };
        // The identity part→site mapping needs as many sites as occupied
        // parts: a bipartition feeds the 2-site board, the k-way
        // placement feeds the larger boards.
        let bi_cfg = BipartitionConfig::equal(hg, 0.1)
            .with_seed(seed)
            .with_replication(ReplicationMode::functional(0));
        let (bi, _) = Engine::new(1)
            .bipartition_many(hg, &bi_cfg, 3)
            .map_err(fail)?;
        let bi_placement =
            bi.best()
                .placement
                .clone()
                .ok_or_else(|| ExperimentError::MissingRecord {
                    name: name.clone(),
                    threshold: Some(0),
                })?;
        let kw_cfg = KWayConfig::new(DeviceLibrary::xc3000())
            .with_candidates(candidates)
            .with_seed(seed)
            .with_max_passes(8)
            .with_replication(ReplicationMode::functional(1));
        let (kw, _) = Engine::new(1).kway(hg, &kw_cfg, 1).map_err(fail)?;
        for board in &boards {
            let placement = if board.n_sites() == 2 {
                &bi_placement
            } else {
                &kw.result.placement
            };
            let parts = placement
                .part_areas(hg)
                .iter()
                .rposition(|&a| a > 0)
                .map_or(0, |last| last + 1);
            let rec = match demands(hg, placement, board).map(|d| route_nets(board, &d)) {
                Ok(Ok(routing)) => {
                    let obj = TopologyObjective::evaluate(board, &routing);
                    BoardMatrixRecord {
                        name: name.clone(),
                        board: board.name().to_string(),
                        parts,
                        mappable: true,
                        routed_nets: obj.routed_nets,
                        hops: obj.hops,
                        congestion: obj.congestion,
                        overflowed: obj.overflowed_channels,
                        max_util: obj.max_channel_util,
                    }
                }
                _ => BoardMatrixRecord {
                    name: name.clone(),
                    board: board.name().to_string(),
                    parts,
                    mappable: false,
                    routed_nets: 0,
                    hops: 0,
                    congestion: 0,
                    overflowed: 0,
                    max_util: 0.0,
                },
            };
            let cell = |s: String| fmt_or_dash(rec.mappable, s);
            t.row([
                rec.name.clone(),
                rec.board.clone(),
                rec.parts.to_string(),
                cell(rec.routed_nets.to_string()),
                cell(rec.hops.to_string()),
                cell(rec.congestion.to_string()),
                cell(rec.overflowed.to_string()),
                cell(f2(rec.max_util)),
                cell(if rec.congestion == 0 { "yes" } else { "no" }.into()),
            ]);
            records.push(rec);
        }
    }
    Ok((t, records))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_suite() -> Vec<(String, Hypergraph)> {
        suite(16, &["c3540", "s5378"])
    }

    #[test]
    fn table1_lists_five_devices() {
        let t = table1();
        assert_eq!(t.n_rows(), 5);
        assert!(t.to_ascii().contains("XC3090"));
    }

    #[test]
    fn table2_covers_suite() {
        let s = tiny_suite();
        let t = table2(&s);
        assert_eq!(t.n_rows(), 2);
        assert!(t.to_csv().contains("c3540"));
    }

    #[test]
    fn figure3_percentages_sum_to_100() {
        let s = tiny_suite();
        let t = figure3(&s);
        for line in t.to_csv().lines().skip(1) {
            let total: f64 = line
                .split(',')
                .skip(1)
                .map(|v| v.parse::<f64>().expect("numeric cell"))
                .sum();
            assert!((total - 100.0).abs() < 0.5, "row sums to {total}");
        }
    }

    #[test]
    fn table3_reduces_cut() {
        let s = tiny_suite();
        let (t, records) =
            table3(&s, 3, Timing::Deterministic).expect("suite circuits are satisfiable");
        assert_eq!(t.n_rows(), 3); // 2 circuits + Avg.
        for r in &records {
            assert!(r.repl_avg <= r.plain_avg, "{r:?}");
        }
        // Deterministic timing prints `-` in the CPU column.
        assert!(t.to_csv().lines().nth(1).is_some_and(|l| l.ends_with(",-")));
    }

    #[test]
    fn deterministic_timing_is_byte_stable() {
        let s = tiny_suite();
        let a = table3(&s, 2, Timing::Deterministic).expect("runs").0;
        let b = table3(&s, 2, Timing::Deterministic).expect("runs").0;
        assert_eq!(a.to_csv(), b.to_csv());
    }

    #[test]
    fn errors_are_typed_and_printable() {
        let err = try_suite(1, &["nonesuch"]).expect_err("unknown circuit");
        assert!(matches!(err, ExperimentError::UnknownCircuit { .. }));
        assert!(err.to_string().contains("nonesuch"));
    }

    #[test]
    fn board_matrix_covers_every_circuit_board_pair() {
        let s = tiny_suite();
        let (t, records) = board_matrix(&s, 2, 7).expect("suite circuits are satisfiable");
        assert_eq!(records.len(), s.len() * builtin_boards().len());
        assert_eq!(t.n_rows(), records.len());
        // The 2-site board always routes the bipartition placement.
        for r in records.iter().filter(|r| r.board == "direct2") {
            assert!(r.mappable, "{r:?}");
            assert!(r.parts <= 2, "{r:?}");
        }
        // Determinism: the matrix is a pure function of its inputs.
        let (t2, _) = board_matrix(&s, 2, 7).expect("second run");
        assert_eq!(t.to_csv(), t2.to_csv());
    }

    #[test]
    fn kway_records_cover_thresholds() {
        let s = suite(16, &["s5378"]);
        let recs = kway_experiment(
            "s5378",
            &s[0].1,
            &[None, Some(1)],
            2,
            7,
            Timing::Deterministic,
        );
        assert_eq!(recs.len(), 2);
        assert!(recs.iter().all(|r| r.feasible));
        assert!(recs[0].cost > 0);
    }
}
