//! Times the FM gain-bucket pass: the same seeded bipartition runs,
//! with functional replication, across a small circuit suite.
//!
//! ```text
//! cargo run --release --example fm_pass_bench [reps]
//! ```
//!
//! This is the source of the README "Performance" numbers; re-run it
//! on your own hardware. Besides the table, the run is archived as
//! `BENCH_fm.json` in the current directory — a metrics snapshot with
//! per-size wall times and the per-pass averages (`pass_ms_*` gauges,
//! the series `scripts/perf_gate.sh` regresses against).
//!
//! After the suite table, the carve leg times the first XC3090 device
//! carve of the 1/4-scale s38584 (`*_carve_s38584` fields): the
//! bipartition shape the k-way carver runs, with the chunk side's pads
//! weighted, a replication growth cap and functional replication at
//! T = 0. The k-way leg then times the whole k-way request of the
//! `paper-kway` benchmark workload on the same circuit (`kway_*_s38584`
//! fields): functional replication at T = 0, 3 candidates, 8 passes,
//! seed 1, four tasks on one worker. Its `kway_pass_ms_s38584` is the
//! solve's wall time divided by its FM passes, so it also carries what
//! the carve spends between passes (piece extraction, fit checks);
//! `kway_passes_s38584` and `kway_cost_s38584` are exact. A single flat
//! run without replication then times the 100k-gate Rent-rule synthetic
//! (`rent100k_*` fields) — the circuit the CSR hot path is sized for.
//!
//! The V-cycle leg times the `refine_sides` calls of the V-cycle's
//! coarse rungs on the `rent-repl` workload's request (20k gates, T = 2,
//! default multilevel configuration): `ml_refine_pass_ms_rent20k` is
//! their wall time over their passes, and `ml_refine_cut_rent20k`, the
//! cut the last of them returns and hands level 0, is exact.
//!
//! Every bipartition must finish with `gain_repairs == 0` (the
//! incremental updates are exact) and the k-way leg with a feasible
//! result; the example asserts both.

use netpart::core::{bipartition_from_sides, refine_sides, RunClock};
use netpart::prelude::*;
use netpart::report::{f2, Table};
use std::time::Instant;

const SIZES: &[usize] = &[800, 1500, 3000];

/// Gate count and Rent exponent of the large-circuit leg. The recipe
/// (dff fraction, p, generator seed) matches `multilevel_bench`, so
/// `rent100k_ms` is directly comparable to that archive's
/// `flat_ms_100000` series across engine revisions.
const RENT_GATES: usize = 100_000;
const RENT_P: f64 = 0.65;

/// Gate count of the V-cycle leg's circuit, `rent-repl`'s.
const REPL_GATES: usize = 20_000;

/// A mapped circuit from generator seed 42.
fn circuit(
    gates: usize,
    dffs: usize,
    rent: Option<f64>,
) -> Result<Hypergraph, Box<dyn std::error::Error>> {
    let mut gen = GeneratorConfig::new(gates).with_dff(dffs).with_seed(42);
    if let Some(p) = rent {
        gen = gen.with_rent(p);
    }
    let nl = generate(&gen);
    Ok(map(&nl, &MapperConfig::xc3000())?.to_hypergraph(&nl))
}

/// Best-of-`reps` wall time of `cfg` on `hg` in ms, with the last
/// run's cut and pass count.
fn time_buckets(hg: &Hypergraph, cfg: &BipartitionConfig, reps: usize) -> (f64, usize, usize) {
    let mut best_ms = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = netpart::core::bipartition(hg, cfg);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            r.gain_repairs, 0,
            "incremental gains diverged from realized deltas"
        );
        assert!(r.balanced, "unbalanced result");
        best_ms = best_ms.min(ms);
        last = Some(r);
    }
    let r = last.expect("reps >= 1");
    (best_ms, r.cut, r.passes)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let reps: usize = args.next().map_or(Ok(3), |a| a.parse())?;

    let mut t = Table::new(
        "FM gain-bucket pass, functional replication",
        &["gates", "CLBs", "run (ms)", "pass (ms)", "cut", "passes"],
    );
    let mut snap = MetricsSnapshot::new();
    snap.set_meta("bench", "fm_pass_bench");
    snap.set_meta("seed", "1");
    snap.set_meta("reps", reps.to_string());

    for &gates in SIZES {
        let hg = circuit(gates, gates / 10, None)?;
        let clbs = hg.stats().clbs;
        let cfg = BipartitionConfig::equal(&hg, 0.1)
            .with_seed(1)
            .with_replication(ReplicationMode::functional(0));
        let (ms, cut, passes) = time_buckets(&hg, &cfg, reps);
        let pass_ms = ms / passes as f64;
        snap.set_timing(&format!("buckets_ms_{gates}"), ms as u64);
        snap.set_gauge(&format!("cut_buckets_{gates}"), cut as f64);
        snap.set_gauge(&format!("pass_ms_buckets_{gates}"), pass_ms);
        t.row([
            gates.to_string(),
            clbs.to_string(),
            f2(ms),
            f2(pass_ms),
            cut.to_string(),
            passes.to_string(),
        ]);
    }
    println!("{t}");
    println!("(gain_repairs == 0 on every run)");

    // Carve leg: the window, pad weight and growth cap `carve_once`
    // gives the first device carve of a piece, with the benchmark's
    // 8-pass limit.
    let nl = bench_suite::build_scaled("s38584", 4).ok_or("unknown bench circuit")?;
    let nl = decompose_wide_gates(&nl, 5);
    let hg = map(&nl, &MapperConfig::xc3000())?.to_hypergraph(&nl);
    let area = hg.total_area();
    let lib = DeviceLibrary::xc3000();
    let dev = lib.device(lib.index_of("XC3090").ok_or("no XC3090 in the library")?);
    let cfg = BipartitionConfig::bounded([dev.min_clbs(), 0], [dev.max_clbs().min(area - 1), area])
        .with_seed(1)
        .with_max_passes(8)
        .with_replication(ReplicationMode::functional(0))
        .with_terminal_weight([1, 0])
        .with_max_growth(Some((area / 16).max(4)));
    let (ms, cut, passes) = time_buckets(&hg, &cfg, reps);
    let pass_ms = ms / passes as f64;
    println!();
    println!(
        "{} carve of s38584/4 ({} CLBs): cut {cut} in {passes} passes, {} ms total, {} ms/pass",
        dev.name(),
        hg.stats().clbs,
        f2(ms),
        f2(pass_ms),
    );
    snap.set_timing("carve_ms_s38584", ms as u64);
    snap.set_gauge("cut_carve_s38584", cut as f64);
    snap.set_gauge("pass_ms_carve_s38584", pass_ms);

    // K-way leg: the `paper-kway` request, best of `reps` solves.
    let kcfg = KWayConfig::new(lib.clone())
        .with_candidates(3)
        .with_seed(1)
        .with_max_passes(8)
        .with_replication(ReplicationMode::functional(0));
    let mut best_ms = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let (res, _) = Engine::new(1).kway(&hg, &kcfg, 4)?;
        best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        assert!(
            res.result.evaluation.feasible,
            "k-way leg: no feasible result"
        );
        last = Some(res);
    }
    let res = last.ok_or("reps >= 1")?;
    let passes: u64 = res.workers.iter().map(|w| w.passes).sum();
    let cost = res.result.evaluation.total_cost;
    let pass_ms = best_ms / passes as f64;
    println!(
        "k-way solve of s38584/4 (3 candidates, 4 tasks): cost {cost} in {passes} passes, \
         {} ms total, {} ms/pass",
        f2(best_ms),
        f2(pass_ms),
    );
    snap.set_timing("kway_ms_s38584", best_ms as u64);
    snap.set_gauge("kway_pass_ms_s38584", pass_ms);
    snap.set_gauge("kway_passes_s38584", passes as f64);
    snap.set_gauge("kway_cost_s38584", cost as f64);

    // Large-circuit leg: flat FM over the 100k-gate Rent synthetic,
    // single rep (the pass count is high enough that best-of-reps adds
    // nothing but wall time), replication off to match the flat series
    // in `BENCH_multilevel.json`.
    let hg = circuit(RENT_GATES, RENT_GATES / 20, Some(RENT_P))?;
    let cfg = BipartitionConfig::equal(&hg, 0.1)
        .with_seed(1)
        .with_replication(ReplicationMode::None);
    let t0 = Instant::now();
    let r = netpart::core::bipartition(&hg, &cfg);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(r.gain_repairs, 0, "rent100k: incremental gains diverged");
    assert!(r.balanced, "rent100k: unbalanced result");
    let pass_ms = ms / r.passes as f64;
    println!();
    println!(
        "rent synthetic, {} gates ({} CLBs, p = {RENT_P}): cut {} in {} passes, \
         {} ms total, {} ms/pass",
        RENT_GATES,
        hg.stats().clbs,
        r.cut,
        r.passes,
        f2(ms),
        f2(pass_ms),
    );
    snap.set_timing("rent100k_ms", ms as u64);
    snap.set_gauge("rent100k_pass_ms", pass_ms);
    snap.set_gauge("rent100k_cut", r.cut as f64);
    snap.set_gauge("rent100k_passes", r.passes as f64);

    // V-cycle leg: the coarse rungs of `ml_bipartition` on `rent-repl`,
    // best of `reps`. Each rung projects the sides one level down and
    // refines them with replication off.
    let hg = circuit(REPL_GATES, REPL_GATES / 20, Some(RENT_P))?;
    let cfg = BipartitionConfig::equal(&hg, 0.1)
        .with_seed(1)
        .with_replication(ReplicationMode::functional(2));
    let ml = MultilevelConfig::new();
    let chain = build_chain(&hg, &ml, cfg.replication, cfg.seed);
    let coarse_cfg = cfg.clone().with_replication(ReplicationMode::None);
    let coarsest = &chain.last().ok_or("rent20k does not coarsen")?.hg;
    let pl = bipartition(coarsest, &coarse_cfg)
        .placement
        .ok_or("no placement")?;
    let start: Vec<u8> = coarsest
        .cell_ids()
        .map(|c| pl.copies(c)[0].part.0 as u8)
        .collect();
    let clock = RunClock::new(&cfg.budget, &cfg.fault);
    let (mut best_ms, mut passes, mut cut, mut sides) = (f64::INFINITY, 0, 0, Vec::new());
    for _ in 0..reps {
        let mut ms = 0.0;
        (passes, sides) = (0, start.clone());
        for i in (1..chain.len()).rev() {
            sides = chain[i].project_sides(&sides);
            let t0 = Instant::now();
            let refined = refine_sides(&chain[i - 1].hg, &coarse_cfg, &mut sides, 2, &clock);
            ms += t0.elapsed().as_secs_f64() * 1e3;
            (passes, cut) = (passes + refined.passes, refined.cut);
        }
        best_ms = best_ms.min(ms);
    }
    // They are the V-cycle's calls: level 0 ends as `ml_bipartition` does.
    let level0 = bipartition_from_sides(&hg, &cfg, &chain[0].project_sides(&sides), &clock);
    let full = ml_bipartition(&hg, &cfg, &ml);
    assert_eq!(level0.placement, full.placement, "not the V-cycle's calls");
    let pass_ms = best_ms / passes as f64;
    println!(
        "\nV-cycle refiner, {REPL_GATES} gates, T = 2: cut {cut} in {passes} passes, \
         {} ms total, {} ms/pass",
        f2(best_ms),
        f2(pass_ms),
    );
    snap.set_gauge("ml_refine_pass_ms_rent20k", pass_ms);
    snap.set_gauge("ml_refine_cut_rent20k", cut as f64);

    std::fs::write("BENCH_fm.json", snap.to_json())?;
    println!("archived to BENCH_fm.json");
    Ok(())
}
