//! Measures the portfolio engine's wall-clock scaling: the same
//! multi-start FM portfolio at `--jobs` 1, 2 and 4, printed as a table.
//! The determinism contract means every row computes the identical best
//! solution — only the wall time may differ.
//!
//! ```text
//! cargo run --release --example portfolio_speedup [gates] [starts]
//! ```
//!
//! This is the source of the README's speedup numbers; re-run it on
//! your own hardware (the numbers scale with physical cores).
//!
//! Besides the table, the run is archived as `BENCH_portfolio.json` in
//! the current directory — a metrics snapshot (seed, jobs, wall-ms per
//! jobs level, best cut, and the paper metrics `$_k`/`k̄` from a small
//! k-way portfolio on the same circuit).

use netpart::prelude::*;
use netpart::report::{f2, Table};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let gates: usize = args.next().map_or(Ok(2000), |a| a.parse())?;
    let starts: usize = args.next().map_or(Ok(20), |a| a.parse())?;

    let nl = generate(
        &GeneratorConfig::new(gates)
            .with_dff(gates / 10)
            .with_seed(42),
    );
    let hg = map(&nl, &MapperConfig::xc3000())?.to_hypergraph(&nl);
    let cfg = BipartitionConfig::equal(&hg, 0.1)
        .with_seed(1)
        .with_replication(ReplicationMode::functional(0));
    println!(
        "portfolio: {starts} starts on {} CLBs ({} threads available)\n",
        hg.stats().clbs,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );

    let mut t = Table::new(
        "Portfolio speedup (identical best solution per row)",
        &["jobs", "best cut", "wall (ms)", "speedup"],
    );
    let mut snap = MetricsSnapshot::new();
    snap.set_meta("bench", "portfolio_speedup");
    snap.set_meta("gates", gates.to_string());
    snap.set_meta("starts", starts.to_string());
    snap.set_meta("seed", "1");
    let mut base_ms = None;
    let mut prints = Vec::new();
    for jobs in [1usize, 2, 4] {
        let t0 = Instant::now();
        let (r, _) = Engine::new(jobs).bipartition_many(&hg, &cfg, starts)?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let base = *base_ms.get_or_insert(ms);
        prints.push(r.fingerprint(&hg));
        snap.set_timing(&format!("wall_ms_jobs{jobs}"), ms as u64);
        snap.set_gauge("best_cut", r.best_cut() as f64);
        t.row([
            jobs.to_string(),
            r.best_cut().to_string(),
            f2(ms),
            format!("{}x", f2(base / ms)),
        ]);
    }
    assert!(
        prints.windows(2).all(|w| w[0] == w[1]),
        "determinism violated: fingerprints differ across jobs levels"
    );
    println!("{t}");
    println!("(fingerprint {:#018x} at every jobs level)", prints[0]);

    // Paper metrics for the archive: route a small k-way portfolio
    // through a MetricsRecorder so the $_k / k̄ gauges and the device
    // histogram land in the same snapshot.
    use netpart::obs::Recorder;
    use std::sync::Arc;
    let metrics = Arc::new(MetricsRecorder::new());
    let kcfg = KWayConfig::new(DeviceLibrary::xc3000())
        .with_candidates(4)
        .with_seed(1)
        .with_replication(ReplicationMode::functional(0));
    let t0 = Instant::now();
    let recorder: Arc<dyn Recorder> = Arc::clone(&metrics) as Arc<dyn Recorder>;
    let (k, _) = Engine::new(4).with_recorder(recorder).kway(&hg, &kcfg, 3)?;
    let kway_snap = metrics.snapshot();
    for (key, v) in &kway_snap.gauges {
        snap.set_gauge(key, *v);
    }
    for (key, bins) in &kway_snap.hists {
        snap.merge_hist(key, bins);
    }
    snap.set_timing("wall_ms_kway", t0.elapsed().as_millis() as u64);
    println!(
        "k-way on the same circuit: $_k = {}, k̄ = {:.2}, k = {}",
        k.result.evaluation.total_cost,
        k.result.evaluation.avg_iob_util,
        k.result.evaluation.k()
    );

    std::fs::write("BENCH_portfolio.json", snap.to_json())?;
    println!("archived to BENCH_portfolio.json");
    Ok(())
}
