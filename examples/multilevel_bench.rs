//! Measures the multilevel V-cycle against flat FM on large Rent-rule
//! synthetics: same circuit, same seed, same balance window — once
//! through plain `bipartition`, once through `ml_bipartition`.
//!
//! ```text
//! cargo run --release --example multilevel_bench [gates ...]
//! ```
//!
//! Default sizes: 20000 and 100000 gates. This is the source of the
//! README "Scaling to large circuits" numbers; re-run it on your own
//! hardware. Besides the table, the run is archived as
//! `BENCH_multilevel.json` in the current directory — a metrics
//! snapshot with per-size wall times, cuts and the V-cycle depth.
//!
//! Every multilevel result is serialized as a [`SolutionCertificate`]
//! and re-checked by the independent verifier; the example asserts the
//! report is clean, so the speedup numbers are only ever quoted for
//! solutions that survive independent audit.

use netpart::prelude::*;
use netpart::report::{f2, Table};
use std::time::Instant;

/// The Rent exponent of the generated suite: the classic "random
/// logic" regime (Landman–Russo measured 0.57–0.75 there), hard enough
/// that the boundary does not collapse to a trivial cut.
const RENT_P: f64 = 0.65;

fn circuit(gates: usize) -> Result<Hypergraph, Box<dyn std::error::Error>> {
    let nl = generate(
        &GeneratorConfig::new(gates)
            .with_dff(gates / 20)
            .with_rent(RENT_P)
            .with_seed(42),
    );
    Ok(map(&nl, &MapperConfig::xc3000())?.to_hypergraph(&nl))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse())
        .collect::<Result<_, _>>()?;
    let sizes: Vec<usize> = if args.is_empty() {
        vec![20_000, 100_000]
    } else {
        args
    };

    // Replication off: the XC3000 ψ distribution guards most logic
    // cells, which (correctly) stalls ψ-guarded coarsening — replicated
    // partitioning of 100k-cell circuits is a different experiment.
    let ml = MultilevelConfig::new();
    let mut t = Table::new(
        "Multilevel V-cycle vs flat FM (Rent-rule synthetics, p = 0.65)",
        &[
            "gates",
            "CLBs",
            "flat (ms)",
            "ml (ms)",
            "speedup",
            "cut flat/ml",
            "levels",
        ],
    );
    let mut snap = MetricsSnapshot::new();
    snap.set_meta("bench", "multilevel_bench");
    snap.set_meta("seed", "1");
    snap.set_meta("rent_p", RENT_P.to_string());

    for &gates in &sizes {
        let hg = circuit(gates)?;
        let clbs = hg.stats().clbs;
        let cfg = BipartitionConfig::equal(&hg, 0.1)
            .with_seed(1)
            .with_replication(ReplicationMode::None);

        let t0 = Instant::now();
        let flat = netpart::core::bipartition(&hg, &cfg);
        let flat_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(flat.balanced, "flat run unbalanced at {gates} gates");

        let levels = build_chain(&hg, &ml, cfg.replication, cfg.seed).len();
        let t0 = Instant::now();
        let multi = ml_bipartition(&hg, &cfg, &ml);
        let ml_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(multi.balanced, "multilevel run unbalanced at {gates} gates");

        // Certify → verify: the speedup claim only counts for solutions
        // the independent oracle accepts.
        let cert = multi
            .certificate(&hg, cfg.seed)
            .expect("multilevel exports a placement");
        let report = verify(&hg, &cert);
        assert!(report.is_clean(), "verifier rejected: {report:?}");

        snap.set_timing(&format!("flat_ms_{gates}"), flat_ms as u64);
        snap.set_timing(&format!("ml_ms_{gates}"), ml_ms as u64);
        snap.set_gauge(&format!("cut_flat_{gates}"), flat.cut as f64);
        snap.set_gauge(&format!("cut_ml_{gates}"), multi.cut as f64);
        snap.set_gauge(&format!("speedup_{gates}"), flat_ms / ml_ms);
        snap.set_gauge(&format!("levels_{gates}"), levels as f64);
        t.row([
            gates.to_string(),
            clbs.to_string(),
            f2(flat_ms),
            f2(ml_ms),
            format!("{}x", f2(flat_ms / ml_ms)),
            format!("{}/{}", flat.cut, multi.cut),
            levels.to_string(),
        ]);
    }
    println!("{t}");
    println!("(every multilevel solution re-verified by the independent oracle)");

    std::fs::write("BENCH_multilevel.json", snap.to_json())?;
    println!("archived to BENCH_multilevel.json");
    Ok(())
}
