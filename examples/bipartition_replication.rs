//! The paper's first experiment (Table III) on one benchmark: equal-halves
//! min-cut with relaxed terminals, FM vs FM + functional replication vs
//! traditional replication, over several randomized runs.
//!
//! Run with
//! `cargo run --release --example bipartition_replication [circuit] [runs]`
//! (default: `s5378`, 10 runs; pass `--scaled` as circuit suffix for a
//! 1/8-size quick run, e.g. `s9234:scaled`).

use netpart::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let circuit = args.next().unwrap_or_else(|| "s5378".into());
    let runs: usize = args.next().map(|r| r.parse()).transpose()?.unwrap_or(10);

    let (name, scaled) = match circuit.strip_suffix(":scaled") {
        Some(base) => (base.to_string(), true),
        None => (circuit, false),
    };
    let nl = if scaled {
        bench_suite::build_scaled(&name, 8)
    } else {
        bench_suite::build(&name)
    }
    .ok_or_else(|| format!("unknown benchmark {name:?}"))?;

    let hg = map(&nl, &MapperConfig::xc3000())?.to_hypergraph(&nl);
    let s = hg.stats();
    println!("{name}: {} CLBs, {} IOBs, {} nets", s.clbs, s.iobs, s.nets);

    let base = BipartitionConfig::equal(&hg, 0.1).with_seed(7);
    let engine = Engine::new(1);
    let run = |mode: ReplicationMode| {
        engine
            .bipartition_many(&hg, &base.clone().with_replication(mode), runs)
            .map(|(r, _)| r)
    };
    let plain = run(ReplicationMode::None)?;
    println!(
        "F-M min-cut:            best {:4}  avg {:7.1}",
        plain.best_cut(),
        plain.avg_cut()
    );

    let func = run(ReplicationMode::functional(0))?;
    println!(
        "+ functional repl (T=0): best {:4}  avg {:7.1}  ({:.1} cells replicated on avg)",
        func.best_cut(),
        func.avg_cut(),
        func.avg_replicated()
    );

    let trad = run(ReplicationMode::Traditional)?;
    println!(
        "+ traditional repl:      best {:4}  avg {:7.1}  ({:.1} cells replicated on avg)",
        trad.best_cut(),
        trad.avg_cut(),
        trad.avg_replicated()
    );

    println!(
        "\nfunctional replication cut reduction: best {:.1}%, avg {:.1}%",
        100.0 * (1.0 - func.best_cut() as f64 / plain.best_cut().max(1) as f64),
        100.0 * (1.0 - func.avg_cut() / plain.avg_cut().max(1.0)),
    );

    // Threshold sweep: T limits which cells may replicate (eq. 6).
    println!("\nthreshold sweep (avg cut over {runs} runs):");
    for t in [0u32, 1, 2, 3, 5] {
        let r = run(ReplicationMode::functional(t))?;
        println!(
            "  T = {t}: avg cut {:7.1}, avg replicated cells {:5.1}",
            r.avg_cut(),
            r.avg_replicated()
        );
    }
    Ok(())
}
