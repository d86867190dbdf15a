//! Regenerates the paper's tables and figure under the pinned golden
//! protocol (see EXPERIMENTS.md).
//!
//! ```text
//! tables <exhibit> [--runs N] [--candidates N] [--scale N] [--kway-scale N]
//!                  [--out DIR] [--only NAME,...] [--timing]
//!
//! exhibit: table1 | table2 | table3 | table4 (IV–VII) | figure3 | board | all
//! --runs N        bipartition runs per circuit for Table III (default 20)
//! --candidates N  feasible k-way partitions per run for Tables IV–VII (default 3)
//! --scale N       shrink factor for Tables II–III / Figure 3 (default 1 = paper scale)
//! --kway-scale N  shrink factor for Tables IV–VII (default 6, the archived protocol)
//! --out DIR       CSV output directory (default results/)
//! --only LIST     comma-separated circuit subset
//! --timing        measure wall clocks (CPU columns become non-reproducible;
//!                 the default prints `-` so regenerated CSVs are byte-stable)
//! ```
//!
//! With no flags, every emitted CSV must match `results/` byte-for-byte
//! (enforced by `tests/golden_tables.rs`). To bless new goldens after an
//! intentional algorithm change, rerun `tables all` and commit the diff.

use netpart::experiments::{
    board_matrix, figure3, table1, table2, table3, tables_4_to_7, try_suite, Timing,
};
use netpart::report::Table;
use std::path::PathBuf;
use stdout::outln;

mod stdout;

struct Options {
    exhibit: String,
    runs: usize,
    candidates: usize,
    scale: usize,
    kway_scale: usize,
    out: PathBuf,
    only: Vec<String>,
    timing: Timing,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        exhibit: String::new(),
        runs: 20,
        candidates: 3,
        scale: 1,
        kway_scale: 6,
        out: PathBuf::from("results"),
        only: Vec::new(),
        timing: Timing::Deterministic,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut need = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--runs" => {
                opts.runs = need("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--candidates" => {
                opts.candidates = need("--candidates")?
                    .parse()
                    .map_err(|e| format!("--candidates: {e}"))?
            }
            "--scale" => {
                opts.scale = need("--scale")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?
            }
            "--kway-scale" => {
                opts.kway_scale = need("--kway-scale")?
                    .parse()
                    .map_err(|e| format!("--kway-scale: {e}"))?
            }
            "--out" => opts.out = PathBuf::from(need("--out")?),
            "--only" => opts.only = need("--only")?.split(',').map(str::to_string).collect(),
            "--timing" => opts.timing = Timing::Wall,
            _ if a.starts_with('-') => return Err(format!("unknown flag {a}")),
            _ if opts.exhibit.is_empty() => opts.exhibit = a,
            _ => return Err(format!("unexpected argument {a}")),
        }
    }
    if opts.exhibit.is_empty() {
        opts.exhibit = "all".into();
    }
    Ok(opts)
}

/// Prints `table` and writes it to `out/file`. A closed stdout drops
/// the printout and keeps the CSV; any other stdout error exits 1.
fn emit(table: &Table, out: &PathBuf, file: &str) {
    let shown = (|| {
        outln!("{table}")?;
        if std::fs::create_dir_all(out).is_ok() {
            let path = out.join(file);
            if let Err(e) = std::fs::write(&path, table.to_csv()) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                outln!("(csv: {})\n", path.display())?;
            }
        }
        Ok::<_, std::io::Error>(())
    })();
    if let Err(e) = shown {
        eprintln!("error: writing stdout: {e}");
        std::process::exit(1);
    }
}

fn build_suite(
    scale: usize,
    only: &[&str],
    what: &str,
) -> Vec<(String, netpart::hypergraph::Hypergraph)> {
    eprintln!(
        "building benchmark suite for {what} (scale 1/{scale}, circuits: {}) ...",
        if only.is_empty() { "all" } else { "subset" }
    );
    match try_suite(scale, only) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let only: Vec<&str> = opts.only.iter().map(String::as_str).collect();
    let want = |x: &str| opts.exhibit == "all" || opts.exhibit == x;
    let mut matched = false;

    if want("table1") {
        matched = true;
        emit(&table1(), &opts.out, "table1.csv");
    }
    if ["table2", "table3", "figure3"].iter().any(|x| want(x)) {
        matched = true;
        let s = build_suite(opts.scale, &only, "Tables II–III / Figure 3");
        if want("table2") {
            emit(&table2(&s), &opts.out, "table2.csv");
        }
        if want("figure3") {
            emit(&figure3(&s), &opts.out, "figure3.csv");
        }
        if want("table3") {
            eprintln!("running Table III ({} runs per circuit) ...", opts.runs);
            match table3(&s, opts.runs, opts.timing) {
                Ok((t, _)) => emit(&t, &opts.out, "table3.csv"),
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
    if want("table4") {
        matched = true;
        let s = build_suite(opts.kway_scale, &only, "Tables IV–VII");
        eprintln!(
            "running Tables IV–VII ({} feasible partitions per run) ...",
            opts.candidates
        );
        match tables_4_to_7(&s, opts.candidates, 2024, opts.timing) {
            Ok((t4, t5, t6, t7, _)) => {
                emit(&t4, &opts.out, "table4.csv");
                emit(&t5, &opts.out, "table5.csv");
                emit(&t6, &opts.out, "table6.csv");
                emit(&t7, &opts.out, "table7.csv");
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    if want("board") {
        matched = true;
        let s = build_suite(opts.kway_scale, &only, "board matrix");
        eprintln!(
            "running board matrix ({} feasible partitions per run) ...",
            opts.candidates
        );
        match board_matrix(&s, opts.candidates, 2024) {
            Ok((t, _)) => emit(&t, &opts.out, "board_matrix.csv"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    if !matched {
        eprintln!(
            "error: unknown exhibit {:?} (expected table1|table2|table3|table4|figure3|board|all)",
            opts.exhibit
        );
        std::process::exit(2);
    }
}
