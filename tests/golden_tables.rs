//! Golden-snapshot tests: the experiment drivers must regenerate the
//! blessed CSVs under `results/` byte-for-byte.
//!
//! The goldens are produced by the pinned deterministic protocol (see
//! EXPERIMENTS.md): `cargo run --release --bin tables -- all` with no
//! flags. Wall-clock columns print `-` under [`Timing::Deterministic`],
//! so every cell is a pure function of the algorithm and the fixed
//! seeds — any diff here is a real behavioral change in the generator,
//! the mapper, or the partitioner, not noise.
//!
//! **Bless procedure** after an intentional change: rerun
//! `cargo run --release --bin tables -- all`, eyeball the diff under
//! `results/`, and commit it together with the change that caused it.
//!
//! The cheap exhibits (Tables I–II, Figure 3) run in the default test
//! pass; the partitioning exhibits (Table III at 20 runs × 9 full-scale
//! circuits, Tables IV–VII) take minutes and are `#[ignore]`d — CI's
//! release step (`cargo test --release -- --ignored`) covers them.

use netpart::experiments::{
    board_matrix, figure3, suite, table1, table2, table3, tables_4_to_7, Timing,
};

const BLESS_HINT: &str =
    "golden CSV drifted — if intentional, re-bless with `cargo run --release --bin tables -- all`";

fn golden(name: &str) -> String {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()))
}

#[test]
fn table1_matches_golden() {
    assert_eq!(table1().to_csv(), golden("table1.csv"), "{BLESS_HINT}");
}

#[test]
fn table2_and_figure3_match_golden() {
    // Full-scale suite: these two exhibits need no partitioning runs,
    // so the suite build dominates and one build serves both.
    let s = suite(1, &[]);
    assert_eq!(table2(&s).to_csv(), golden("table2.csv"), "{BLESS_HINT}");
    assert_eq!(figure3(&s).to_csv(), golden("figure3.csv"), "{BLESS_HINT}");
}

/// Header contract: the first CSV line of every golden is the driver's
/// current column-header row. Runs in the cheap default pass (the
/// drivers are invoked on an *empty* suite, so no partitioning happens)
/// and catches column renames/reorders/additions that the `#[ignore]`d
/// full-protocol tests would only flag minutes into a release run.
#[test]
fn golden_csv_headers_match_the_drivers() {
    let header = |csv: String, name: &str| -> String {
        csv.lines()
            .next()
            .unwrap_or_else(|| panic!("{name} produced an empty CSV"))
            .to_string()
    };
    let expect = |csv: String, golden_name: &str| {
        let want = header(golden(golden_name), golden_name);
        let got = header(csv, golden_name);
        assert_eq!(got, want, "header drift in {golden_name} — {BLESS_HINT}");
    };
    expect(table1().to_csv(), "table1.csv");
    expect(table2(&[]).to_csv(), "table2.csv");
    expect(figure3(&[]).to_csv(), "figure3.csv");
    expect(
        table3(&[], 20, Timing::Deterministic)
            .expect("empty suite")
            .0
            .to_csv(),
        "table3.csv",
    );
    let (t4, t5, t6, t7, _) =
        tables_4_to_7(&[], 3, 2024, Timing::Deterministic).expect("empty suite");
    expect(t4.to_csv(), "table4.csv");
    expect(t5.to_csv(), "table5.csv");
    expect(t6.to_csv(), "table6.csv");
    expect(t7.to_csv(), "table7.csv");
    expect(
        board_matrix(&[], 3, 2024).expect("empty suite").0.to_csv(),
        "board_matrix.csv",
    );
}

#[test]
#[ignore = "full Table III protocol (20 runs x 9 full-scale circuits, ~2 min in release)"]
fn table3_matches_golden() {
    let s = suite(1, &[]);
    let (t, _) = table3(&s, 20, Timing::Deterministic).expect("suite circuits are satisfiable");
    assert_eq!(t.to_csv(), golden("table3.csv"), "{BLESS_HINT}");
}

#[test]
#[ignore = "full Tables IV-VII protocol (scale 6, 3 candidates, 5 thresholds x 9 circuits)"]
fn tables_4_to_7_match_golden() {
    let s = suite(6, &[]);
    let (t4, t5, t6, t7, _) =
        tables_4_to_7(&s, 3, 2024, Timing::Deterministic).expect("all records present");
    assert_eq!(t4.to_csv(), golden("table4.csv"), "{BLESS_HINT}");
    assert_eq!(t5.to_csv(), golden("table5.csv"), "{BLESS_HINT}");
    assert_eq!(t6.to_csv(), golden("table6.csv"), "{BLESS_HINT}");
    assert_eq!(t7.to_csv(), golden("table7.csv"), "{BLESS_HINT}");
}

#[test]
#[ignore = "full board-matrix protocol (scale 6, one bipartition + one k-way per circuit)"]
fn board_matrix_matches_golden() {
    let s = suite(6, &[]);
    let (t, _) = board_matrix(&s, 3, 2024).expect("suite circuits are satisfiable");
    assert_eq!(t.to_csv(), golden("board_matrix.csv"), "{BLESS_HINT}");
}
