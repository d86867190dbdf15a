//! The CLI face of the engine's determinism contract: for a fixed seed,
//! `--jobs N` prints byte-identical stdout to `--jobs 1` (worker
//! statistics go to stderr precisely so this holds), and the
//! portfolio paths never change the exit-code contract.

use std::path::PathBuf;
use std::process::Command;

fn netpart() -> Command {
    Command::new(env!("CARGO_BIN_EXE_netpart"))
}

fn synth(dir: &std::path::Path, gates: &str, dff: &str, seed: &str) -> PathBuf {
    std::fs::create_dir_all(dir).expect("temp dir");
    let blif = dir.join(format!("synth-{gates}-{dff}-{seed}.blif"));
    let out = netpart()
        .args([
            "synth",
            gates,
            blif.to_str().expect("utf8 path"),
            "--dff",
            dff,
            "--seed",
            seed,
        ])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "synth failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    blif
}

fn tmp() -> PathBuf {
    std::env::temp_dir().join(format!("netpart-cli-jobs-{}", std::process::id()))
}

#[test]
fn bipartition_stdout_is_identical_across_jobs_levels() {
    let blif = synth(&tmp(), "300", "0", "7");
    let run = |jobs: &str| {
        let out = netpart()
            .args([
                "bipartition",
                blif.to_str().expect("utf8 path"),
                "--runs",
                "6",
                "--seed",
                "5",
                "--jobs",
                jobs,
            ])
            .output()
            .expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(0),
            "jobs={jobs} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let reference = run("1");
    assert_eq!(run("2"), reference, "--jobs 2 diverged from --jobs 1");
    assert_eq!(run("8"), reference, "--jobs 8 diverged from --jobs 1");
}

#[test]
fn kway_stdout_is_identical_across_jobs_levels_for_fixed_tasks() {
    let blif = synth(&tmp(), "400", "0", "9");
    let run = |jobs: &str| {
        let out = netpart()
            .args([
                "kway",
                blif.to_str().expect("utf8 path"),
                "--candidates",
                "4",
                "--seed",
                "2",
                "--tasks",
                "3",
                "--jobs",
                jobs,
            ])
            .output()
            .expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(0),
            "jobs={jobs} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let reference = run("1");
    assert_eq!(run("2"), reference, "--jobs 2 diverged from --jobs 1");
    assert_eq!(run("4"), reference, "--jobs 4 diverged from --jobs 1");
}

#[test]
fn observability_flags_leave_stdout_identical_across_jobs_levels() {
    // --trace-out / --metrics-out route the run through the engine even
    // at --jobs 1, and must not disturb the stdout contract: with the
    // flags, stdout stays byte-identical across jobs levels AND equal
    // to the flag-free run (trace and metrics go to files, events to
    // stderr only under -v).
    let dir = tmp();
    let blif = synth(&dir, "300", "0", "7");
    let run = |jobs: &str, observed: bool| {
        let mut cmd = netpart();
        cmd.args([
            "bipartition",
            blif.to_str().expect("utf8 path"),
            "--runs",
            "6",
            "--seed",
            "5",
            "--jobs",
            jobs,
        ]);
        if observed {
            let trace = dir.join(format!("obs-{jobs}.jsonl"));
            let metrics = dir.join(format!("obs-{jobs}.json"));
            cmd.args([
                "--trace-out",
                trace.to_str().expect("utf8 path"),
                "--metrics-out",
                metrics.to_str().expect("utf8 path"),
            ]);
        }
        let out = cmd.output().expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(0),
            "jobs={jobs} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let bare = run("1", false);
    let observed = run("1", true);
    assert_eq!(
        observed, bare,
        "--trace-out/--metrics-out changed stdout at --jobs 1"
    );
    assert_eq!(run("2", true), bare, "observed --jobs 2 diverged");
    assert_eq!(run("8", true), bare, "observed --jobs 8 diverged");
}

#[test]
fn budgeted_portfolio_bipartition_still_exits_zero() {
    // A zero wall budget leaves only the guaranteed first start — a
    // degraded result (note on stderr), never a failure.
    let blif = synth(&tmp(), "300", "0", "11");
    let out = netpart()
        .args([
            "bipartition",
            blif.to_str().expect("utf8 path"),
            "--runs",
            "8",
            "--budget-ms",
            "0",
            "--jobs",
            "4",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("note:"),
        "expected a degradation note, got: {err}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 runs:"), "stdout: {stdout}");
}

/// Runs `netpart <args>` and returns its stdout, asserting exit 0.
fn stdout_of(args: &[&str]) -> Vec<u8> {
    let out = netpart().args(args).output().expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{args:?} stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn flag_free_kway_prints_what_the_observed_and_threaded_runs_print() {
    // Every k-way run goes through the engine at the default width of
    // four tasks, so neither the observability flags nor --jobs can
    // change the answer.
    let dir = tmp();
    let blif = synth(&dir, "1200", "50", "3");
    let blif = blif.to_str().expect("utf8 path");
    let base = ["kway", blif, "--seed", "1", "--candidates", "4"];
    let trace = dir.join("flag-free-kway.jsonl");
    let metrics = dir.join("flag-free-kway.json");
    let bare = stdout_of(&base);
    let observed = stdout_of(
        &[
            &base[..],
            &[
                "--trace-out",
                trace.to_str().expect("utf8 path"),
                "--metrics-out",
                metrics.to_str().expect("utf8 path"),
            ],
        ]
        .concat(),
    );
    assert_eq!(observed, bare, "--trace-out/--metrics-out changed stdout");
    let threaded = stdout_of(&[&base[..], &["--jobs", "2"]].concat());
    assert_eq!(threaded, bare, "--jobs 2 changed stdout");
}

#[test]
fn zero_budget_bipartition_is_identical_across_jobs_levels() {
    // Start 0 never carries the wall deadline, so a zero budget records
    // exactly that start, run to completion, at every jobs level.
    // Its own directory: the k-way test synthesizes the same circuit.
    let blif = synth(&tmp().join("zero-budget"), "1200", "50", "3");
    let blif = blif.to_str().expect("utf8 path");
    let run = |jobs: &str| {
        stdout_of(&[
            "bipartition",
            blif,
            "--runs",
            "8",
            "--seed",
            "5",
            "--budget-ms",
            "0",
            "--jobs",
            jobs,
        ])
    };
    let one = run("1");
    assert_eq!(run("4"), one, "--jobs 4 diverged from --jobs 1");
    let text = String::from_utf8_lossy(&one);
    assert!(text.contains("1 runs:"), "stdout: {text}");
}
