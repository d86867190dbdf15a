//! The operational-telemetry CLI surface: `netpart trace
//! <summarize|validate|diff>` over `--trace-out` documents,
//! `--profile-out` span profiles, and the service's `metrics.prom`
//! exposition rendered by `netpart serve-status`.

use netpart::obs::{parse_json, parse_prometheus};
use std::path::PathBuf;
use std::process::Command;

fn netpart() -> Command {
    Command::new(env!("CARGO_BIN_EXE_netpart"))
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("netpart-obs-tools-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn run_ok(cmd: &mut Command) -> (String, String) {
    let out = cmd.output().expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "command failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn synth(dir: &std::path::Path, gates: &str, seed: &str) -> PathBuf {
    let blif = dir.join(format!("synth-{gates}-{seed}.blif"));
    run_ok(netpart().args(["synth", gates, blif.to_str().expect("utf8"), "--seed", seed]));
    blif
}

/// Runs a traced command and returns the trace path.
fn traced(dir: &std::path::Path, blif: &std::path::Path, extra: &[&str], tag: &str) -> PathBuf {
    let trace = dir.join(format!("{tag}.jsonl"));
    let mut cmd = netpart();
    cmd.args([
        "bipartition",
        blif.to_str().expect("utf8"),
        "--runs",
        "3",
        "--seed",
        "5",
        "--trace-out",
        trace.to_str().expect("utf8"),
    ]);
    cmd.args(extra);
    run_ok(&mut cmd);
    trace
}

#[test]
fn trace_validate_accepts_flat_and_multilevel_traces() {
    let dir = tmp("validate");
    let blif = synth(&dir, "400", "7");
    for (extra, tag) in [(&[][..], "flat"), (&["--multilevel"][..], "ml")] {
        let trace = traced(&dir, &blif, extra, tag);
        let (stdout, _) =
            run_ok(netpart().args(["trace", "validate", trace.to_str().expect("utf8")]));
        assert!(
            stdout.starts_with("ok:"),
            "unexpected validate output: {stdout}"
        );
    }
}

#[test]
fn trace_validate_rejects_schema_violations_with_exit_2() {
    let dir = tmp("reject");
    // Key order violated: `event` before `scope`.
    let bad = dir.join("bad.jsonl");
    std::fs::write(
        &bad,
        "{\"event\":\"begin\",\"scope\":\"portfolio\",\"level\":\"info\",\"fields\":{}}\n",
    )
    .expect("write");
    let out = netpart()
        .args(["trace", "validate", bad.to_str().expect("utf8")])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "schema violations must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 1"), "violation not located: {stderr}");
}

#[test]
fn trace_diff_is_clean_across_jobs_and_flags_real_divergence() {
    let dir = tmp("diff");
    let blif = synth(&dir, "400", "9");
    let t1 = traced(&dir, &blif, &["--jobs", "1"], "j1");
    let t8 = traced(&dir, &blif, &["--jobs", "8"], "j8");
    let (stdout, _) = run_ok(netpart().args([
        "trace",
        "diff",
        t1.to_str().expect("utf8"),
        t8.to_str().expect("utf8"),
    ]));
    assert!(
        stdout.contains("identical after timing strip"),
        "got: {stdout}"
    );
    // A different seed is a real divergence: exit 1 and a located line.
    let other = traced(&dir, &blif, &["--jobs", "1", "--epsilon", "0.3"], "eps");
    let out = netpart()
        .args([
            "trace",
            "diff",
            t1.to_str().expect("utf8"),
            other.to_str().expect("utf8"),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "divergence must exit 1");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("diverge at"),
        "divergence not located"
    );
}

#[test]
fn trace_summarize_renders_event_and_span_tables() {
    let dir = tmp("summarize");
    let blif = synth(&dir, "400", "11");
    let trace = traced(&dir, &blif, &[], "sum");
    let (stdout, _) = run_ok(netpart().args(["trace", "summarize", trace.to_str().expect("utf8")]));
    for needle in [
        "events",
        "fm.pass",
        "spans",
        "fm/pass",
        "engine/bipartition",
    ] {
        assert!(stdout.contains(needle), "missing {needle} in:\n{stdout}");
    }
}

#[test]
fn profile_out_writes_a_self_time_tree_that_covers_the_run() {
    let dir = tmp("profile");
    let blif = synth(&dir, "400", "13");
    let profile = dir.join("profile.json");
    let (_, stderr) = run_ok(netpart().args([
        "bipartition",
        blif.to_str().expect("utf8"),
        "--runs",
        "3",
        "--seed",
        "5",
        "--multilevel",
        "--max-levels",
        "2",
        "--profile-out",
        profile.to_str().expect("utf8"),
        "-v",
    ]));
    assert!(
        stderr.contains("span profile"),
        "no profile table with -v: {stderr}"
    );
    let text = std::fs::read_to_string(&profile).expect("profile written");
    let json = parse_json(&text).expect("profile is valid JSON");
    let total = json
        .get("total_wall_us")
        .and_then(|v| v.as_u64())
        .expect("total");
    let covered = json
        .get("covered_us")
        .and_then(|v| v.as_u64())
        .expect("covered");
    assert!(
        covered <= total + total / 100,
        "covered {covered} overshoots wall {total}"
    );
    assert!(
        covered * 2 >= total,
        "instrumented spans cover under half the wall window: {covered}/{total}"
    );
    // The tree names the ingest layers and the hot phases.
    for needle in [
        "netlist/parse",
        "netlist/validate",
        "techmap/decompose",
        "techmap/map",
        "hypergraph/build",
        "engine/bipartition",
        "fm/pass",
    ] {
        assert!(
            text.contains(needle),
            "missing {needle} in profile:\n{text}"
        );
    }
}

#[test]
fn serve_exposes_prometheus_metrics_and_serve_status_renders_them() {
    let dir = tmp("serve");
    let blif = synth(&dir, "400", "17");
    let spool = dir.join("spool");
    run_ok(netpart().args([
        "submit",
        spool.to_str().expect("utf8"),
        blif.to_str().expect("utf8"),
        "--cmd",
        "bipartition",
        "--runs",
        "2",
    ]));
    let trace = dir.join("serve.jsonl");
    run_ok(netpart().args([
        "serve",
        spool.to_str().expect("utf8"),
        "--drain",
        "--trace-out",
        trace.to_str().expect("utf8"),
    ]));
    // The serve trace passes native schema validation.
    run_ok(netpart().args(["trace", "validate", trace.to_str().expect("utf8")]));
    // metrics.prom parses and carries the service counters.
    let prom_text = std::fs::read_to_string(spool.join("metrics.prom")).expect("metrics.prom");
    let prom = parse_prometheus(&prom_text).expect("exposition parses");
    assert_eq!(
        prom.value("netpart_serve_done_total"),
        Some(1.0),
        "in:\n{prom_text}"
    );
    assert_eq!(
        prom.value("netpart_serve_queue_depth"),
        Some(0.0),
        "drained queue"
    );
    assert_eq!(prom.value("netpart_serve_latency_ms_count"), Some(1.0));
    assert!(prom
        .histograms()
        .contains(&"netpart_serve_latency_ms".to_string()));
    // serve-status renders the same numbers as a table.
    let (stdout, _) = run_ok(netpart().args(["serve-status", spool.to_str().expect("utf8")]));
    for needle in [
        "netpart_serve_done_total",
        "netpart_serve_latency_ms",
        "p50",
        "p99",
    ] {
        assert!(stdout.contains(needle), "missing {needle} in:\n{stdout}");
    }
}

#[test]
fn serve_status_without_a_spool_fails_cleanly() {
    let dir = tmp("nospool");
    let out = netpart()
        .args(["serve-status", dir.join("missing").to_str().expect("utf8")])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("has the server run"),
        "unhelpful error"
    );
}

#[test]
fn serve_status_on_a_fresh_spool_reports_no_snapshots_and_exits_zero() {
    // A spool directory that exists but has no metrics.prom yet — the
    // server just hasn't completed a round — is a normal state, not an
    // I/O error.
    let dir = tmp("freshspool");
    let spool = dir.join("spool");
    std::fs::create_dir_all(&spool).expect("spool dir");
    let (stdout, _) = run_ok(netpart().args(["serve-status", spool.to_str().expect("utf8")]));
    assert!(
        stdout.contains("no metrics snapshots yet"),
        "unfriendly fresh-spool message:\n{stdout}"
    );
}
