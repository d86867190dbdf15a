//! The CLI's exit-code contract: 0 for success (including degraded
//! results), 1 for I/O/parse failures, 2 for usage errors, 6 for a
//! certificate that `netpart verify` rejects — malformed or with
//! claims the independent re-evaluation contradicts. Codes 3–5
//! (infeasible / budget / internal) come from `PartitionError` and are
//! exercised at the library layer in `tests/fault_injection.rs`; the
//! built-in XC3000 library makes them hard to trigger from the CLI on
//! small inputs.
//!
//! The malformed-BLIF corpus includes hostile encodings: CRLF line
//! endings (line numbers must not drift), a structurally valid but
//! empty `.model` (parses, then partitions as invalid input, exit 2)
//! and a file truncated mid-token (line-numbered parse error, exit 1).
//! Exit 7 (queue backpressure) is exercised in `tests/serve_recovery.rs`.
//!
//! The malformed-certificate corpus under `tests/data/` derives from
//! `cert_small_ok.cert` (a real k-way run on `verify_small.blif`, seed
//! 7) by hand mutation: each `cert_*.cert` neighbour breaks exactly one
//! rule the original obeys.
//!
//! The malformed-`.board` corpus (`board_*.board`) exercises the board
//! parser's line-numbered error contract through `--board`: each file
//! breaks exactly one grammar or validity rule, and the reported line
//! must be the physical 1-based line that introduced the problem — also
//! under CRLF endings.

use std::path::PathBuf;
use std::process::Command;

fn netpart() -> Command {
    Command::new(env!("CARGO_BIN_EXE_netpart"))
}

fn data(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
}

#[test]
fn stats_on_good_blif_exits_zero() {
    let out = netpart()
        .args(["stats", data("good_tiny.blif").to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn parse_failure_exits_one_with_line_number() {
    let out = netpart()
        .args([
            "stats",
            data("bad_unknown_directive.blif").to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line "), "stderr lacks a line number: {err}");
}

#[test]
fn missing_file_exits_one() {
    let out = netpart()
        .args(["stats", "/nonexistent/nope.blif"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn crlf_blif_keeps_exact_line_numbers() {
    // The whole file uses \r\n line endings; the stray cover row sits
    // on physical line 6 and the reported line number must not drift.
    let out = netpart()
        .args(["stats", data("bad_crlf_stray_cover.blif").to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 6"), "wrong line under CRLF: {err}");
    assert!(
        err.contains("cover row outside .names"),
        "wrong cause: {err}"
    );
}

#[test]
fn empty_model_parses_but_partitions_as_invalid_input() {
    // `.model` + `.end` with nothing in between is structurally valid
    // BLIF (stats accepts it), but partitioning an empty hypergraph is
    // invalid input: exit 2, not a crash and not exit 1.
    let path = data("bad_empty_model.blif");
    let out = netpart()
        .args(["stats", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "empty model still parses");
    for cmd in ["bipartition", "kway"] {
        let out = netpart()
            .args([cmd, path.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{cmd} on empty model");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("empty hypergraph"), "{cmd}: {err}");
    }
}

#[test]
fn truncated_mid_token_blif_exits_one_with_line_number() {
    // The file ends inside the `.names` token list, with no trailing
    // newline: the parser must still report a line-numbered error for
    // the dangling gate rather than accept or panic.
    let out = netpart()
        .args(["stats", data("bad_truncated_names.blif").to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 6"), "no line number: {err}");
}

#[test]
fn unknown_flag_exits_two() {
    // `--cache` named an in-process result cache that no longer exists.
    for (cmd, flag) in [("stats", "--bogus"), ("bipartition", "--cache")] {
        let out = netpart()
            .args([cmd, data("good_tiny.blif").to_str().unwrap(), flag])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{cmd} {flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag {flag}")), "{err}");
    }
}

/// Runs `bipartition` on the good netlist with a corpus `.board` file,
/// returning `(exit_code, stderr)`. Board loading happens after the
/// (tiny) solve, so the exit code isolates the board error path.
fn bipartition_with_board(board: &str) -> (Option<i32>, String) {
    let out = netpart()
        .args([
            "bipartition",
            data("good_tiny.blif").to_str().unwrap(),
            "--board",
            data(board).to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn duplicate_board_site_exits_one_with_its_line() {
    let (code, err) = bipartition_with_board("board_dup_site.board");
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("line 5"), "wrong line: {err}");
    assert!(err.contains("duplicate site `a`"), "wrong cause: {err}");
}

#[test]
fn phantom_channel_endpoint_exits_one_with_its_line() {
    let (code, err) = bipartition_with_board("board_phantom_channel.board");
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("line 5"), "wrong line: {err}");
    assert!(
        err.contains("channel endpoint `ghost` is not a declared site"),
        "wrong cause: {err}"
    );
}

#[test]
fn zero_capacity_channel_exits_one_with_its_line() {
    let (code, err) = bipartition_with_board("board_zero_capacity.board");
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("line 5"), "wrong line: {err}");
    assert!(
        err.contains("capacity must be positive"),
        "wrong cause: {err}"
    );
}

#[test]
fn truncated_board_exits_one_pinned_to_the_last_line() {
    let (code, err) = bipartition_with_board("board_truncated.board");
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("line 4"), "wrong line: {err}");
    assert!(err.contains("truncated"), "wrong cause: {err}");
}

#[test]
fn crlf_board_keeps_exact_line_numbers() {
    // The whole file uses \r\n endings; the zero-hop channel sits on
    // physical line 5 and the reported number must not drift.
    let (code, err) = bipartition_with_board("board_crlf.board");
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("line 5"), "wrong line under CRLF: {err}");
    assert!(err.contains("hop must be positive"), "wrong cause: {err}");
}

#[test]
fn missing_board_file_exits_one() {
    let out = netpart()
        .args([
            "bipartition",
            data("good_tiny.blif").to_str().unwrap(),
            "--board",
            "/nonexistent/nope.board",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot read board"), "{err}");
}

#[test]
fn budgeted_bipartition_is_degraded_but_exits_zero() {
    // Synthesize a circuit, then partition it under a tight wall budget:
    // the run may be degraded (note on stderr) but still exits 0.
    let dir = std::env::temp_dir().join(format!("netpart-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let blif = dir.join("synth.blif");
    let out = netpart()
        .args(["synth", "500", blif.to_str().unwrap(), "--seed", "3"])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "synth failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = netpart()
        .args([
            "bipartition",
            blif.to_str().unwrap(),
            "--runs",
            "8",
            "--budget-ms",
            "5",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "degraded runs still succeed; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("best cut"), "no summary printed: {stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `netpart verify` on a corpus certificate with the netlist
/// override pinned, returning `(exit_code, stderr)`.
fn verify_cert(name: &str) -> (Option<i32>, String) {
    let out = netpart()
        .args([
            "verify",
            data(name).to_str().unwrap(),
            "--netlist",
            data("verify_small.blif").to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn honest_certificate_verifies_with_exit_zero() {
    let (code, err) = verify_cert("cert_small_ok.cert");
    assert_eq!(code, Some(0), "honest certificate rejected: {err}");
}

#[test]
fn truncated_certificate_exits_six() {
    let (code, err) = verify_cert("cert_truncated.cert");
    assert_eq!(code, Some(6));
    assert!(err.contains("truncated"), "stderr lacks the cause: {err}");
}

#[test]
fn duplicate_cell_certificate_exits_six() {
    let (code, err) = verify_cert("cert_duplicate_cell.cert");
    assert_eq!(code, Some(6));
    assert!(err.contains("duplicate-cell"), "stderr lacks the code: {err}");
}

#[test]
fn phantom_net_certificate_exits_six() {
    let (code, err) = verify_cert("cert_phantom_net.cert");
    assert_eq!(code, Some(6));
    assert!(err.contains("phantom-net"), "stderr lacks the code: {err}");
}

#[test]
fn infeasible_device_id_certificate_exits_six() {
    let (code, err) = verify_cert("cert_bad_device.cert");
    assert_eq!(code, Some(6));
    assert!(
        err.contains("device-out-of-range"),
        "stderr lacks the code: {err}"
    );
}

#[test]
fn certify_then_verify_round_trips_through_the_cli() {
    // The full loop a user runs: partition with --certify-out, then feed
    // the certificate straight back through `netpart verify`.
    let dir = std::env::temp_dir().join(format!("netpart-cert-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cert = dir.join("roundtrip.cert");
    let out = netpart()
        .args([
            "kway",
            data("verify_small.blif").to_str().unwrap(),
            "--seed",
            "9",
            "--candidates",
            "2",
            "--certify-out",
            cert.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "kway failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = netpart()
        .args(["verify", cert.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "fresh certificate rejected: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("certificate OK"), "no verdict: {stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn refined_relaxed_floor_kway_certificate_verifies() {
    // One carve attempt cannot meet the XC3000 utilization floors on
    // this circuit, so the winner comes from the relaxed-floor rung.
    // `--refine` must re-evaluate it against that relaxed library — the
    // one its certificate embeds — or `netpart verify` reports a
    // feasibility mismatch (exit 6).
    let dir = std::env::temp_dir().join(format!("netpart-refine-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let blif = dir.join("c.blif");
    let cert = dir.join("r.cert");
    let blif = blif.to_str().unwrap();
    let out = netpart()
        .args(["synth", "1200", blif, "--dff", "50", "--seed", "3"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "synth failed");
    let out = netpart()
        .args([
            "kway",
            blif,
            "--seed",
            "3",
            "--tasks",
            "1",
            "--max-attempts",
            "1",
            "--candidates",
            "1",
            "--refine",
            "--certify-out",
            cert.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "kway failed: {err}");
    assert!(
        err.contains("relaxed"),
        "expected a relaxed-floor winner: {err}"
    );
    let out = netpart()
        .args(["verify", cert.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "refined certificate rejected: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
