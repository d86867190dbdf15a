//! Atomicity of every CLI output artifact: `--trace-out`,
//! `--metrics-out` and `--certify-out` are written to a temp file and
//! published by a single rename at the end of the run. Killing the
//! process at any earlier moment must leave the *final* path either
//! absent or complete and valid — a reader polling for the artifact
//! can never observe a half-written file.

use std::path::{Path, PathBuf};
use std::process::Command;

fn netpart() -> Command {
    Command::new(env!("CARGO_BIN_EXE_netpart"))
}

fn tdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("netpart-atomic-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("temp dir");
    d
}

fn synth(dir: &Path, cells: &str, seed: &str) -> PathBuf {
    let blif = dir.join("input.blif");
    let out = netpart()
        .args(["synth", cells, blif.to_str().unwrap(), "--seed", seed])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    blif
}

/// If the artifact exists it must be complete: non-empty, every trace
/// line a JSON object, metrics/cert with their expected trailers.
fn assert_absent_or_complete(path: &Path, kind: &str) {
    if !path.exists() {
        return;
    }
    let text = std::fs::read_to_string(path).expect("artifact readable");
    assert!(!text.is_empty(), "{kind}: empty published artifact");
    assert!(
        text.ends_with('\n'),
        "{kind}: published artifact lacks final newline (torn?)"
    );
    match kind {
        "trace" => {
            for (i, line) in text.lines().enumerate() {
                assert!(
                    line.starts_with('{') && line.ends_with('}'),
                    "trace line {} is not a JSON object: {line}",
                    i + 1
                );
            }
        }
        "metrics" => assert!(
            text.starts_with("{\n") && text.ends_with("}\n") && text.contains("\"meta\""),
            "metrics snapshot malformed (truncated JSON?):\n{text}"
        ),
        "cert" => {
            // A published certificate must pass the independent oracle.
            let out = netpart()
                .args(["verify", path.to_str().unwrap()])
                .output()
                .expect("binary runs");
            assert_eq!(
                out.status.code(),
                Some(0),
                "published certificate invalid: {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
        _ => unreachable!(),
    }
}

/// SIGKILL the partitioner at staggered moments mid-run; at every
/// kill point the three artifact paths are absent or complete.
#[cfg(unix)]
#[test]
fn killed_mid_run_never_publishes_partial_artifacts() {
    let dir = tdir("kill");
    // Big enough that the run takes hundreds of milliseconds.
    let blif = synth(&dir, "4000", "3");
    for (i, delay_ms) in [5u64, 25, 60, 120].iter().enumerate() {
        let trace = dir.join(format!("t{i}.jsonl"));
        let metrics = dir.join(format!("m{i}.txt"));
        let cert = dir.join(format!("c{i}.cert"));
        let mut child = netpart()
            .args([
                "kway",
                blif.to_str().unwrap(),
                "--candidates",
                "4",
                "--tasks",
                "2",
                "--trace-out",
                trace.to_str().unwrap(),
                "--metrics-out",
                metrics.to_str().unwrap(),
                "--certify-out",
                cert.to_str().unwrap(),
            ])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("partitioner starts");
        std::thread::sleep(std::time::Duration::from_millis(*delay_ms));
        let _ = Command::new("kill")
            .args(["-9", &child.id().to_string()])
            .status();
        let _ = child.wait();
        assert_absent_or_complete(&trace, "trace");
        assert_absent_or_complete(&metrics, "metrics");
        assert_absent_or_complete(&cert, "cert");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The happy path publishes all three artifacts, valid and complete
/// (so the "absent" arm above cannot be hiding a never-writes bug).
#[test]
fn completed_run_publishes_all_artifacts() {
    let dir = tdir("complete");
    let blif = synth(&dir, "120", "7");
    let trace = dir.join("t.jsonl");
    let metrics = dir.join("m.txt");
    let cert = dir.join("c.cert");
    let out = netpart()
        .args([
            "kway",
            blif.to_str().unwrap(),
            "--candidates",
            "2",
            "--trace-out",
            trace.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
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
    for (path, kind) in [(&trace, "trace"), (&metrics, "metrics"), (&cert, "cert")] {
        assert!(path.exists(), "{kind} artifact missing after success");
        assert_absent_or_complete(path, kind);
    }
    // No stray temp files left behind by the atomic writers.
    let strays: Vec<_> = std::fs::read_dir(&dir)
        .expect("dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp"))
        .collect();
    assert!(strays.is_empty(), "stray temp files: {strays:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Observability is set up before ingest, so a BLIF that fails to parse
/// has already opened the trace; the run must still exit 1 and publish
/// nothing at the trace or profile path, nor leave a temp file behind.
#[test]
fn unparseable_blif_publishes_no_artifacts() {
    let dir = tdir("badblif");
    let trace = dir.join("t.jsonl");
    let profile = dir.join("p.json");
    for cmd in ["bipartition", "kway"] {
        let out = netpart()
            .args([
                cmd,
                concat!(
                    env!("CARGO_MANIFEST_DIR"),
                    "/tests/data/bad_unknown_directive.blif"
                ),
                "--trace-out",
                trace.to_str().unwrap(),
                "--profile-out",
                profile.to_str().unwrap(),
            ])
            .output()
            .expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(1),
            "{cmd}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(!trace.exists(), "{cmd}: trace published for a failed parse");
        assert!(
            !profile.exists(),
            "{cmd}: profile published for a failed parse"
        );
        let left: Vec<_> = std::fs::read_dir(&dir)
            .expect("dir")
            .map(|e| e.expect("entry").file_name())
            .collect();
        assert!(left.is_empty(), "{cmd}: files left behind: {left:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
