//! Subprocess-level service recovery: the same guarantees the
//! in-process matrix (`crates/serve/tests/recovery_matrix.rs`) proves,
//! but through the real binary with real process death — an injected
//! `abort()` at a journal transition, and an honest external `SIGKILL`
//! mid-run. Also pins the exit-code contract for backpressure
//! (exit 7 on a full queue).

use std::path::{Path, PathBuf};
use std::process::Command;

fn netpart() -> Command {
    Command::new(env!("CARGO_BIN_EXE_netpart"))
}

fn tdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("netpart-srvtest-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("temp dir");
    d
}

/// Synthesizes a small netlist into `dir/input.blif`.
fn synth(dir: &Path) -> PathBuf {
    let blif = dir.join("input.blif");
    let out = netpart()
        .args(["synth", "60", blif.to_str().unwrap(), "--seed", "5"])
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

fn submit(spool: &Path, blif: &Path, id: &str) {
    let out = netpart()
        .args([
            "submit",
            spool.to_str().unwrap(),
            blif.to_str().unwrap(),
            "--id",
            id,
            "--cmd",
            "kway",
            "--seed",
            "2",
            "--candidates",
            "2",
            "--tasks",
            "2",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "submit {id} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn serve_drain(spool: &Path, extra: &[&str]) -> std::process::Output {
    let mut args = vec!["serve", spool.to_str().unwrap(), "--drain"];
    args.extend_from_slice(extra);
    netpart().args(&args).output().expect("binary runs")
}

fn verify_result(spool: &Path, id: &str) {
    let cert = spool.join("results").join(format!("{id}.cert"));
    assert!(cert.exists(), "no certificate for {id}");
    let out = netpart()
        .args(["verify", cert.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "certificate for {id} rejected: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `--fault-crash-at start` aborts the process mid-job (the observable
/// equivalent of `kill -9` between the `start` record and the result);
/// a fault-free restart recovers, re-runs and certifies the job.
#[test]
fn injected_abort_then_restart_recovers() {
    let spool = tdir("abort");
    let blif = synth(&spool);
    submit(&spool, &blif, "j1");

    let out = serve_drain(&spool, &["--fault-crash-at", "start"]);
    assert!(
        !out.status.success(),
        "server must die at the injected crash point"
    );
    // `queue` must show the interruption without repairing anything.
    let out = netpart()
        .args(["queue", spool.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(
        table.contains("j1") && table.contains("interrupted"),
        "queue does not show the interrupted job:\n{table}"
    );

    let out = serve_drain(&spool, &[]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "recovery run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("recovery: 1 interrupted job(s) re-run"),
        "no recovery note:\n{stderr}"
    );
    verify_result(&spool, "j1");
    let _ = std::fs::remove_dir_all(&spool);
}

/// A real `SIGKILL` delivered mid-run: no injection, no cooperation.
/// The restarted server must settle every submitted job with verified
/// certificates, exactly once each.
#[cfg(unix)]
#[test]
fn sigkill_mid_run_then_restart_settles_all_jobs() {
    let spool = tdir("sigkill");
    let blif = synth(&spool);
    for id in ["k1", "k2", "k3"] {
        submit(&spool, &blif, id);
    }

    // Run *without* --drain so the server lingers; give the batch a
    // moment to be mid-flight, then SIGKILL.
    let mut child = netpart()
        .args(["serve", spool.to_str().unwrap(), "--poll-ms", "10"])
        .spawn()
        .expect("server starts");
    std::thread::sleep(std::time::Duration::from_millis(150));
    let kill = Command::new("kill")
        .args(["-9", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success(), "kill -9 failed");
    let status = child.wait().expect("reap");
    assert!(!status.success(), "SIGKILLed server cannot exit cleanly");

    let out = serve_drain(&spool, &[]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "post-SIGKILL recovery failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    for id in ["k1", "k2", "k3"] {
        verify_result(&spool, id);
    }
    // The journal must hold exactly one done per job.
    let wal = std::fs::read_to_string(spool.join("journal.wal")).expect("journal");
    for id in ["k1", "k2", "k3"] {
        let dones = wal
            .lines()
            .filter(|l| l.contains(" done ") && l.contains(&format!(" {id} ")))
            .count();
        assert_eq!(dones, 1, "{id} must complete exactly once:\n{wal}");
    }
    let _ = std::fs::remove_dir_all(&spool);
}

/// Submissions beyond `--max-queue` exit 7 and leave the spool
/// untouched.
#[test]
fn queue_full_submission_exits_seven() {
    let spool = tdir("full");
    let blif = synth(&spool);
    submit(&spool, &blif, "q1");

    let out = netpart()
        .args([
            "submit",
            spool.to_str().unwrap(),
            blif.to_str().unwrap(),
            "--id",
            "q2",
            "--max-queue",
            "1",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(7), "queue-full must exit 7");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("queue full"), "cause missing: {err}");
    assert!(
        !spool.join("jobs/q2.job").exists(),
        "refused submission leaked files"
    );
    let _ = std::fs::remove_dir_all(&spool);
}

/// Torn-write and disk-full injection through the real binary: the
/// first durable write is damaged, the process dies (torn) or the
/// job fails and retries (disk-full artifact paths) — and a restart
/// always converges to a verified result.
#[test]
fn injected_torn_and_disk_full_recover_via_cli() {
    for (flag, n) in [("--fault-torn-write", "1"), ("--fault-disk-full", "4")] {
        let spool = tdir(&format!("inj{}", n));
        let blif = synth(&spool);
        submit(&spool, &blif, "j1");
        // Faulted run: may die (torn crash) or complete degraded
        // (disk-full on an artifact journals a failure and retries).
        let _ = serve_drain(&spool, &[flag, n]);
        let out = serve_drain(&spool, &[]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{flag} {n}: recovery failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        verify_result(&spool, "j1");
        let _ = std::fs::remove_dir_all(&spool);
    }
}
