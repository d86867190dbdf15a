//! The crash-recovery matrix: inject a crash after **every** journal
//! transition (and tear / disk-full **every** durable write index on
//! the happy path), restart, and check the service invariants hold:
//!
//! * no job is lost — every submitted job ends `done` or `quarantined`;
//! * no job double-completes — exactly one `done` record per job;
//! * every served result carries a certificate the independent
//!   `netpart-verify` oracle accepts;
//! * a torn or failed write never yields a trusted-but-corrupt
//!   artifact: the journal truncates its torn tail, final artifact
//!   paths only ever hold complete content.
//!
//! The tests run the server in-process with [`CrashMode::Return`]: an
//! injected crash surfaces as [`ServeError::CrashInjected`] and the
//! server guarantees no cleanup I/O after it — WAL-equivalent to
//! `kill -9` (the subprocess abort flavour is covered in the root
//! `tests/serve_recovery.rs`).

use netpart_core::FaultPlan;
use netpart_netlist::{generate, write_blif, GeneratorConfig};
use netpart_serve::{
    submit_job, CrashMode, JobCmd, JobSpec, JobState, ServeConfig, ServeError, Server,
    SubmitOutcome, Wal, WalRecord,
};
use std::path::{Path, PathBuf};

fn tdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("netpart-recovery-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("temp dir");
    d
}

fn blif() -> String {
    write_blif(&generate(&GeneratorConfig::new(60).with_seed(5)))
}

fn base_cfg() -> ServeConfig {
    ServeConfig {
        jobs: 1,
        drain: true,
        poll_ms: 0,
        backoff_base: 1,
        max_retries: 3,
        crash_mode: CrashMode::Return,
        ..ServeConfig::default()
    }
}

fn kway_spec() -> JobSpec {
    JobSpec {
        cmd: JobCmd::Kway,
        seed: 2,
        candidates: 3,
        tasks: 2,
        ..JobSpec::default()
    }
}

fn submit(spool: &Path, id: &str, spec: &JobSpec) {
    match submit_job(spool, id, &blif(), spec, 64).expect("submit") {
        SubmitOutcome::Submitted { .. } => {}
        other => panic!("unexpected submit outcome: {other:?}"),
    }
}

/// Runs the server once with `fault` armed (the crash, if any, fires
/// on this run), then restarts fault-free until the queue settles —
/// modelling one real crash followed by a normal restart. Returns 1 if
/// the faulted run crashed.
fn crash_then_recover(spool: &Path, fault: FaultPlan) -> usize {
    let mut cfg = base_cfg();
    cfg.fault = fault;
    let mut server = Server::open(spool, cfg, None).expect("open");
    let crashed = match server.run() {
        Ok(_) => 0,
        Err(ServeError::CrashInjected { .. }) => 1,
        Err(e) => panic!("unexpected server error: {e}"),
    };
    drop(server);
    // Fault-free restart: everything pending must settle.
    let mut server = Server::open(spool, base_cfg(), None).expect("final open");
    server.run().expect("fault-free run settles");
    crashed
}

/// The journal must show exactly one `done` per completed job and a
/// clean (non-torn) replay after recovery.
fn assert_journal_consistent(spool: &Path, job: &str, expect_done: bool) {
    let recovery = Wal::replay_readonly(&spool.join("journal.wal")).expect("replay");
    assert!(
        !recovery.torn_tail,
        "journal still torn after recovery for {job}"
    );
    let dones = recovery
        .records
        .iter()
        .filter(|(_, r)| matches!(r, WalRecord::Done { .. }) && r.job() == job)
        .count();
    if expect_done {
        assert_eq!(dones, 1, "job {job} must complete exactly once");
    } else {
        assert_eq!(dones, 0, "job {job} must not complete");
    }
}

fn assert_done_with_verified_cert(spool: &Path, job: &str) {
    let state = {
        let mut server = Server::open(spool, base_cfg(), None).expect("open for inspection");
        server.run().expect("idle");
        server.queue().get(job).expect("known job").state.clone()
    };
    assert!(
        matches!(state, JobState::Done { .. }),
        "job {job} not done: {state:?}"
    );
    let result = spool.join("results").join(format!("{job}.result"));
    let text = std::fs::read_to_string(&result).expect("result artifact exists");
    assert!(
        text.starts_with("netpart-result v1\n") && text.contains("\n#fnv="),
        "result artifact incomplete:\n{text}"
    );
    let cert_path = spool.join("results").join(format!("{job}.cert"));
    let cert = std::fs::read_to_string(&cert_path).expect("certificate artifact exists");
    // Re-verify with the independent oracle against the spool netlist.
    let nl = netpart_netlist::parse_blif(&blif()).expect("netlist");
    let nl = netpart_techmap::decompose_wide_gates(&nl, 5);
    let hg = netpart_techmap::map(&nl, &netpart_techmap::MapperConfig::xc3000())
        .expect("map")
        .to_hypergraph(&nl);
    let report = netpart_verify::verify_text(&hg, &cert).expect("certificate parses");
    assert!(report.is_clean(), "served certificate rejected: {report}");
}

/// Crash after each journal transition of the happy path; the job must
/// complete exactly once with a verifiable certificate.
#[test]
fn crash_at_every_happy_path_transition_recovers_to_done() {
    for label in ["submit", "claim", "start", "artifact", "cache", "done"] {
        let spool = tdir(&format!("crash-{label}"));
        submit(&spool, "j1", &kway_spec());
        let crashes = crash_then_recover(&spool, FaultPlan::none().crash_after(label));
        assert!(crashes >= 1, "crash point {label} never fired");
        assert_done_with_verified_cert(&spool, "j1");
        assert_journal_consistent(&spool, "j1", true);
        let _ = std::fs::remove_dir_all(&spool);
    }
}

/// Crash after each transition of the failure path (netlist deleted →
/// retryable I/O failures → quarantine); the job must end quarantined
/// with its error attached, never done.
#[test]
fn crash_at_every_failure_path_transition_recovers_to_quarantine() {
    for label in ["fail", "retry", "quarantine"] {
        let spool = tdir(&format!("crashfail-{label}"));
        submit(&spool, "poison", &kway_spec());
        // Make every attempt fail with a retryable I/O error.
        std::fs::remove_file(spool.join("jobs/poison.blif")).expect("remove netlist");
        let crashes = crash_then_recover(&spool, FaultPlan::none().crash_after(label));
        assert!(crashes >= 1, "crash point {label} never fired");
        let server = Server::open(&spool, base_cfg(), None).expect("open");
        let entry = server.queue().get("poison").expect("known");
        assert!(
            matches!(entry.state, JobState::Quarantined { .. }),
            "poison job must quarantine, got {:?}",
            entry.state
        );
        let err_file = spool.join("quarantine/poison.err");
        let err = std::fs::read_to_string(&err_file).expect("quarantine artifact");
        assert!(
            err.contains("netpart-quarantine v1") && err.contains("poison"),
            "quarantine artifact incomplete:\n{err}"
        );
        assert_journal_consistent(&spool, "poison", false);
        let _ = std::fs::remove_dir_all(&spool);
    }
}

/// Tear every durable-write index of the happy path in turn: the torn
/// tail (journal) or stray temp file (artifacts) must never become
/// trusted content, and the job completes on restart.
#[test]
fn torn_write_at_every_index_recovers_to_done() {
    // Happy-path durable writes: 1 submit record, 2 claim record,
    // 3 start record, 4 result artifact, 5 cert artifact, 6 cache
    // entry, 7 done record.
    for n in 1..=7u64 {
        let spool = tdir(&format!("torn-{n}"));
        submit(&spool, "j1", &kway_spec());
        let crashes = crash_then_recover(&spool, FaultPlan::none().torn_write(n));
        assert!(crashes >= 1, "torn write {n} never fired");
        assert_done_with_verified_cert(&spool, "j1");
        assert_journal_consistent(&spool, "j1", true);
        let _ = std::fs::remove_dir_all(&spool);
    }
}

/// Fail every durable-write index with disk-full in turn: nothing
/// partial lands anywhere, and once space "returns" (the fault is
/// one-shot) the job completes.
#[test]
fn disk_full_at_every_index_recovers_to_done() {
    for n in 1..=7u64 {
        let spool = tdir(&format!("full-{n}"));
        submit(&spool, "j1", &kway_spec());
        let mut cfg = base_cfg();
        cfg.fault = FaultPlan::none().disk_full(n);
        let mut server = Server::open(&spool, cfg, None).expect("open");
        // Disk-full is not a crash: journal-append failures abort the
        // loop with an I/O error, artifact failures journal a `fail`
        // and retry. Both are acceptable; what matters is recovery.
        let _ = server.run();
        drop(server);
        let mut server = Server::open(&spool, base_cfg(), None).expect("reopen");
        server.run().expect("fault-free run settles");
        assert_done_with_verified_cert(&spool, "j1");
        assert_journal_consistent(&spool, "j1", true);
        let _ = std::fs::remove_dir_all(&spool);
    }
}

/// A crash between artifact write and the `done` record re-runs the
/// job; determinism makes the re-run overwrite byte-identical
/// artifacts, so "exactly once" holds observably.
#[test]
fn artifact_crash_rerun_is_byte_identical() {
    let spool = tdir("idempotent");
    submit(&spool, "j1", &kway_spec());
    let mut cfg = base_cfg();
    cfg.fault = FaultPlan::none().crash_after("artifact");
    let mut server = Server::open(&spool, cfg, None).expect("open");
    let err = server.run().expect_err("crash fires");
    assert!(matches!(err, ServeError::CrashInjected { .. }));
    drop(server);
    let first = std::fs::read(spool.join("results/j1.result")).expect("artifact persisted");
    let mut server = Server::open(&spool, base_cfg(), None).expect("reopen");
    server.run().expect("settles");
    let second = std::fs::read(spool.join("results/j1.result")).expect("artifact");
    let strip = |b: &[u8]| {
        // The attempt number legitimately differs across the re-run;
        // everything else must be identical.
        String::from_utf8_lossy(b)
            .lines()
            .filter(|l| !l.starts_with("attempt ") && !l.starts_with("#fnv="))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&first), strip(&second), "re-run diverged");
    assert_done_with_verified_cert(&spool, "j1");
    let _ = std::fs::remove_dir_all(&spool);
}

/// Crash-interrupted attempts count toward the retry allowance: a job
/// that crashes the server on every claim quarantines instead of
/// looping forever.
#[test]
fn repeatedly_crashing_job_quarantines() {
    let spool = tdir("poison-crash");
    let mut spec = kway_spec();
    spec.max_retries = Some(2);
    submit(&spool, "crasher", &spec);
    let mut cfg = base_cfg();
    cfg.fault = FaultPlan::none().crash_after("start");
    let mut crashes = 0;
    for _ in 0..6 {
        let mut server = Server::open(&spool, cfg.clone(), None).expect("open");
        match server.run() {
            Err(ServeError::CrashInjected { .. }) => crashes += 1,
            Ok(_) => break,
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    assert_eq!(crashes, 2, "allowance bounds the crash loop");
    let server = Server::open(&spool, base_cfg(), None).expect("open");
    let entry = server.queue().get("crasher").expect("known");
    assert!(
        matches!(entry.state, JobState::Quarantined { .. }),
        "got {:?}",
        entry.state
    );
    assert_eq!(entry.attempts, 2, "both interrupted attempts counted");
    let _ = std::fs::remove_dir_all(&spool);
}

/// Identical resubmission after completion replays from the verified
/// disk cache (done, cached = true) without re-running the engine.
#[test]
fn identical_resubmission_replays_from_cache() {
    let spool = tdir("cache-replay");
    submit(&spool, "a1", &kway_spec());
    let mut server = Server::open(&spool, base_cfg(), None).expect("open");
    let report = server.run().expect("first run");
    assert_eq!(report.cache_hits, 0);
    drop(server);
    submit(&spool, "a2", &kway_spec());
    let mut server = Server::open(&spool, base_cfg(), None).expect("reopen");
    let report = server.run().expect("second run");
    assert_eq!(report.cache_hits, 1, "identical job must hit the cache");
    let entry = server.queue().get("a2").expect("known");
    match &entry.state {
        JobState::Done { cached, .. } => assert!(cached, "a2 must be served cached"),
        other => panic!("a2 not done: {other:?}"),
    }
    assert_done_with_verified_cert(&spool, "a2");
    let _ = std::fs::remove_dir_all(&spool);
}

/// Backpressure: submissions beyond `max_queue` are refused with
/// `QueueFull` and leave no files behind.
#[test]
fn backpressure_refuses_over_capacity_submissions() {
    let spool = tdir("backpressure");
    submit(&spool, "q1", &kway_spec());
    submit(&spool, "q2", &kway_spec());
    match submit_job(&spool, "q3", &blif(), &kway_spec(), 2).expect("submit call") {
        SubmitOutcome::QueueFull { open, max } => {
            assert_eq!((open, max), (2, 2));
        }
        other => panic!("expected QueueFull, got {other:?}"),
    }
    assert!(
        !spool.join("jobs/q3.job").exists() && !spool.join("jobs/q3.blif").exists(),
        "refused submission must write nothing"
    );
    // Duplicate ids are refused outright.
    let err = submit_job(&spool, "q1", &blif(), &kway_spec(), 64).expect_err("duplicate");
    assert!(err.to_string().contains("already exists"), "{err}");
    let _ = std::fs::remove_dir_all(&spool);
}

/// A permanently invalid job (corrupt spec) quarantines on its first
/// attempt — no retries burned on inputs that cannot improve.
#[test]
fn corrupt_spec_quarantines_immediately() {
    let spool = tdir("corrupt-spec");
    submit(&spool, "bad", &kway_spec());
    // Flip one byte of the spec (after admission-relevant submit).
    let spec_path = spool.join("jobs/bad.job");
    let mut bytes = std::fs::read(&spec_path).expect("read spec");
    bytes[20] ^= 0x01;
    std::fs::write(&spec_path, &bytes).expect("tamper");
    let mut server = Server::open(&spool, base_cfg(), None).expect("open");
    let report = server.run().expect("run settles");
    assert_eq!(report.quarantined, 1);
    let entry = server.queue().get("bad").expect("known");
    match &entry.state {
        JobState::Quarantined { attempts, msg } => {
            assert_eq!(*attempts, 1, "no retries for permanent errors");
            assert!(
                msg.contains("checksum") || msg.contains("job spec"),
                "{msg}"
            );
        }
        other => panic!("expected quarantine, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&spool);
}
