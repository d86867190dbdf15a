//! End-to-end multi-FPGA board scenarios through the CLI: partition →
//! route over a builtin board → certify → `netpart verify`.
//!
//! Each scenario synthesizes a circuit sized so the partitioner's part
//! count fits the board's site count (the part→site mapping is the
//! identity), then checks the whole loop: the topology objective line
//! prints, the certificate embeds the board section, and the
//! independent verifier re-derives routing feasibility, hops and
//! congestion from scratch and accepts. Also pinned here: certificate
//! byte-identity across `--jobs` levels under `--board`, and the exit-2
//! contract when a placement occupies more parts than the board has
//! sites.

use std::path::PathBuf;
use std::process::Command;

fn netpart() -> Command {
    Command::new(env!("CARGO_BIN_EXE_netpart"))
}

/// A per-test temp dir (removed on drop) with a synthesized circuit.
struct Lab {
    dir: PathBuf,
}

impl Lab {
    fn new(tag: &str, gates: u32) -> Lab {
        let dir = std::env::temp_dir().join(format!("netpart-board-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let lab = Lab { dir };
        let out = netpart()
            .args([
                "synth",
                &gates.to_string(),
                lab.blif().to_str().unwrap(),
                "--seed",
                "3",
            ])
            .output()
            .expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(0),
            "synth failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        lab
    }

    fn blif(&self) -> PathBuf {
        self.dir.join("circuit.blif")
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Lab {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let out = netpart().args(args).output().expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The full loop for one builtin board: partition, route, certify,
/// verify. `cmd` selects bipartition (2-site boards) or kway.
fn scenario(tag: &str, gates: u32, board: &str, cmd: &str) {
    let lab = Lab::new(tag, gates);
    let cert = lab.path("scenario.cert");
    let (code, stdout, stderr) = run(&[
        cmd,
        lab.blif().to_str().unwrap(),
        "--seed",
        "11",
        "--board",
        board,
        "--certify-out",
        cert.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{cmd} failed: {stderr}");
    assert!(
        stdout.contains(&format!("board {board}: routed ")),
        "no topology objective line: {stdout}"
    );
    let text = std::fs::read_to_string(&cert).expect("certificate written");
    assert!(
        text.lines().any(|l| l.starts_with("board ")),
        "certificate lacks the board section:\n{text}"
    );
    assert!(
        text.lines().any(|l| l.starts_with("claim hops ")),
        "certificate lacks the hops claim:\n{text}"
    );
    let (code, stdout, stderr) = run(&["verify", cert.to_str().unwrap()]);
    assert_eq!(code, Some(0), "verify rejected {board}: {stderr}");
    assert!(
        stdout.contains("hops = ") && stdout.contains("congestion = "),
        "verdict lacks the re-derived routing terms: {stdout}"
    );
}

#[test]
fn direct2_scenario_partitions_routes_and_verifies() {
    scenario("direct2", 800, "direct2", "bipartition");
}

#[test]
fn mesh2x2_scenario_partitions_routes_and_verifies() {
    scenario("mesh2x2", 1000, "mesh2x2", "kway");
}

#[test]
fn star8_scenario_partitions_routes_and_verifies() {
    scenario("star8", 1400, "star8", "kway");
}

#[test]
fn certificates_are_byte_identical_across_jobs_levels_under_board() {
    // --tasks pins the portfolio width so the reduction is
    // jobs-invariant; the board section (routes, hops, congestion) must
    // then be byte-identical too, because routing is a pure function of
    // the winning placement.
    let lab = Lab::new("jobs", 1000);
    let mut certs = Vec::new();
    for jobs in ["1", "8"] {
        let cert = lab.path(&format!("jobs{jobs}.cert"));
        let (code, _, stderr) = run(&[
            "kway",
            lab.blif().to_str().unwrap(),
            "--seed",
            "11",
            "--tasks",
            "4",
            "--jobs",
            jobs,
            "--board",
            "mesh2x2",
            "--certify-out",
            cert.to_str().unwrap(),
        ]);
        assert_eq!(code, Some(0), "jobs {jobs} failed: {stderr}");
        certs.push(std::fs::read(&cert).expect("certificate written"));
    }
    assert_eq!(
        certs[0], certs[1],
        "certificate bytes diverge between --jobs 1 and --jobs 8"
    );
}

#[test]
fn more_parts_than_sites_exits_two() {
    // 1400 gates k-way partitions into 3 parts; the 2-site direct link
    // cannot host them under the identity part→site mapping.
    let lab = Lab::new("overflow", 1400);
    let (code, _, stderr) = run(&[
        "kway",
        lab.blif().to_str().unwrap(),
        "--seed",
        "11",
        "--board",
        "direct2",
    ]);
    assert_eq!(code, Some(2), "expected invalid-input exit: {stderr}");
    assert!(
        stderr.contains("device sites"),
        "stderr lacks the site-count cause: {stderr}"
    );
}

#[test]
fn board_events_land_in_the_trace() {
    let lab = Lab::new("trace", 800);
    let trace = lab.path("run.jsonl");
    let (code, _, stderr) = run(&[
        "bipartition",
        lab.blif().to_str().unwrap(),
        "--seed",
        "11",
        "--board",
        "direct2",
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    let text = std::fs::read_to_string(&trace).expect("trace written");
    assert!(
        text.contains("\"scope\":\"board\""),
        "no board.* events in the trace"
    );
    assert!(
        text.contains("\"event\":\"routed\""),
        "no board.routed event"
    );
}
