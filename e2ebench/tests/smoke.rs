//! Smoke test of the benchmark binary on the shrunken workloads: every
//! metric `BENCHMARK.json` names is printed with its unit, a circuit seed
//! other than the default runs clean, and a corrupted certificate is
//! counted as a failed operation.

use netpart_obs::parse_json;
use netpart_obs::trace::Json;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_netpart-e2ebench");
const WORKLOADS: [&str; 3] = ["rent-ml", "paper-kway", "rent-repl"];

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(["--shrink", "--seconds", "0"])
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

/// The JSON object on the last stdout line.
fn result(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("some stdout");
    parse_json(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let doc = parse_json(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(metrics)) = doc.get(section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    metrics
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_prints(doc: &Json, section: &str) {
    let Some(Json::Obj(printed)) = doc.get("metrics") else {
        panic!("no metrics object");
    };
    let declared = declared(section);
    assert_eq!(
        printed.len(),
        declared.len(),
        "exactly the {section} metrics"
    );
    for (name, unit) in declared {
        let m = doc
            .get("metrics")
            .and_then(|ms| ms.get(&name))
            .unwrap_or_else(|| panic!("{name} not printed"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        assert!(
            matches!(m.get("value"), Some(Json::Num(v)) if v.is_finite()),
            "{name}"
        );
    }
}

fn assert_clean(out: &Output) -> Json {
    let doc = result(out);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
    assert!(doc.get("attempted").and_then(Json::as_u64) >= Some(1));
    doc
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    for w in WORKLOADS {
        let doc = assert_clean(&run(&["--workload", w, "--trace", "0"]));
        assert_prints(&doc, "end_to_end");
        let Some(Json::Obj(ms)) = doc.get("metrics") else {
            unreachable!()
        };
        for (name, m) in ms {
            assert!(
                matches!(m.get("value"), Some(Json::Num(v)) if *v > 0.0),
                "{w} {name} is 0"
            );
        }
        let doc = assert_clean(&run(&["--workload", w, "--trace", "1"]));
        assert_prints(&doc, "per_layer");
    }
}

#[test]
fn a_hold_out_circuit_seed_runs_clean() {
    for w in WORKLOADS {
        assert_clean(&run(&[
            "--workload",
            w,
            "--seed",
            "7",
            "--circuit-seed",
            "7",
        ]));
    }
}

#[test]
fn a_corrupted_certificate_is_a_failed_operation() {
    let out = run(&["--workload", "rent-repl", "--corrupt-round", "1"]);
    let doc = result(&out);
    assert!(!out.status.success());
    assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
    assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("FAILED round 1") && stderr.contains("verifier"),
        "{stderr}"
    );
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [&["--workload", "serve-batch"][..], &["--trace", "2"], &[]] {
        let out = Command::new(BIN).args(args).output().expect("runs");
        assert_eq!(out.status.code(), Some(2));
        assert!(out.stdout.is_empty());
    }
}
