//! Mutation sweep over every text parser and the BLIF ingest path.
//!
//! Seeds are the committed corpus (`tests/data/*`), three generated
//! BLIFs, the builtin boards and a few job specs. Each case applies one
//! to three mutations drawn from `netpart-rng` (bit flips, truncations,
//! line splices, CR and NUL injection) and feeds the result to the
//! parser for its format. Two properties hold on every case:
//!
//! * no parser, and no ingest layer after `parse_blif` (`validate` →
//!   `decompose_wide_gates` → `map` → `to_hypergraph`), panics;
//! * every accepted input is writer-idempotent:
//!   `write(parse(write(parse(x)))) == write(parse(x))`.
//!
//! A failure names the case and its seed file, so a case is reproduced
//! from two integers. The bounded sweep runs in the default pass; the
//! `#[ignore]`d deep sweep rides CI's release `--ignored` step.

use netpart::prelude::*;
use netpart::techmap::{decompose_wide_gates, map, MapperConfig};
use netpart::verify::SolutionCertificate;
use netpart_rng::{Fnv1a, Rng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The format of a seed input, which picks its parser.
#[derive(Clone, Copy, Debug)]
enum Format {
    Blif,
    Board,
    Certificate,
    JobSpec,
}

/// The seed inputs: `(name, format, text)`.
fn seeds() -> Vec<(String, Format, String)> {
    let mut seeds = Vec::new();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus dir")
        .map(|e| e.expect("entry").path())
        .collect();
    paths.sort();
    for path in paths {
        let format = match path.extension().and_then(|e| e.to_str()) {
            Some("blif") => Format::Blif,
            Some("board") => Format::Board,
            Some("cert") => Format::Certificate,
            _ => continue,
        };
        let text = std::fs::read_to_string(&path).expect("corpus file");
        let name = path.file_name().expect("file name").to_string_lossy();
        seeds.push((name.into_owned(), format, text));
    }
    for (gates, dffs, rent) in [(60, 4, None), (150, 12, None), (220, 10, Some(0.65))] {
        let mut cfg = GeneratorConfig::new(gates).with_dff(dffs).with_seed(7);
        if let Some(p) = rent {
            cfg = cfg.with_rent(p);
        }
        let name = format!("synth{gates}");
        seeds.push((name, Format::Blif, write_blif(&generate(&cfg))));
    }
    for board in [Board::direct2(), Board::mesh2x2()] {
        seeds.push((board.name().to_string(), Format::Board, board.to_text()));
    }
    let kway = JobSpec {
        netlist: "netlists/a.blif".into(),
        budget_ms: 250,
        max_retries: Some(2),
        ..JobSpec::default()
    };
    let bipartition = JobSpec {
        cmd: JobCmd::Bipartition,
        netlist: "b.blif".into(),
        seed: 9,
        replication: ReplicationMode::None,
        max_moves: 5_000,
        ..JobSpec::default()
    };
    for (name, spec) in [("kway.job", kway), ("bipartition.job", bipartition)] {
        seeds.push((name.into(), Format::JobSpec, spec.to_text()));
    }
    seeds
}

/// A random byte offset in `0..=len`.
fn offset(rng: &mut Rng, len: usize) -> usize {
    rng.gen_below(len as u64 + 1) as usize
}

/// Applies one to three mutations to `input`.
fn mutate(rng: &mut Rng, input: &str) -> String {
    let mut bytes = input.as_bytes().to_vec();
    for _ in 0..1 + rng.gen_below(3) {
        match rng.gen_below(5) {
            0 if !bytes.is_empty() => {
                let at = rng.gen_below(bytes.len() as u64) as usize;
                bytes[at] ^= 1 << rng.gen_below(8);
            }
            1 => bytes.truncate(offset(rng, bytes.len())),
            2 => {
                // Splice: copy a random line of the input to a random
                // line start, or delete one.
                let text = String::from_utf8_lossy(&bytes).into_owned();
                let mut lines: Vec<&str> = text.split_inclusive('\n').collect();
                if !lines.is_empty() {
                    let from = rng.gen_below(lines.len() as u64) as usize;
                    let to = offset(rng, lines.len());
                    if rng.gen_bool(0.5) {
                        let line = lines[from];
                        lines.insert(to, line);
                    } else {
                        lines.remove(from);
                    }
                }
                bytes = lines.concat().into_bytes();
            }
            3 => {
                let at = offset(rng, bytes.len());
                bytes.insert(at, b'\r');
            }
            _ => {
                let at = offset(rng, bytes.len());
                bytes.insert(at, 0);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Re-appends a valid `#fnv=` line to a mutated job spec body, so the
/// mutation reaches the field parser instead of the checksum check.
fn reseal(spec: &str) -> String {
    let body = spec.rsplit_once("#fnv=").map_or(spec, |(body, _)| body);
    let mut h = Fnv1a::new();
    h.write(body.as_bytes());
    format!("{body}#fnv={:016x}\n", h.finish())
}

/// How far a case got.
#[derive(Clone, Copy, PartialEq)]
enum Reached {
    Rejected,
    RoundTripped,
    /// A BLIF that went all the way to a hypergraph.
    Mapped,
}

/// Parses `text` as `format`; on success checks writer idempotence and,
/// for a BLIF, drives the ingest layers.
fn check(format: Format, text: &str) -> Reached {
    match format {
        Format::Blif => {
            let Ok(nl) = parse_blif(text) else {
                return Reached::Rejected;
            };
            let written = write_blif(&nl);
            let again = parse_blif(&written).expect("written BLIF parses");
            assert_eq!(write_blif(&again), written, "BLIF writer not idempotent");
            if nl.validate().is_err() {
                return Reached::RoundTripped;
            }
            let nl = decompose_wide_gates(&nl, 5);
            let Ok(mapped) = map(&nl, &MapperConfig::xc3000()) else {
                return Reached::RoundTripped;
            };
            let hg = mapped.to_hypergraph(&nl);
            assert_eq!(hg.stats().clbs as usize, mapped.n_clbs());
            Reached::Mapped
        }
        Format::Board => {
            let Ok(board) = parse_board(text) else {
                return Reached::Rejected;
            };
            let written = board.to_text();
            let again = parse_board(&written).expect("written board parses");
            assert_eq!(again.to_text(), written, "board writer not idempotent");
            Reached::RoundTripped
        }
        Format::Certificate => {
            let Ok(cert) = SolutionCertificate::parse(text) else {
                return Reached::Rejected;
            };
            let written = cert.to_text();
            let again = SolutionCertificate::parse(&written).expect("written certificate parses");
            assert_eq!(
                again.to_text(),
                written,
                "certificate writer not idempotent"
            );
            Reached::RoundTripped
        }
        Format::JobSpec => {
            let Ok(spec) = JobSpec::parse(text) else {
                return Reached::Rejected;
            };
            let written = spec.to_text();
            let again = JobSpec::parse(&written).expect("written job spec parses");
            assert_eq!(again.to_text(), written, "job spec writer not idempotent");
            Reached::RoundTripped
        }
    }
}

/// Runs `cases` mutated inputs, round-robin over the seeds, and checks
/// that every format had accepted cases and some BLIFs were mapped, so
/// the sweep cannot pass by rejecting everything.
fn sweep(seed: u64, cases: usize) {
    let seeds = seeds();
    assert!(seeds.len() >= 25, "corpus shrank: {} seeds", seeds.len());
    let mut rng = Rng::seed_from_u64(seed);
    // Accepted cases per format, in `Format` order, and mapped BLIFs.
    let mut accepted = [0usize; 4];
    let mut mapped = 0;
    for case in 0..cases {
        let (name, format, text) = &seeds[case % seeds.len()];
        let mut input = mutate(&mut rng, text);
        if matches!(format, Format::JobSpec) && rng.gen_bool(0.5) {
            input = reseal(&input);
        }
        match catch_unwind(AssertUnwindSafe(|| check(*format, &input))) {
            Ok(Reached::Rejected) => {}
            Ok(reached) => {
                accepted[*format as usize] += 1;
                mapped += usize::from(reached == Reached::Mapped);
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                panic!("sweep seed {seed}, case {case} (from {name}): {msg}\ninput:\n{input:?}");
            }
        }
    }
    assert!(
        accepted.iter().all(|&n| n > 0) && mapped > 0,
        "accepted per format {accepted:?}, mapped {mapped}"
    );
}

#[test]
fn mutated_inputs_never_panic_and_round_trip() {
    sweep(0x5eed_2018, 2_000);
}

#[test]
#[ignore = "deep sweep: run in the release --ignored pass"]
fn deep_mutation_sweep() {
    sweep(0xdee9_2018, 50_000);
}
