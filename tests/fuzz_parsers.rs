//! Mutation sweep over every text parser and the BLIF ingest path.
//!
//! Seeds are the committed corpus (`tests/data/*`), three generated
//! BLIFs, the builtin boards, a few job specs, service journal (WAL)
//! record lines and whole journals, and a JSONL run trace. Each case
//! applies one to three mutations drawn from `netpart-rng` (bit flips,
//! truncations, line splices, CR and NUL injection) and feeds the result
//! to the parser for its format. Three properties hold on every case:
//!
//! * no parser, and no ingest layer after `parse_blif` (`validate` →
//!   `decompose_wide_gates` → `map` → `to_hypergraph`), panics — a
//!   mutated or torn journal replays (`Wal::replay_readonly`, from a
//!   file) to its valid prefix or fails with a typed error, and a
//!   mutated trace is scanned (`scan_trace`) into line-numbered errors;
//! * every accepted input is writer-idempotent:
//!   `write(parse(write(parse(x)))) == write(parse(x))` (for a journal
//!   record, `parse(encode(r)) == r`; a replayed journal re-encodes to
//!   its own valid prefix).
//! * every rejected BLIF names a line of the input:
//!   `ParseBlifError::line()` lies in `1..=` its physical line count.
//!
//! A failure names the case and its seed file, so a case is reproduced
//! from two integers. The bounded sweep runs in the default pass; the
//! `#[ignore]`d deep sweep rides CI's release `--ignored` step.

use netpart::obs::{scan_trace, to_jsonl, BufferRecorder};
use netpart::prelude::*;
use netpart::serve::{Wal, WalRecord};
use netpart::techmap::{decompose_wide_gates, map, MapperConfig};
use netpart::verify::SolutionCertificate;
use netpart_rng::{Fnv1a, Rng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The format of a seed input, which picks its parser.
#[derive(Clone, Copy, Debug)]
enum Format {
    Blif,
    Board,
    Certificate,
    JobSpec,
    /// One journal line.
    WalRecord,
    /// A whole journal file.
    Wal,
    Trace,
}

/// One of every journal record kind, free text with escapes included.
fn wal_records() -> Vec<WalRecord> {
    let job = |s: &str| s.to_string();
    vec![
        WalRecord::Submit {
            job: job("j1"),
            spec_fnv: 0xdead_beef,
        },
        WalRecord::Claim {
            job: job("j1"),
            attempt: 1,
        },
        WalRecord::Start {
            job: job("j1"),
            attempt: 1,
        },
        WalRecord::Fail {
            job: job("j1"),
            attempt: 1,
            code: 4,
            msg: "budget exhausted: wall 250 ms\tafter\n1 run".into(),
        },
        WalRecord::Retry {
            job: job("j1"),
            attempt: 1,
            delay: 3,
        },
        WalRecord::Done {
            job: job("j1"),
            attempt: 2,
            cached: true,
            key: 0x0123_4567_89ab_cdef,
        },
        WalRecord::Quarantine {
            job: job("j2"),
            attempts: 3,
            msg: String::new(),
        },
    ]
}

/// A journal file: the header, then `records` numbered from 1.
fn wal_text(records: &[WalRecord]) -> String {
    let mut text = String::from("netpart-wal v1\n");
    for (i, rec) in records.iter().enumerate() {
        text.push_str(&rec.encode(i as u64 + 1));
        text.push('\n');
    }
    text
}

/// The JSONL trace of a small k-way run at trace level: spans, counters,
/// gauges, histograms and point events.
fn trace_text() -> String {
    let nl = generate(&GeneratorConfig::new(80).with_dff(4).with_seed(5));
    let hg = map(&nl, &MapperConfig::xc3000())
        .expect("generated netlists map")
        .to_hypergraph(&nl);
    let recorder = Arc::new(BufferRecorder::new());
    let cfg = KWayConfig::new(DeviceLibrary::xc3000())
        .with_candidates(1)
        .with_seed(3);
    Engine::new(1)
        .with_recorder(recorder.clone())
        .kway(&hg, &cfg, 1)
        .expect("small circuits partition");
    to_jsonl(&recorder.take())
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
    let records = wal_records();
    for (i, rec) in records.iter().enumerate() {
        let name = format!("{}.walrec", rec.label());
        seeds.push((name, Format::WalRecord, rec.encode(i as u64 + 1)));
    }
    seeds.push(("short.wal".into(), Format::Wal, wal_text(&records[..3])));
    seeds.push(("long.wal".into(), Format::Wal, wal_text(&records)));
    seeds.push(("kway.jsonl".into(), Format::Trace, trace_text()));
    seeds
}

/// The scratch journal file the sweep with seed `seed` replays mutated
/// journals from: one per sweep, since both sweeps can run at once in
/// one test process (`--include-ignored`).
fn wal_path(seed: u64) -> PathBuf {
    let name = format!("netpart-fuzz-{}-{seed:x}.wal", std::process::id());
    std::env::temp_dir().join(name)
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

/// [`reseal`] for a journal record line, whose checksum closes the line.
fn reseal_record(line: &str) -> String {
    let body = line.rsplit_once(" #fnv=").map_or(line, |(body, _)| body);
    let mut h = Fnv1a::new();
    h.write(body.as_bytes());
    format!("{body} #fnv={:016x}", h.finish())
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
/// for a BLIF, drives the ingest layers. A journal is replayed from
/// `wal`, a scratch file path.
fn check(format: Format, text: &str, wal: &Path) -> Reached {
    match format {
        Format::Blif => {
            let nl = match parse_blif(text) {
                Ok(nl) => nl,
                Err(e) => {
                    let lines = text.lines().count();
                    assert!(
                        (1..=lines).contains(&e.line()),
                        "BLIF error outside lines 1..={lines}: {e}"
                    );
                    return Reached::Rejected;
                }
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
        Format::WalRecord => {
            let Ok((seq, rec)) = WalRecord::parse(text) else {
                return Reached::Rejected;
            };
            let again = WalRecord::parse(&rec.encode(seq)).expect("encoded record parses");
            assert_eq!(again, (seq, rec), "journal record does not round-trip");
            Reached::RoundTripped
        }
        Format::Wal => {
            std::fs::write(wal, text).expect("write scratch journal");
            let Ok(recovery) = Wal::replay_readonly(wal) else {
                return Reached::Rejected;
            };
            // The replayed records are the journal's valid prefix: they
            // re-encode to exactly the bytes kept, and a clean replay
            // kept everything.
            let records: Vec<WalRecord> = recovery.records.iter().map(|(_, r)| r.clone()).collect();
            let prefix = if text.is_empty() {
                String::new() // an empty journal replays as empty
            } else {
                wal_text(&records)
            };
            let kept = text.len() as u64 - recovery.truncated_bytes;
            assert_eq!(prefix.len() as u64, kept, "replay kept a different prefix");
            assert!(
                text.starts_with(&prefix),
                "replayed records are not the prefix"
            );
            assert_eq!(recovery.torn_tail, kept < text.len() as u64);
            Reached::RoundTripped
        }
        Format::Trace => {
            let scan = scan_trace(text);
            if !scan.errors.is_empty() {
                assert!(
                    scan.errors
                        .iter()
                        .all(|e| e.starts_with("line ") || e.starts_with("end of trace: ")),
                    "trace error without a position: {:?}",
                    scan.errors
                );
                return Reached::Rejected;
            }
            Reached::RoundTripped
        }
    }
}

/// Runs `cases` mutated inputs, round-robin over the seeds, and checks
/// that every format had accepted cases and some BLIFs were mapped, so
/// the sweep cannot pass by rejecting everything.
fn sweep(seed: u64, cases: usize) {
    let seeds = seeds();
    assert!(seeds.len() >= 35, "corpus shrank: {} seeds", seeds.len());
    let wal = wal_path(seed);
    let mut rng = Rng::seed_from_u64(seed);
    // Accepted cases per format, in `Format` order, and mapped BLIFs.
    let mut accepted = [0usize; 7];
    let mut mapped = 0;
    for case in 0..cases {
        let (name, format, text) = &seeds[case % seeds.len()];
        let mut input = mutate(&mut rng, text);
        match format {
            Format::JobSpec if rng.gen_bool(0.5) => input = reseal(&input),
            Format::WalRecord if rng.gen_bool(0.5) => input = reseal_record(&input),
            _ => {}
        }
        match catch_unwind(AssertUnwindSafe(|| check(*format, &input, &wal))) {
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
    let _ = std::fs::remove_file(&wal);
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
