//! The append-only write-ahead journal.
//!
//! One text line per record:
//!
//! ```text
//! netpart-wal v1
//! 1 submit job-0001 00c5a1b2e9d40f77
//! 2 claim job-0001 1
//! 3 start job-0001 1
//! 4 done job-0001 1 0 5ad61c88f0e2b341
//! ```
//!
//! Every record line carries its sequence number and a trailing
//! ` #fnv=<16 hex>` FNV-1a checksum over everything before the marker.
//! Appends are flushed and fsynced before the caller proceeds, so a
//! record either is durable or was never acted on. Recovery replays
//! the file and stops at the first torn or corrupt line — a partial
//! tail (the classic `kill -9` mid-append) is detected by its missing
//! newline or failing checksum and truncated away, never trusted. A
//! sequence-number discontinuity is treated the same way: everything
//! from the first inconsistent record on is discarded.

use crate::fsio::{Injector, WriteFault};
use crate::ServeError;
use netpart_rng::Fnv1a;
use std::io::{Read as _, Seek as _, Write as _};
use std::path::{Path, PathBuf};

/// The journal header line (version-gates the record format).
const HEADER: &str = "netpart-wal v1";

/// One queue transition, as journaled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// A job file was admitted to the queue. `spec_fnv` is the
    /// checksum of the job specification file at admission, pinning
    /// the spec the queue decision was made for.
    Submit {
        /// Job id.
        job: String,
        /// FNV-1a digest of the admitted job file.
        spec_fnv: u64,
    },
    /// The server took ownership of the job for attempt `attempt`
    /// (1-based).
    Claim {
        /// Job id.
        job: String,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// Execution of the claimed attempt began.
    Start {
        /// Job id.
        job: String,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// The attempt completed and its artifacts are durable.
    Done {
        /// Job id.
        job: String,
        /// 1-based attempt number.
        attempt: u32,
        /// Whether the result was replayed from the disk cache.
        cached: bool,
        /// The request key ([`JobSpec::request_key`](crate::JobSpec::request_key)).
        key: u64,
    },
    /// The attempt failed with a typed error.
    Fail {
        /// Job id.
        job: String,
        /// 1-based attempt number.
        attempt: u32,
        /// The [`PartitionError`](netpart_core::PartitionError) exit
        /// code (2–5), or 1 for I/O-layer failures.
        code: i32,
        /// The error display text (whitespace-escaped).
        msg: String,
    },
    /// The failed job re-enters the queue after a deterministic
    /// backoff.
    Retry {
        /// Job id.
        job: String,
        /// The attempt that failed.
        attempt: u32,
        /// Backoff delay in scheduler rounds.
        delay: u64,
    },
    /// The job was declared poison and removed from rotation.
    Quarantine {
        /// Job id.
        job: String,
        /// Attempts consumed (including crash-interrupted ones).
        attempts: u32,
        /// The final error display text (whitespace-escaped).
        msg: String,
    },
}

/// Escapes a free-text field into a single whitespace-free token.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            ' ' => out.push_str("\\s"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    if out.is_empty() {
        out.push_str("\\0");
    }
    out
}

/// Inverse of [`escape`].
fn unescape(s: &str) -> String {
    if s == "\\0" {
        return String::new();
    }
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match it.next() {
            Some('\\') => out.push('\\'),
            Some('s') => out.push(' '),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

impl WalRecord {
    /// The transition label — also the crash-point vocabulary of
    /// [`FaultPlan::crash_after`](netpart_core::FaultPlan::crash_after).
    pub fn label(&self) -> &'static str {
        match self {
            WalRecord::Submit { .. } => "submit",
            WalRecord::Claim { .. } => "claim",
            WalRecord::Start { .. } => "start",
            WalRecord::Done { .. } => "done",
            WalRecord::Fail { .. } => "fail",
            WalRecord::Retry { .. } => "retry",
            WalRecord::Quarantine { .. } => "quarantine",
        }
    }

    /// The job this record is about.
    pub fn job(&self) -> &str {
        match self {
            WalRecord::Submit { job, .. }
            | WalRecord::Claim { job, .. }
            | WalRecord::Start { job, .. }
            | WalRecord::Done { job, .. }
            | WalRecord::Fail { job, .. }
            | WalRecord::Retry { job, .. }
            | WalRecord::Quarantine { job, .. } => job,
        }
    }

    fn payload(&self) -> String {
        match self {
            WalRecord::Submit { job, spec_fnv } => format!("submit {job} {spec_fnv:016x}"),
            WalRecord::Claim { job, attempt } => format!("claim {job} {attempt}"),
            WalRecord::Start { job, attempt } => format!("start {job} {attempt}"),
            WalRecord::Done {
                job,
                attempt,
                cached,
                key,
            } => format!("done {job} {attempt} {} {key:016x}", u8::from(*cached)),
            WalRecord::Fail {
                job,
                attempt,
                code,
                msg,
            } => format!("fail {job} {attempt} {code} {}", escape(msg)),
            WalRecord::Retry {
                job,
                attempt,
                delay,
            } => format!("retry {job} {attempt} {delay}"),
            WalRecord::Quarantine { job, attempts, msg } => {
                format!("quarantine {job} {attempts} {}", escape(msg))
            }
        }
    }

    /// Renders the full journal line (without trailing newline) for
    /// sequence number `seq`.
    pub fn encode(&self, seq: u64) -> String {
        let body = format!("{seq} {}", self.payload());
        let mut h = Fnv1a::new();
        h.write(body.as_bytes());
        format!("{body} #fnv={:016x}", h.finish())
    }

    /// Parses one journal line into `(seq, record)`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural or checksum
    /// problem; recovery treats any error as the start of the torn
    /// tail.
    pub fn parse(line: &str) -> Result<(u64, WalRecord), String> {
        let (body, fnv_hex) = line
            .rsplit_once(" #fnv=")
            .ok_or_else(|| "missing checksum marker".to_string())?;
        let claimed = crate::parse_fnv_hex(fnv_hex)?;
        let mut h = Fnv1a::new();
        h.write(body.as_bytes());
        if h.finish() != claimed {
            return Err("checksum mismatch".into());
        }
        let mut tok = body.split(' ');
        let mut next = |what: &str| tok.next().ok_or_else(|| format!("missing {what}"));
        let seq: u64 = next("seq")?.parse().map_err(|e| format!("bad seq: {e}"))?;
        let label = next("label")?;
        let job = next("job")?.to_string();
        let rec = match label {
            "submit" => WalRecord::Submit {
                job,
                spec_fnv: u64::from_str_radix(next("spec_fnv")?, 16)
                    .map_err(|e| format!("bad spec_fnv: {e}"))?,
            },
            "claim" | "start" => {
                let attempt = next("attempt")?
                    .parse()
                    .map_err(|e| format!("bad attempt: {e}"))?;
                if label == "claim" {
                    WalRecord::Claim { job, attempt }
                } else {
                    WalRecord::Start { job, attempt }
                }
            }
            "done" => WalRecord::Done {
                job,
                attempt: next("attempt")?
                    .parse()
                    .map_err(|e| format!("bad attempt: {e}"))?,
                cached: next("cached")? == "1",
                key: u64::from_str_radix(next("key")?, 16).map_err(|e| format!("bad key: {e}"))?,
            },
            "fail" => WalRecord::Fail {
                job,
                attempt: next("attempt")?
                    .parse()
                    .map_err(|e| format!("bad attempt: {e}"))?,
                code: next("code")?
                    .parse()
                    .map_err(|e| format!("bad code: {e}"))?,
                msg: unescape(next("msg")?),
            },
            "retry" => WalRecord::Retry {
                job,
                attempt: next("attempt")?
                    .parse()
                    .map_err(|e| format!("bad attempt: {e}"))?,
                delay: next("delay")?
                    .parse()
                    .map_err(|e| format!("bad delay: {e}"))?,
            },
            "quarantine" => WalRecord::Quarantine {
                job,
                attempts: next("attempts")?
                    .parse()
                    .map_err(|e| format!("bad attempts: {e}"))?,
                msg: unescape(next("msg")?),
            },
            other => return Err(format!("unknown record type {other:?}")),
        };
        if tok.next().is_some() {
            return Err("trailing fields".into());
        }
        Ok((seq, rec))
    }
}

/// What journal replay found on open.
#[derive(Clone, Debug, Default)]
pub struct Recovery {
    /// Every valid record, in journal order.
    pub records: Vec<(u64, WalRecord)>,
    /// Whether a torn/corrupt tail was detected (and truncated).
    pub torn_tail: bool,
    /// Bytes discarded by the truncation.
    pub truncated_bytes: u64,
}

/// The open journal: replayed once at open, then append-only.
#[derive(Debug)]
pub struct Wal {
    file: std::fs::File,
    path: PathBuf,
    next_seq: u64,
}

impl Wal {
    /// Opens (creating if absent) the journal at `path`, replaying its
    /// records and truncating any torn tail.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a journal whose *header* is corrupt is
    /// unrecoverable and reported as [`ServeError::Corrupt`].
    pub fn open(path: &Path) -> Result<(Wal, Recovery), ServeError> {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)
            .map_err(|e| ServeError::io(format!("open journal {}: {e}", path.display())))?;
        let mut text = String::new();
        file.read_to_string(&mut text)
            .map_err(|e| ServeError::io(format!("read journal {}: {e}", path.display())))?;

        if text.is_empty() {
            let header = format!("{HEADER}\n");
            file.write_all(header.as_bytes())
                .and_then(|()| file.sync_data())
                .map_err(|e| ServeError::io(format!("write journal header: {e}")))?;
            return Ok((
                Wal {
                    file,
                    path: path.to_path_buf(),
                    next_seq: 1,
                },
                Recovery::default(),
            ));
        }

        let mut recovery = Recovery::default();
        let mut good_offset = 0u64;
        let mut expect_seq = 1u64;
        let mut header_seen = false;
        for chunk in text.split_inclusive('\n') {
            let complete = chunk.ends_with('\n');
            let line = chunk.trim_end_matches('\n');
            if !header_seen {
                if !complete || line != HEADER {
                    return Err(ServeError::Corrupt {
                        what: format!("journal {} header is damaged", path.display()),
                    });
                }
                header_seen = true;
                good_offset += chunk.len() as u64;
                continue;
            }
            let parsed = if complete {
                WalRecord::parse(line)
            } else {
                Err("torn (no newline)".into())
            };
            match parsed {
                Ok((seq, rec)) if seq == expect_seq => {
                    recovery.records.push((seq, rec));
                    expect_seq += 1;
                    good_offset += chunk.len() as u64;
                }
                _ => {
                    // Torn or corrupt: everything from here on is
                    // untrusted. Truncate it away so the journal is
                    // clean for future appends.
                    recovery.torn_tail = true;
                    recovery.truncated_bytes = text.len() as u64 - good_offset;
                    file.set_len(good_offset)
                        .and_then(|()| file.sync_data())
                        .map_err(|e| ServeError::io(format!("truncate torn journal tail: {e}")))?;
                    file.seek(std::io::SeekFrom::End(0))
                        .map_err(|e| ServeError::io(format!("seek journal: {e}")))?;
                    break;
                }
            }
        }
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                next_seq: expect_seq,
            },
            recovery,
        ))
    }

    /// Appends `rec`, making it durable (flush + fsync) before
    /// returning its sequence number.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; an injected disk-full fault fails the
    /// append without writing, an injected torn write persists a
    /// prefix and crashes per the injector's mode.
    pub fn append(&mut self, rec: &WalRecord, inj: &Injector) -> Result<u64, ServeError> {
        let seq = self.next_seq;
        let mut line = rec.encode(seq);
        line.push('\n');
        match inj.next_write_fault() {
            Some(WriteFault::DiskFull) => {
                return Err(ServeError::io(
                    inj.disk_full_error("journal append").to_string(),
                ));
            }
            Some(WriteFault::Torn) => {
                let half = &line.as_bytes()[..line.len() / 2];
                let _ = self.file.write_all(half);
                let _ = self.file.sync_data();
                return Err(inj.torn_crash("journal append"));
            }
            None => {}
        }
        self.file
            .write_all(line.as_bytes())
            .map_err(|e| ServeError::io(format!("append journal {}: {e}", self.path.display())))?;
        self.file
            .sync_data()
            .map_err(|e| ServeError::io(format!("sync journal {}: {e}", self.path.display())))?;
        self.next_seq += 1;
        Ok(seq)
    }

    /// The sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Replays the journal at `path` **without** opening it for append
    /// or truncating a torn tail — the read-only view submitters use
    /// for backpressure counting. The journal has a single writer (the
    /// server); everyone else goes through here.
    ///
    /// # Errors
    ///
    /// Propagates read failures. A missing journal replays as empty.
    pub fn replay_readonly(path: &Path) -> Result<Recovery, ServeError> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Recovery::default()),
            Err(e) => {
                return Err(ServeError::io(format!(
                    "read journal {}: {e}",
                    path.display()
                )))
            }
        };
        let mut recovery = Recovery::default();
        let mut expect_seq = 1u64;
        let mut good_bytes = 0u64;
        for (i, chunk) in text.split_inclusive('\n').enumerate() {
            let complete = chunk.ends_with('\n');
            let line = chunk.trim_end_matches('\n');
            if i == 0 {
                if !complete || line != HEADER {
                    return Err(ServeError::Corrupt {
                        what: format!("journal {} header is damaged", path.display()),
                    });
                }
                good_bytes += chunk.len() as u64;
                continue;
            }
            match (complete, WalRecord::parse(line)) {
                (true, Ok((seq, rec))) if seq == expect_seq => {
                    recovery.records.push((seq, rec));
                    expect_seq += 1;
                    good_bytes += chunk.len() as u64;
                }
                _ => {
                    recovery.torn_tail = true;
                    recovery.truncated_bytes = text.len() as u64 - good_bytes;
                    break;
                }
            }
        }
        Ok(recovery)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CrashMode;
    use netpart_core::FaultPlan;

    fn tdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("netpart-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("temp dir");
        d
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Submit {
                job: "j1".into(),
                spec_fnv: 0xdead_beef,
            },
            WalRecord::Claim {
                job: "j1".into(),
                attempt: 1,
            },
            WalRecord::Start {
                job: "j1".into(),
                attempt: 1,
            },
            WalRecord::Fail {
                job: "j1".into(),
                attempt: 1,
                code: 4,
                msg: "budget exhausted (wall 5ms) with no usable solution".into(),
            },
            WalRecord::Retry {
                job: "j1".into(),
                attempt: 1,
                delay: 2,
            },
            WalRecord::Done {
                job: "j1".into(),
                attempt: 2,
                cached: true,
                key: 42,
            },
            WalRecord::Quarantine {
                job: "j2".into(),
                attempts: 3,
                msg: "invalid input: empty circuit\nsecond line".into(),
            },
        ]
    }

    #[test]
    fn records_round_trip_through_encode_parse() {
        for (i, rec) in sample_records().into_iter().enumerate() {
            let line = rec.encode(i as u64 + 1);
            assert!(!line.contains('\n'), "one line per record: {line:?}");
            let (seq, back) = WalRecord::parse(&line).expect("parses");
            assert_eq!(seq, i as u64 + 1);
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn any_byte_flip_in_a_record_is_detected() {
        let line = sample_records()[3].encode(9);
        for i in 0..line.len() {
            let mut bytes = line.clone().into_bytes();
            bytes[i] ^= 0x01;
            let Ok(mutated) = String::from_utf8(bytes) else {
                continue;
            };
            let parsed = WalRecord::parse(&mutated);
            if let Ok((seq, rec)) = parsed {
                // The only acceptable survivals are flips that keep the
                // line semantically identical — impossible for XOR 0x01
                // on distinct content, so reaching here means the
                // checksum failed to catch a change.
                panic!("flip at byte {i} survived: seq={seq} rec={rec:?}");
            }
        }
    }

    #[test]
    fn append_then_reopen_replays_everything() {
        let d = tdir("roundtrip");
        let p = d.join("journal.wal");
        let inj = Injector::none();
        {
            let (mut wal, rec) = Wal::open(&p).expect("create");
            assert!(rec.records.is_empty());
            for r in sample_records() {
                wal.append(&r, &inj).expect("append");
            }
            assert_eq!(wal.next_seq(), 8);
        }
        let (wal, rec) = Wal::open(&p).expect("reopen");
        assert!(!rec.torn_tail);
        assert_eq!(rec.records.len(), 7);
        assert_eq!(wal.next_seq(), 8);
        assert_eq!(
            rec.records
                .iter()
                .map(|(_, r)| r.clone())
                .collect::<Vec<_>>(),
            sample_records()
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn torn_tail_is_truncated_and_journal_stays_usable() {
        let d = tdir("torn");
        let p = d.join("journal.wal");
        let inj = Injector::none();
        {
            let (mut wal, _) = Wal::open(&p).expect("create");
            for r in &sample_records()[..3] {
                wal.append(r, &inj).expect("append");
            }
        }
        // Simulate a kill mid-append: half a record, no newline.
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&p)
                .expect("open");
            let line = sample_records()[3].encode(4);
            f.write_all(&line.as_bytes()[..line.len() / 2])
                .expect("torn bytes");
        }
        let (mut wal, rec) = Wal::open(&p).expect("recover");
        assert!(rec.torn_tail);
        assert!(rec.truncated_bytes > 0);
        assert_eq!(rec.records.len(), 3, "intact prefix survives");
        assert_eq!(wal.next_seq(), 4);
        // The journal accepts appends again and replays cleanly.
        wal.append(&sample_records()[3], &inj).expect("append");
        drop(wal);
        let (_, rec) = Wal::open(&p).expect("reopen");
        assert!(!rec.torn_tail);
        assert_eq!(rec.records.len(), 4);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn corrupt_middle_record_discards_the_suffix() {
        let d = tdir("middle");
        let p = d.join("journal.wal");
        let inj = Injector::none();
        {
            let (mut wal, _) = Wal::open(&p).expect("create");
            for r in &sample_records()[..5] {
                wal.append(r, &inj).expect("append");
            }
        }
        let mut text = std::fs::read_to_string(&p).expect("read");
        // Flip one byte inside record 3 (line index 3 incl. header).
        let offset: usize = text
            .split_inclusive('\n')
            .take(3)
            .map(str::len)
            .sum::<usize>()
            + 4;
        let mut bytes = std::mem::take(&mut text).into_bytes();
        bytes[offset] ^= 0x40;
        std::fs::write(&p, &bytes).expect("rewrite");
        let (wal, rec) = Wal::open(&p).expect("recover");
        assert!(rec.torn_tail);
        assert_eq!(
            rec.records.len(),
            2,
            "replay stops before the corrupt record"
        );
        assert_eq!(wal.next_seq(), 3);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn injected_torn_append_is_recovered_like_a_real_one() {
        let d = tdir("inject");
        let p = d.join("journal.wal");
        {
            let (mut wal, _) = Wal::open(&p).expect("create");
            wal.append(&sample_records()[0], &Injector::none())
                .expect("append");
            let inj = Injector::new(FaultPlan::none().torn_write(1), CrashMode::Return);
            let err = wal
                .append(&sample_records()[1], &inj)
                .expect_err("torn append crashes");
            assert!(matches!(err, ServeError::CrashInjected { .. }));
        }
        let (_, rec) = Wal::open(&p).expect("recover");
        assert!(rec.torn_tail);
        assert_eq!(rec.records.len(), 1);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn disk_full_append_writes_nothing() {
        let d = tdir("full");
        let p = d.join("journal.wal");
        let (mut wal, _) = Wal::open(&p).expect("create");
        let inj = Injector::new(FaultPlan::none().disk_full(1), CrashMode::Return);
        let err = wal
            .append(&sample_records()[0], &inj)
            .expect_err("disk full");
        assert!(err.to_string().contains("disk full"), "{err}");
        drop(wal);
        let (wal, rec) = Wal::open(&p).expect("reopen");
        assert!(!rec.torn_tail, "nothing was written, nothing to truncate");
        assert!(rec.records.is_empty());
        assert_eq!(wal.next_seq(), 1);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn escape_round_trips_hostile_text() {
        for s in [
            "",
            "plain",
            "two words",
            "tab\tnewline\ncr\r",
            "back\\slash \\s literal",
            "trailing ",
        ] {
            let e = escape(s);
            assert!(
                !e.contains(' ') && !e.contains('\n') && !e.is_empty(),
                "escaped form must be one token: {e:?}"
            );
            assert_eq!(unescape(&e), s);
        }
    }
}
