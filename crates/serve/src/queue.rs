//! Queue state, reconstructed by folding the journal.
//!
//! The journal is the single source of truth: [`QueueState::replay`]
//! folds the records of a [`Recovery`](crate::Recovery) into per-job
//! entries, and the live server keeps folding each record it appends
//! through [`QueueState::apply`] — so the in-memory picture after a
//! restart is, by construction, exactly the picture an uninterrupted
//! server would have had.
//!
//! Two recovery rules matter for crash safety:
//!
//! * a `claim` (or `start`) with no terminal record means the process
//!   died mid-attempt — the job stays pending and the interrupted
//!   attempt still **counts toward its retry allowance**, so a job that
//!   reliably crashes the server cannot loop forever;
//! * retry backoff is measured in scheduler *rounds* and recomputed
//!   from `(seed, job, attempt)` by [`backoff_rounds`] — the journal's
//!   `retry` records carry the delay for observability, but no
//!   wall-clock value ever enters an eligibility decision, so recovery
//!   is deterministic no matter when the restart happens.

use crate::wal::WalRecord;
use netpart_rng::splitmix64;
use std::collections::BTreeMap;

/// Deterministic retry delay, in scheduler rounds, before attempt
/// `attempt + 1` of a job may run: exponential in the attempt number
/// (`base << (attempt-1)`, capped at `64 × base`) plus a seeded jitter
/// in `[0, base)` derived from `(seed, job_hash, attempt)`. Pure —
/// restarts recompute identical delays.
pub fn backoff_rounds(base: u64, attempt: u32, seed: u64, job_hash: u64) -> u64 {
    if base == 0 {
        return 0;
    }
    let exp = base
        .saturating_shl(attempt.saturating_sub(1).min(6))
        .min(base.saturating_mul(64));
    let mut s = seed ^ job_hash.rotate_left(17) ^ u64::from(attempt).wrapping_mul(0x9e37_79b9);
    let jitter = splitmix64(&mut s) % base;
    exp.saturating_add(jitter)
}

/// Helper: `u64` has no stable `saturating_shl`; emulate it.
trait SatShl {
    fn saturating_shl(self, n: u32) -> Self;
}

impl SatShl for u64 {
    fn saturating_shl(self, n: u32) -> u64 {
        self.checked_shl(n).unwrap_or(u64::MAX)
    }
}

/// Where a job is in its lifecycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Waiting to run (fresh, awaiting retry, or crash-interrupted).
    Pending,
    /// Completed; artifacts are durable in `results/`.
    Done {
        /// The attempt that completed.
        attempt: u32,
        /// Whether the result came from the disk cache.
        cached: bool,
        /// The request key.
        key: u64,
    },
    /// Declared poison and removed from rotation.
    Quarantined {
        /// Attempts consumed.
        attempts: u32,
        /// The final error text.
        msg: String,
    },
}

/// One job's folded journal history.
#[derive(Clone, Debug, PartialEq)]
pub struct JobEntry {
    /// Job id.
    pub job: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Attempts consumed so far (crash-interrupted ones included).
    pub attempts: u32,
    /// Checksum of the admitted spec file (from the `submit` record).
    pub spec_fnv: u64,
    /// `true` when the newest claim has no terminal record — the
    /// attempt was interrupted by a crash.
    pub interrupted: bool,
    /// The newest `fail` record, as `(exit_code, message)`.
    pub last_error: Option<(i32, String)>,
    /// First round this job may (re-)run. Runtime-only scheduling
    /// state: replay resets it to 0, so after a restart every pending
    /// job is immediately eligible.
    pub eligible_round: u64,
}

/// The folded state of every job the journal knows about.
#[derive(Clone, Debug, Default)]
pub struct QueueState {
    entries: BTreeMap<String, JobEntry>,
}

impl QueueState {
    /// Folds a full journal replay.
    pub fn replay<'a>(records: impl IntoIterator<Item = &'a WalRecord>) -> QueueState {
        let mut q = QueueState::default();
        for rec in records {
            q.apply(rec);
        }
        q
    }

    /// Folds one record. Records for unknown jobs (possible only if an
    /// operator hand-edits the journal) create an entry on the fly so
    /// the fold never loses information.
    pub fn apply(&mut self, rec: &WalRecord) {
        let entry = self
            .entries
            .entry(rec.job().to_string())
            .or_insert_with(|| JobEntry {
                job: rec.job().to_string(),
                state: JobState::Pending,
                attempts: 0,
                spec_fnv: 0,
                interrupted: false,
                last_error: None,
                eligible_round: 0,
            });
        match rec {
            WalRecord::Submit { spec_fnv, .. } => entry.spec_fnv = *spec_fnv,
            WalRecord::Claim { attempt, .. } => {
                entry.attempts = (*attempt).max(entry.attempts);
                entry.interrupted = true;
            }
            WalRecord::Start { .. } => {}
            WalRecord::Done {
                attempt,
                cached,
                key,
                ..
            } => {
                entry.interrupted = false;
                entry.state = JobState::Done {
                    attempt: *attempt,
                    cached: *cached,
                    key: *key,
                };
            }
            WalRecord::Fail {
                attempt, code, msg, ..
            } => {
                entry.interrupted = false;
                entry.attempts = (*attempt).max(entry.attempts);
                entry.last_error = Some((*code, msg.clone()));
            }
            WalRecord::Retry { .. } => {}
            WalRecord::Quarantine { attempts, msg, .. } => {
                entry.interrupted = false;
                entry.state = JobState::Quarantined {
                    attempts: *attempts,
                    msg: msg.clone(),
                };
            }
        }
    }

    /// The entry for `job`, if the journal has seen it.
    pub fn get(&self, job: &str) -> Option<&JobEntry> {
        self.entries.get(job)
    }

    /// Mutable access (the server updates `eligible_round`).
    pub(crate) fn get_mut(&mut self, job: &str) -> Option<&mut JobEntry> {
        self.entries.get_mut(job)
    }

    /// All entries, in job-id order (the deterministic scheduling
    /// order).
    pub fn jobs(&self) -> impl Iterator<Item = &JobEntry> {
        self.entries.values()
    }

    /// `true` once a `submit` record exists for `job` — such a job file
    /// must not be admitted again.
    pub fn is_known(&self, job: &str) -> bool {
        self.entries.contains_key(job)
    }

    /// Jobs still occupying queue capacity (pending, not terminal) —
    /// the number backpressure compares against `max_queue`.
    pub fn open_count(&self) -> usize {
        self.entries
            .values()
            .filter(|e| e.state == JobState::Pending)
            .count()
    }

    /// Counts of (done, quarantined) jobs.
    pub fn terminal_counts(&self) -> (usize, usize) {
        let done = self
            .entries
            .values()
            .filter(|e| matches!(e.state, JobState::Done { .. }))
            .count();
        let quarantined = self
            .entries
            .values()
            .filter(|e| matches!(e.state, JobState::Quarantined { .. }))
            .count();
        (done, quarantined)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fold(recs: &[WalRecord]) -> QueueState {
        QueueState::replay(recs.iter())
    }

    #[test]
    fn lifecycle_folds_to_done() {
        let q = fold(&[
            WalRecord::Submit {
                job: "a".into(),
                spec_fnv: 7,
            },
            WalRecord::Claim {
                job: "a".into(),
                attempt: 1,
            },
            WalRecord::Start {
                job: "a".into(),
                attempt: 1,
            },
            WalRecord::Done {
                job: "a".into(),
                attempt: 1,
                cached: false,
                key: 99,
            },
        ]);
        let e = q.get("a").expect("entry");
        assert_eq!(
            e.state,
            JobState::Done {
                attempt: 1,
                cached: false,
                key: 99
            }
        );
        assert!(!e.interrupted);
        assert_eq!(e.attempts, 1);
        assert_eq!(e.spec_fnv, 7);
        assert_eq!(q.open_count(), 0);
        assert_eq!(q.terminal_counts(), (1, 0));
    }

    #[test]
    fn claim_without_terminal_is_an_interrupted_attempt() {
        let q = fold(&[
            WalRecord::Submit {
                job: "a".into(),
                spec_fnv: 0,
            },
            WalRecord::Claim {
                job: "a".into(),
                attempt: 1,
            },
            WalRecord::Start {
                job: "a".into(),
                attempt: 1,
            },
        ]);
        let e = q.get("a").expect("entry");
        assert_eq!(e.state, JobState::Pending, "job re-runs after restart");
        assert!(e.interrupted, "the crash is visible");
        assert_eq!(e.attempts, 1, "the interrupted attempt still counts");
        assert_eq!(q.open_count(), 1);
    }

    #[test]
    fn fail_retry_then_quarantine() {
        let mut recs = vec![WalRecord::Submit {
            job: "a".into(),
            spec_fnv: 0,
        }];
        for attempt in 1..=3u32 {
            recs.push(WalRecord::Claim {
                job: "a".into(),
                attempt,
            });
            recs.push(WalRecord::Start {
                job: "a".into(),
                attempt,
            });
            recs.push(WalRecord::Fail {
                job: "a".into(),
                attempt,
                code: 4,
                msg: "budget".into(),
            });
            if attempt < 3 {
                recs.push(WalRecord::Retry {
                    job: "a".into(),
                    attempt,
                    delay: 2,
                });
            }
        }
        recs.push(WalRecord::Quarantine {
            job: "a".into(),
            attempts: 3,
            msg: "budget".into(),
        });
        let q = fold(&recs);
        let e = q.get("a").expect("entry");
        assert_eq!(
            e.state,
            JobState::Quarantined {
                attempts: 3,
                msg: "budget".into()
            }
        );
        assert_eq!(e.last_error, Some((4, "budget".into())));
        assert_eq!(q.open_count(), 0);
        assert_eq!(q.terminal_counts(), (0, 1));
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_jittered() {
        let base = 4;
        let d1 = backoff_rounds(base, 1, 11, 22);
        let d2 = backoff_rounds(base, 2, 11, 22);
        let d6 = backoff_rounds(base, 6, 11, 22);
        let d60 = backoff_rounds(base, 60, 11, 22);
        assert_eq!(d1, backoff_rounds(base, 1, 11, 22), "pure");
        assert!((base..2 * base).contains(&d1), "base + jitter: {d1}");
        assert!((2 * base..3 * base).contains(&d2), "doubles: {d2}");
        assert!(d6 <= 64 * base + base, "capped: {d6}");
        assert!(d60 <= 64 * base + base, "cap survives huge attempts: {d60}");
        assert_ne!(
            backoff_rounds(base, 1, 11, 22),
            backoff_rounds(base, 1, 11, 23),
            "different jobs land on different rounds"
        );
        assert_eq!(backoff_rounds(0, 3, 1, 2), 0, "base 0 disables backoff");
    }
}
