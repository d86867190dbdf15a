//! `netpart-serve` — the durable partitioning service.
//!
//! The paper's flow is one-shot; this crate turns it into a
//! crash-safe, restartable service. A *spool directory* is the entire
//! service state:
//!
//! ```text
//! spool/
//!   journal.wal           append-only write-ahead journal (checksummed)
//!   jobs/<id>.job         job specifications (+ their copied netlists)
//!   results/<id>.result   result summaries   (atomic temp + rename)
//!   results/<id>.cert     solution certificates (atomic temp + rename)
//!   cache/<key>.entry     request-keyed result cache, certificate-carrying
//!   quarantine/<id>.err   poison jobs with their PartitionError attached
//!   drain                 sentinel: graceful-drain shutdown request
//! ```
//!
//! Every queue transition (`submit → claim → start → done | fail →
//! retry | quarantine`) is one [`WalRecord`] appended to the journal
//! with a per-record FNV-1a checksum before the transition takes
//! effect anywhere else. A `kill -9` at *any* point therefore recovers
//! on restart by replaying the journal: a torn tail record is detected
//! by its checksum and truncated, interrupted jobs are re-run,
//! completed jobs keep their results, and identical resubmissions are
//! replayed from the disk-persisted [`DiskCache`] — whose entries carry
//! their `netpart-verify` certificate and are re-verified on every
//! read, so a corrupt entry is evicted, never trusted.
//!
//! Failure handling is deterministic by construction: retry backoff is
//! computed from `(seed, job id, attempt)` in scheduler *rounds* — no
//! wall-clock value ever enters a decision — and a job that keeps
//! failing (or keeps crashing the server) is quarantined after its
//! bounded retry allowance with the typed
//! [`PartitionError`](netpart_core::PartitionError) attached.
//!
//! The crash/torn-write/disk-full injection points of
//! [`FaultPlan`](netpart_core::FaultPlan) are honoured by the
//! [`Injector`], which the recovery test matrix drives across every
//! journal transition.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod fsio;
mod job;
mod queue;
mod server;
mod wal;

pub use cache::{CacheEntry, CacheLookup, DiskCache};
pub use fsio::{atomic_write, CrashMode, Injector};
pub use job::{file_fnv, valid_job_id, JobCmd, JobSpec};
pub use queue::{backoff_rounds, JobEntry, JobState, QueueState};
pub use server::{submit_job, ServeConfig, ServeReport, Server, SubmitOutcome};
pub use wal::{Recovery, Wal, WalRecord};

use std::error::Error;
use std::fmt;

/// A service-layer failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// An I/O operation on the spool failed (includes injected
    /// disk-full faults on paths where no retry is safe).
    Io {
        /// What failed, with the underlying error text.
        what: String,
    },
    /// A spool artifact was corrupt in a way recovery must not repair
    /// silently (reserved for conditions with no safe fallback; torn
    /// journal tails and corrupt cache entries are handled in-line).
    Corrupt {
        /// What was corrupt.
        what: String,
    },
    /// An injected crash point fired while the server runs in
    /// [`CrashMode::Return`] (the in-process test harness); the binary
    /// aborts the process instead.
    CrashInjected {
        /// The journal transition label that fired.
        label: String,
    },
    /// A partitioning failure escaped job-level handling (invalid
    /// serve configuration and similar).
    Partition(netpart_core::PartitionError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io { what } => write!(f, "spool I/O failure: {what}"),
            ServeError::Corrupt { what } => write!(f, "corrupt spool artifact: {what}"),
            ServeError::CrashInjected { label } => {
                write!(f, "injected crash at journal transition {label:?}")
            }
            ServeError::Partition(e) => write!(f, "{e}"),
        }
    }
}

impl Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io {
            what: e.to_string(),
        }
    }
}

impl From<netpart_core::PartitionError> for ServeError {
    fn from(e: netpart_core::PartitionError) -> Self {
        ServeError::Partition(e)
    }
}

impl ServeError {
    /// Shorthand for an [`ServeError::Io`] with context.
    pub fn io(what: impl Into<String>) -> Self {
        ServeError::Io { what: what.into() }
    }
}

/// Parses the value of a `#fnv=` checksum marker *strictly*: exactly 16
/// lowercase hex digits, nothing else. The checksum line cannot cover
/// itself, so a lenient parse (`from_str_radix` accepts uppercase)
/// would let single-bit case flips inside the digits go undetected —
/// strictness restores the "any flipped bit is rejected" property for
/// every persisted format.
pub(crate) fn parse_fnv_hex(hex: &str) -> Result<u64, String> {
    if hex.len() != 16
        || !hex
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return Err(format!("bad checksum hex {hex:?}"));
    }
    u64::from_str_radix(hex, 16).map_err(|e| format!("bad checksum hex: {e}"))
}
