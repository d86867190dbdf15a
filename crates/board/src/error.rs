//! Error taxonomy for board parsing, validation, and routing.

use std::fmt;

/// Everything that can go wrong while loading a board description or
/// routing cut nets over it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoardError {
    /// A `.board` file failed to parse. `line` is the 1-based physical
    /// line number (CRLF-safe, mirroring the BLIF loader's contract).
    Parse {
        /// 1-based physical line number of the offending line, or 0 when
        /// the failure has no single line (e.g. a truncated file).
        line: usize,
        /// Human-readable cause.
        what: String,
    },
    /// A programmatically constructed board is structurally invalid
    /// (duplicate site, dangling channel endpoint, disconnected graph…).
    Invalid {
        /// Human-readable cause.
        what: String,
    },
    /// The placement uses more parts than the board has device sites, so
    /// the identity part→site mapping is undefined.
    SitesExceeded {
        /// Number of non-empty parts in the placement.
        parts: usize,
        /// Number of device sites on the board.
        sites: usize,
    },
    /// A routing demand referenced a site index outside the board.
    SiteOutOfRange {
        /// The offending site index.
        site: u32,
        /// Number of device sites on the board.
        sites: usize,
    },
}

impl fmt::Display for BoardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoardError::Parse { line, what } => {
                if *line == 0 {
                    write!(f, "board parse error: {what}")
                } else {
                    write!(f, "board parse error at line {line}: {what}")
                }
            }
            BoardError::Invalid { what } => write!(f, "invalid board: {what}"),
            BoardError::SitesExceeded { parts, sites } => write!(
                f,
                "placement has {parts} parts but the board has only {sites} device sites"
            ),
            BoardError::SiteOutOfRange { site, sites } => {
                write!(
                    f,
                    "site index {site} out of range (board has {sites} sites)"
                )
            }
        }
    }
}

impl std::error::Error for BoardError {}
