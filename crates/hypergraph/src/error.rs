//! Errors produced while building a hypergraph.

use crate::graph::{CellId, NetId, Pin};
use std::error::Error;
use std::fmt;

/// An error encountered while constructing or validating a [`Hypergraph`].
///
/// [`Hypergraph`]: crate::Hypergraph
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// A cell id referenced a cell that was never added.
    UnknownCell(CellId),
    /// A net id referenced a net that was never added.
    UnknownNet(NetId),
    /// A pin index was out of range for the cell.
    PinOutOfRange {
        /// The offending cell.
        cell: CellId,
        /// The offending pin.
        pin: Pin,
    },
    /// A pin was connected to more than one net.
    PinAlreadyConnected {
        /// The offending cell.
        cell: CellId,
        /// The offending pin.
        pin: Pin,
    },
    /// A net has more than one driver endpoint.
    MultipleDrivers(NetId),
    /// A net has no driver endpoint.
    MissingDriver(NetId),
    /// A pin was left unconnected at `finish()`.
    DanglingPin {
        /// The offending cell.
        cell: CellId,
        /// The offending pin.
        pin: Pin,
    },
    /// A cell's adjacency matrix does not match its pin counts.
    AdjacencyShapeMismatch(CellId),
    /// A cell has more outputs than an
    /// [`OutputMask`](crate::OutputMask) can address (32).
    TooManyOutputs {
        /// The offending cell.
        cell: CellId,
        /// Its output count.
        outputs: usize,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownCell(c) => write!(f, "unknown cell {c}"),
            BuildError::UnknownNet(n) => write!(f, "unknown net {n}"),
            BuildError::PinOutOfRange { cell, pin } => {
                write!(f, "pin {pin:?} out of range on cell {cell}")
            }
            BuildError::PinAlreadyConnected { cell, pin } => {
                write!(f, "pin {pin:?} of cell {cell} already connected")
            }
            BuildError::MultipleDrivers(n) => write!(f, "net {n} has multiple drivers"),
            BuildError::MissingDriver(n) => write!(f, "net {n} has no driver"),
            BuildError::DanglingPin { cell, pin } => {
                write!(f, "pin {pin:?} of cell {cell} left unconnected")
            }
            BuildError::AdjacencyShapeMismatch(c) => {
                write!(f, "adjacency matrix shape mismatch on cell {c}")
            }
            BuildError::TooManyOutputs { cell, outputs } => {
                write!(
                    f,
                    "cell {cell} has {outputs} outputs (at most 32 supported)"
                )
            }
        }
    }
}

impl Error for BuildError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs = [
            BuildError::UnknownCell(CellId(1)),
            BuildError::UnknownNet(NetId(2)),
            BuildError::PinOutOfRange {
                cell: CellId(0),
                pin: Pin::Input(9),
            },
            BuildError::MultipleDrivers(NetId(0)),
            BuildError::MissingDriver(NetId(0)),
            BuildError::DanglingPin {
                cell: CellId(0),
                pin: Pin::Output(0),
            },
            BuildError::AdjacencyShapeMismatch(CellId(0)),
            BuildError::TooManyOutputs {
                cell: CellId(0),
                outputs: 33,
            },
        ];
        for e in errs {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
        }
    }
}
