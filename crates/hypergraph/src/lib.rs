//! Pin-level circuit hypergraph substrate for FPGA partitioning.
//!
//! This crate models a technology-mapped circuit as the hypergraph
//! `H = ({X; Y}, E)` of Kužnar–Brglez–Zajc (DAC 1994): interior nodes `X`
//! (logic cells, e.g. XC3000 CLBs), terminal nodes `Y` (I/O pads) and nets
//! `E`. Connectivity is *pin-level*: every net records its driver pin and
//! sink pins, which is what makes *functional replication* expressible —
//! a replicated cell copy may leave individual pins floating.
//!
//! The three building blocks are:
//!
//! * [`Hypergraph`] — the immutable circuit structure, built with
//!   [`HypergraphBuilder`];
//! * [`AdjacencyMatrix`] — per-cell output→input functional dependency,
//!   from which the paper's *replication potential* `ψ` (eq. 4) is computed;
//! * [`Placement`] — an assignment of cells (and their replicas) to parts,
//!   with cut/terminal/area evaluation that honours floating pins.
//!
//! # Examples
//!
//! Build a two-cell circuit and check its cut under a 2-way placement:
//!
//! ```
//! use netpart_hypergraph::{AdjacencyMatrix, CellKind, HypergraphBuilder, PartId, Placement};
//!
//! # fn main() -> Result<(), netpart_hypergraph::BuildError> {
//! let mut b = HypergraphBuilder::new();
//! let pad = b.add_cell("pi", CellKind::input_pad(), 0, 1, AdjacencyMatrix::pad());
//! let buf = b.add_cell("buf", CellKind::logic(1), 1, 1, AdjacencyMatrix::full(1, 1));
//! let n0 = b.add_net("n0");
//! let n1 = b.add_net("n1");
//! b.connect_output(n0, pad, 0)?;
//! b.connect_input(n0, buf, 0)?;
//! b.connect_output(n1, buf, 0)?;
//! let hg = b.finish()?;
//!
//! let mut p = Placement::new_uniform(&hg, 2, PartId(0));
//! p.place(buf, PartId(1));
//! assert_eq!(p.cut_size(&hg), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adjacency;
mod builder;
mod error;
mod graph;
mod placement;

pub use adjacency::AdjacencyMatrix;
pub use builder::HypergraphBuilder;
pub use error::BuildError;
pub use graph::{Cell, CellId, CellKind, Endpoint, Hypergraph, Net, NetId, Pin, Stats};
pub use placement::{CellCopy, OutputMask, PartId, PartSet, Placement, PlacementError, MAX_PARTS};
