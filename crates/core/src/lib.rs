//! Min-cut bipartitioning with functional replication and cost-driven
//! k-way partitioning into heterogeneous FPGAs.
//!
//! This crate is the primary contribution of Kužnar–Brglez–Zajc (DAC
//! 1994), reimplemented in Rust:
//!
//! * [`gain`] — the paper's unified gain model (§III, eqs. 7–11) over
//!   adjacency (`A_Xi`), cutset (`C^I`, `C^O`) and critical-net (`Q^I`,
//!   `Q^O`) vectors;
//! * [`bipartition`] — a Fiduccia–Mattheyses bipartitioner extended with
//!   three move kinds: single cell move, *traditional* replication and
//!   *functional* replication (plus unreplication), gated by the
//!   threshold replication potential `T` (eq. 6);
//! * [`kway`] — the recursive, device-aware k-way partitioner of the
//!   paper's second experiment: minimize total device cost (eq. 1) and
//!   average IOB utilization (eq. 2) over a heterogeneous library.
//!
//! # Examples
//!
//! Bipartition a small mapped circuit with functional replication:
//!
//! ```
//! use netpart_core::{bipartition, BipartitionConfig, ReplicationMode};
//! use netpart_netlist::{generate, GeneratorConfig};
//! use netpart_techmap::{map, MapperConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let nl = generate(&GeneratorConfig::new(200).with_seed(1));
//! let hg = map(&nl, &MapperConfig::xc3000())?.to_hypergraph(&nl);
//! let cfg = BipartitionConfig::equal(&hg, 0.1)
//!     .with_replication(ReplicationMode::functional(0))
//!     .with_seed(7);
//! let result = bipartition(&hg, &cfg);
//! assert!(result.balanced);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod baseline;
mod buckets;
mod budget;
mod config;
mod csr;
pub mod error;
mod extract;
mod fault;
mod fm;
pub mod gain;
pub mod kway;
mod parallel;
mod refine;
pub mod rent;
mod state;

pub use budget::{Budget, CancelToken, RunClock};
pub use config::{BipartitionConfig, ReplicationMode};
pub use error::{Degradation, PartitionError, Relaxation, StopReason};
pub use fault::FaultPlan;
pub use fm::{bipartition, bipartition_from_sides, bipartition_with_clock, BipartitionResult};
pub use kway::{
    kway_partition, kway_partition_with_clock, record_paper_gauges, KWayConfig, KWayResult,
};
pub use parallel::{par_refine_sides, ParRefineOutcome};
pub use refine::{refine_kway, unreplicate_cleanup, RefineStats};
pub use state::{CellState, EngineState};
