//! Gate-level netlist substrate: logic network model, a BLIF-subset
//! reader/writer, DAG analysis utilities and a synthetic benchmark
//! generator approximating the MCNC `partitioning93` suite used by the
//! paper (Table II).
//!
//! The original benchmarks (ISCAS'85 `c*` and ISCAS'89 `s*` circuits mapped
//! into XC3000 CLBs by XACT) are not redistributable here, so
//! [`bench_suite`] synthesises circuits of the same names with
//! approximately the same post-mapping scale and — for the sequential
//! `s*` circuits — a higher *clustering* (community structure), the
//! property the paper calls out when explaining why functional replication
//! helps them more.
//!
//! # Examples
//!
//! ```
//! use netpart_netlist::{generate, GeneratorConfig};
//!
//! let cfg = GeneratorConfig::new(200).with_seed(7).with_pi(16).with_po(8);
//! let nl = generate(&cfg);
//! assert_eq!(nl.primary_inputs().len(), 16);
//! assert!(nl.validate().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
pub mod bench_suite;
mod blif;
mod generate;
mod model;

pub use analysis::{topo_order, NetlistStats};
pub use blif::{parse_blif, write_blif, ParseBlifError};
pub use generate::{generate, GeneratorConfig};
pub use model::{Driver, Fanout, Gate, GateId, GateKind, Netlist, NetlistError, SignalId};
