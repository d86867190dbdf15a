//! `netpart` — multi-way netlist partitioning into heterogeneous FPGAs
//! with functional replication.
//!
//! A Rust reproduction of Kužnar–Brglez–Zajc, *"Multi-way Netlist
//! Partitioning into Heterogeneous FPGAs and Minimization of Total Device
//! Cost and Interconnect"* (DAC 1994). This facade crate re-exports the
//! workspace libraries:
//!
//! * [`hypergraph`] — pin-level circuit hypergraph, adjacency matrices,
//!   replication-aware placements;
//! * [`netlist`] — gate-level netlists, BLIF-subset I/O, synthetic
//!   benchmark generation;
//! * [`techmap`] — XC3000-style technology mapping (5-input LUT cones,
//!   2-output CLB packing);
//! * [`fpga`] — the heterogeneous device library and the paper's cost
//!   (eq. 1) and interconnect (eq. 2) objectives;
//! * [`board`] — the board-topology model (device sites wired by
//!   capacity/hop channels), the `.board` file format, the
//!   deterministic channel router over cut nets and the
//!   topology-aware objective terms;
//! * [`core`] — FM bipartitioning with functional replication and the
//!   cost-driven k-way partitioner;
//! * [`engine`] — the deterministic parallel portfolio engine
//!   (multi-threaded multi-start behind one `Engine` request surface;
//!   repeated requests are cached on disk by [`serve`], not in
//!   process);
//! * [`multilevel`] — the multilevel V-cycle (ψ-guarded heavy-edge
//!   coarsening, coarse partitioning, projection + FM refinement) that
//!   scales the flat engine to 100k+-cell circuits;
//! * [`obs`] — the structured observability layer (deterministic JSONL
//!   run traces, paper-metric gauges, metrics snapshots);
//! * [`report`] — experiment tables;
//! * [`verify`] — the independent solution-certificate verifier (an
//!   oracle that re-derives every claim from scratch, sharing no code
//!   with the optimizer's bookkeeping);
//! * [`serve`] — the durable partitioning service: a crash-safe
//!   spool-directory job queue with a checksummed write-ahead journal,
//!   deterministic retry/backoff, poison-job quarantine and a verified
//!   disk-backed result cache.
//!
//! The [`experiments`] module regenerates the paper's tables and
//! figures (Tables I–VII, Figure 3) from the in-repo benchmark suite.
//!
//! # Examples
//!
//! Partition a synthetic circuit into two halves with functional
//! replication and evaluate it on the XC3000 library:
//!
//! ```
//! use netpart::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let nl = generate(&GeneratorConfig::new(300).with_seed(7));
//! let hg = map(&nl, &MapperConfig::xc3000())?.to_hypergraph(&nl);
//!
//! let cfg = BipartitionConfig::equal(&hg, 0.1)
//!     .with_replication(ReplicationMode::functional(0));
//! let result = bipartition(&hg, &cfg);
//! assert!(result.balanced);
//!
//! let placement = result.placement.expect("functional mode exports");
//! assert_eq!(placement.cut_size(&hg), result.cut);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use netpart_board as board;
pub use netpart_core as core;
pub use netpart_engine as engine;
pub use netpart_fpga as fpga;
pub use netpart_hypergraph as hypergraph;
pub use netpart_multilevel as multilevel;
pub use netpart_netlist as netlist;
pub use netpart_obs as obs;
pub use netpart_report as report;
pub use netpart_serve as serve;
pub use netpart_techmap as techmap;
pub use netpart_verify as verify;

pub mod experiments;

/// The most common items, importable in one line.
pub mod prelude {
    pub use netpart_board::{
        board_claim, demands as board_demands, parse as parse_board, route_nets, Board, BoardError,
        NetDemand, Route, Routing, TopologyObjective,
    };
    pub use netpart_core::{
        bipartition, kway_partition, BipartitionConfig, Budget, Degradation, FaultPlan, KWayConfig,
        PartitionError, Relaxation, ReplicationMode, StopReason,
    };
    pub use netpart_engine::{Engine, KWayPortfolioResult, PortfolioResult};
    pub use netpart_fpga::{assign_devices, evaluate, Device, DeviceLibrary};
    pub use netpart_hypergraph::{
        AdjacencyMatrix, CellId, CellKind, Hypergraph, HypergraphBuilder, NetId, PartId, Placement,
    };
    pub use netpart_multilevel::{
        build_chain, ml_bipartition, ml_kway_partition, MultilevelConfig,
    };
    pub use netpart_netlist::{
        bench_suite, generate, parse_blif, write_blif, GateKind, GeneratorConfig, Netlist,
    };
    pub use netpart_obs::{
        strip_timing, Event, JsonlRecorder, Level, MetricsRecorder, MetricsSnapshot, Recorder, Tee,
    };
    pub use netpart_serve::{
        submit_job, JobCmd, JobSpec, ServeConfig, ServeReport, Server, SubmitOutcome,
    };
    pub use netpart_techmap::{decompose_wide_gates, map, MapperConfig};
    pub use netpart_verify::{
        verify, verify_text, BoardClaim, SolutionCertificate, VerifyReport, Violation,
    };
}
