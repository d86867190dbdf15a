//! Multilevel V-cycle partitioning for 100k+-cell circuits.
//!
//! The flat FM engine in `netpart-core` is the paper's algorithm, but
//! it is quadratic-ish in practice: every pass scans the whole boundary
//! of the whole graph. This crate wraps it in the classic multilevel
//! V-cycle (the shape every modern partitioner uses — mt-KaHyPar,
//! RePart):
//!
//! 1. **Coarsen** ([`coarsen_once`] / [`build_chain`]): seeded
//!    heavy-edge matching contracts pairs of logic cells that share
//!    low-degree nets, level by level, until the graph is small or
//!    stops shrinking. A **ψ-guard** ([`psi_guards`]) keeps replication
//!    candidates (`ψ ≥ T`, eq. 4) un-merged so the paper's signature
//!    move survives coarsening, and a weight cap keeps the balance
//!    window reachable. Contraction is *exact*: a fine net survives
//!    iff it spans ≥ 2 clusters and parallel nets are never merged, so
//!    cut and area accounting are identical across levels.
//! 2. **Initial partition**: the existing flat engine runs on the
//!    coarsest graph — the flat path stays the innermost level,
//!    untouched.
//! 3. **Uncoarsen** ([`ml_bipartition_with_clock`] /
//!    [`ml_kway_partition_with_clock`]): the placement projects up one
//!    rung at a time through each [`CoarseLevel`]'s maps and
//!    **boundary-limited FM** ([`refine_sides`]) polishes it — the same
//!    gain-ordered, rollback-protected move semantics as the flat
//!    engine, but seeded from the cut boundary only, so refinement
//!    costs time proportional to the cut instead of the circuit.
//!    Replicating configurations hand the finest level to the flat
//!    engine, where the paper's replication phases live. Every level
//!    emits `ml.coarsen` / `ml.level` / `ml.refine` observability
//!    events along the way.
//!
//! An empty chain (coarsening disabled, graph too small, nothing to
//! match) degenerates to the flat path *verbatim* — same moves, same
//! certificate bytes — which the differential suite pins down, and
//! which gives paper-suite quality parity by construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coarsen;
mod config;
mod level;
mod refine;
mod vcycle;

pub use coarsen::{coarsen_once, psi_guards};
pub use config::MultilevelConfig;
pub use level::{cut_of_sides, CoarseLevel};
pub use refine::refine_sides;
pub use vcycle::{
    build_chain, ml_bipartition, ml_bipartition_with_clock, ml_kway_partition,
    ml_kway_partition_with_clock,
};
