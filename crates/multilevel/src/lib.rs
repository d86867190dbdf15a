//! Multilevel V-cycle partitioning for 100k+-cell circuits.
//!
//! The flat FM engine in `netpart-core` is the paper's algorithm. Its
//! passes are linear in the pins and it bipartitions a 100k-gate
//! circuit in about a second, but it starts from a random placement,
//! and on large circuits that costs cut: 4211 against the V-cycle's
//! 2966 at 100k gates (`BENCH_multilevel.json`). This crate wraps it
//! in the classic multilevel V-cycle (the shape every modern
//! partitioner uses — mt-KaHyPar, RePart). The V-cycle buys the better
//! cut with time: it runs at 0.34–0.60× the flat engine's speed there.
//! Its three steps:
//!
//! 1. **Coarsen** ([`build_chain`]): seeded heavy-edge matching pairs
//!    up logic cells that share low-degree nets, level by level, until
//!    the graph is small or stops shrinking. Each matching is judged by
//!    its pair count before anything is contracted, so only a level the
//!    chain keeps is built. A **ψ-guard** keeps replication candidates
//!    (`ψ ≥ T`, eq. 4) un-merged so the paper's signature move survives
//!    coarsening, and a weight cap keeps the balance window reachable.
//!    Contraction is *exact*: a fine net survives iff it spans ≥ 2
//!    clusters and parallel nets are never merged, so cut and area
//!    accounting are identical across levels. Each coarse cell is
//!    built in one pass, unnamed, and a level keeps only its graph and
//!    cell map.
//! 2. **Initial partition**: the existing flat engine runs on the
//!    coarsest graph — the flat path stays the innermost level,
//!    untouched.
//! 3. **Uncoarsen** ([`ml_bipartition_with_clock`] /
//!    [`ml_kway_partition_with_clock`]): the placement projects up one
//!    rung at a time through each [`CoarseLevel`]'s cell map, dropping
//!    each level once projected, and **boundary-seeded FM**
//!    ([`netpart_core::refine_sides`]) polishes it — the core's own
//!    engine state, gain rule and rollback to the best balanced prefix,
//!    but seeded from the cut boundary only, so refinement costs time
//!    proportional to the cut instead of the circuit. Exact contraction
//!    lets each rung start from the cut the coarser rung's refiner
//!    returned, so no cut is recounted on the way up.
//!    Replicating bipartitions hand the finest level to the flat
//!    engine, where the paper's replication phases live; the k-way
//!    V-cycle stays move-only and reports the replication it did not
//!    perform as a [`Relaxation`](netpart_core::Relaxation). Every
//!    level emits `ml.coarsen` / `ml.level` / `ml.refine`
//!    observability events along the way.
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
mod vcycle;

pub use config::MultilevelConfig;
pub use level::CoarseLevel;
pub use vcycle::{
    build_chain, ml_bipartition, ml_bipartition_with_clock, ml_kway_partition,
    ml_kway_partition_with_clock,
};
