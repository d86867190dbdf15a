//! Parallel portfolio search engine: deterministic multi-threaded
//! multi-start partitioning.
//!
//! The paper's quality numbers come from *portfolios* — many randomized
//! FM starts (Table III runs 20 per circuit) and many k-way carve
//! attempts (50 feasible candidates per run) — and portfolios are
//! embarrassingly parallel *if* the reduction is kept deterministic.
//! This crate fans those units of work across `std::thread` workers
//! while guaranteeing that `--jobs N` reduces to the identical best
//! solution as `--jobs 1` for a fixed seed. [`Engine`] is the one
//! request surface: [`Engine::bipartition_many`] for FM starts,
//! [`Engine::kway`] for k-way carving tasks.
//!
//! * one executor runs both kinds of unit: work is claimed from an
//!   ascending counter and reduced in **fixed seed order** (lowest
//!   `(cost, index)`), never arrival order;
//! * a balanced zero-cut start sets a shared perfect flag that skips
//!   the provably useless starts after it, and the k-way escalation
//!   ladder runs only in a rescue phase when no task is feasible;
//! * the shared wall deadline and [`CancelToken`](netpart_core::CancelToken)
//!   integrate with the core's `RunClock`/`Degradation` machinery, so a
//!   tripped budget drains every worker and still returns best-so-far;
//! * stable [`ContentHash`] digests ([`bipartition_key`], [`kway_key`])
//!   name a request, which is what the durable service's verified disk
//!   cache and write-ahead log key on.
//!
//! Everything here is std-only: no registry dependencies, per the
//! workspace's hermetic-build policy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod hash;
mod portfolio;

pub use engine::Engine;
pub use hash::{combine, ContentHash, Fnv1a};
pub use portfolio::{
    bipartition_key, kway_key, with_multilevel_key, KWayPortfolioResult, PortfolioResult,
    StartResult, WorkerStats,
};
