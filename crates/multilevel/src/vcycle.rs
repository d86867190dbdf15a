//! The V-cycle driver: coarsen → flat-partition → uncoarsen + refine.
//!
//! The flat partitioner stays the innermost level, untouched: a
//! multilevel run with an empty level chain (because `max_levels` is 0,
//! the circuit is already below `min_cells`, or no pair can be matched)
//! *is* a flat run — the same code path, the same move sequence, the
//! same certificate bytes. That degenerate identity is what the
//! differential suite pins, and it makes quality parity on the paper
//! suite hold by construction (those circuits never coarsen under the
//! default `min_cells`).

use crate::coarsen::{contract, match_pairs};
use crate::level::CoarseLevel;
use crate::MultilevelConfig;
use netpart_core::{
    bipartition_from_sides, bipartition_with_clock, kway_partition_with_clock, refine_kway,
    refine_sides, BipartitionConfig, BipartitionResult, KWayConfig, KWayResult, PartitionError,
    Refinement, Relaxation, ReplicationMode, RunClock,
};
use netpart_fpga::evaluate;
use netpart_hypergraph::{Hypergraph, PartId, Placement};
use netpart_obs::{Event, Level, Recorder, Span};
use std::time::Instant;

/// FM pass cap at intermediate refinement levels (the finest level
/// always runs the caller's full pass budget).
const REFINE_PASSES: usize = 2;

/// Builds the coarsening chain for `hg`: `chain[0]` contracts `hg`,
/// `chain[i]` contracts `chain[i-1].hg`, and the coarsest graph is
/// `chain.last().hg`. Returns an empty chain when coarsening is
/// disabled or makes no progress — callers treat that as "run flat".
/// A level is contracted only once its matching is kept (see
/// [`MultilevelConfig::coarsen_ratio`]), so no level is built and
/// thrown away.
///
/// The chain is a pure function of its arguments; `seed` feeds the
/// per-level matching orders, so different portfolio starts explore
/// different V-cycles.
pub fn build_chain(
    hg: &Hypergraph,
    ml: &MultilevelConfig,
    mode: ReplicationMode,
    seed: u64,
) -> Vec<CoarseLevel> {
    build_chain_traced(hg, ml, mode, seed, &netpart_obs::NOOP)
}

fn build_chain_traced(
    hg: &Hypergraph,
    ml: &MultilevelConfig,
    mode: ReplicationMode,
    seed: u64,
    recorder: &dyn Recorder,
) -> Vec<CoarseLevel> {
    let mut chain: Vec<CoarseLevel> = Vec::new();
    // Dropped to `None` after a ψ-guard stall (see below): guarding
    // replication candidates is a quality heuristic, not a correctness
    // requirement, so when it blocks all progress the remaining levels
    // coarsen with the candidates mergeable like any other cell.
    let mut level_mode = mode;
    for lvl in 0..ml.max_levels {
        let cur: &Hypergraph = chain.last().map_or(hg, |l| &l.hg);
        let n = cur.n_cells();
        if n < ml.min_cells {
            break;
        }
        let t0 = Instant::now();
        let span = Span::enter_with(recorder, "ml", "coarsen", "level", (lvl + 1) as u64);
        let level_seed = seed.wrapping_add(lvl as u64);
        // Contraction makes one cluster per matched pair plus one per
        // unmatched cell, so a matching is judged before anything is
        // contracted: it is rejected when it pairs nothing or leaves
        // more than `coarsen_ratio` of the cells.
        let rejected =
            |matched: usize| matched == 0 || (n - matched) as f64 / n as f64 > ml.coarsen_ratio;
        let (mut mate, mut matched, mut guarded) = match_pairs(cur, level_mode, level_seed);
        // ψ-guard stall: on replication-dense circuits the guard can
        // exempt so many cells that matching finds no pair (or too few
        // to shrink the graph), which used to end the chain at full
        // size — every "coarse" level was the input graph. Detect it,
        // warn, and re-match this and all later levels with the guard off.
        if level_mode.replicates() && rejected(matched) {
            let retry = match_pairs(cur, ReplicationMode::None, level_seed);
            if !rejected(retry.1) {
                // Warning-class headline event: the guard was dropped,
                // trading some replication opportunity for progress.
                if recorder.enabled(Level::Info) {
                    recorder.record(
                        &Event::new("ml", "coarsen_stalled", Level::Info)
                            .field("level", (lvl + 1) as u64)
                            .field("cells", n as u64)
                            .field("matched_guarded", matched as u64),
                    );
                }
                level_mode = ReplicationMode::None;
                (mate, matched, guarded) = retry;
            }
        }
        if rejected(matched) {
            break;
        }
        let level = contract(cur, mate, matched, guarded);
        drop(span);
        if recorder.enabled(Level::Debug) {
            recorder.record(
                &Event::new("ml", "coarsen", Level::Debug)
                    .field("level", (lvl + 1) as u64)
                    .field("fine_cells", n as u64)
                    .field("coarse_cells", level.hg.n_cells() as u64)
                    .field("fine_nets", cur.n_nets() as u64)
                    .field("coarse_nets", level.hg.n_nets() as u64)
                    .field("matched", level.matched as u64)
                    .field("guarded", level.guarded as u64)
                    .timing("wall_ms", t0.elapsed().as_millis() as u64),
            );
        }
        chain.push(level);
    }
    chain
}

/// Extracts per-cell bipartition sides from a replication-free result.
fn sides_of(result: &BipartitionResult, hg: &Hypergraph) -> Vec<u8> {
    let pl = result
        .placement
        .as_ref()
        .expect("replication-free runs always export a placement");
    hg.cell_ids()
        .map(|c| pl.copies(c)[0].part.0 as u8)
        .collect()
}

/// Packages a refined side vector as a [`BipartitionResult`] without
/// another trip through the flat engine: the cut, the areas and the
/// passes are the boundary refiner's, and only the placement is built
/// here.
fn result_from_sides(
    hg: &Hypergraph,
    cfg: &BipartitionConfig,
    sides: &[u8],
    refined: Refinement,
) -> BipartitionResult {
    let mut pl = Placement::new_uniform(hg, 2, PartId(0));
    for c in hg.cell_ids() {
        pl.place(c, PartId(u16::from(sides[c.index()])));
    }
    BipartitionResult {
        cut: refined.cut,
        areas: refined.areas,
        replicated_cells: 0,
        passes: refined.passes,
        balanced: cfg.balanced(refined.areas),
        stop: refined.stop,
        placement: Some(pl),
        gain_repairs: 0,
    }
}

/// Multilevel bipartition against an externally owned [`RunClock`]
/// (the portfolio-engine entry point; budget, faults, cancellation and
/// telemetry all ride on the clock exactly as in the flat path).
pub fn ml_bipartition_with_clock(
    hg: &Hypergraph,
    cfg: &BipartitionConfig,
    ml: &MultilevelConfig,
    clock: &RunClock,
) -> BipartitionResult {
    let recorder = clock.recorder();
    let chain_span = Span::enter(recorder, "ml", "chain");
    let mut chain = build_chain_traced(hg, ml, cfg.replication, cfg.seed, recorder);
    drop(chain_span);
    let levels = chain.len();
    let Some(coarsest) = chain.last() else {
        return bipartition_with_clock(hg, cfg, clock);
    };

    // Initial partition at the coarsest level. Replication is forced
    // off below the finest level: a coarse "cell" is a cluster, and
    // splitting a cluster's outputs across devices has no meaning on
    // the original circuit.
    let coarse_cfg = cfg.clone().with_replication(ReplicationMode::None);
    let (mut sides, mut cut, mut total_passes) = {
        let _span = Span::enter(recorder, "ml", "initial");
        let initial = bipartition_with_clock(&coarsest.hg, &coarse_cfg, clock);
        (
            sides_of(&initial, &coarsest.hg),
            initial.cut,
            initial.passes,
        )
    };

    // Uncoarsen: project the sides down one rung through each level,
    // dropping the level once projected, and refine them with the
    // boundary pass, whose cost follows the cut rather than the graph,
    // since a projection is already nearly right. Contraction is exact,
    // so a projection keeps the cut the coarser rung ended with and
    // `cut` is carried, never recounted. The last projection lands on
    // `hg`, which the finest level below refines.
    while let Some(level) = chain.pop() {
        sides = level.project_sides(&sides);
        drop(level);
        let Some(fine) = chain.last() else {
            break;
        };
        let (i, fine_hg) = (chain.len(), &fine.hg);
        let t0 = Instant::now();
        let span = Span::enter_with(recorder, "ml", "level", "level", i as u64);
        let refined = refine_sides(fine_hg, &coarse_cfg, &mut sides, REFINE_PASSES, clock);
        drop(span);
        if recorder.enabled(Level::Debug) {
            recorder.record(
                &Event::new("ml", "level", Level::Debug)
                    .field("level", i as u64)
                    .field("cells", fine_hg.n_cells() as u64)
                    .field("projected_cut", cut as u64)
                    .field("refined_cut", refined.cut as u64)
                    .timing("wall_ms", t0.elapsed().as_millis() as u64),
            );
        }
        cut = refined.cut;
        total_passes += refined.passes;
    }

    // Finest level. Replication-free configurations stay on the
    // boundary pass end to end, with no gain-bucket ladder over the
    // whole graph. Replicating configurations hand over to the flat
    // engine here, where the paper's replication phases live.
    let t0 = Instant::now();
    let span = Span::enter_with(recorder, "ml", "level", "level", 0u64);
    let mut result = if cfg.replication == ReplicationMode::None {
        let refined = refine_sides(hg, cfg, &mut sides, cfg.max_passes, clock);
        result_from_sides(hg, cfg, &sides, refined)
    } else {
        bipartition_from_sides(hg, cfg, &sides, clock)
    };
    drop(span);
    if recorder.enabled(Level::Debug) {
        recorder.record(
            &Event::new("ml", "level", Level::Debug)
                .field("level", 0u64)
                .field("cells", hg.n_cells() as u64)
                .field("projected_cut", cut as u64)
                .field("refined_cut", result.cut as u64)
                .timing("wall_ms", t0.elapsed().as_millis() as u64),
        );
        recorder.record(
            &Event::new("ml", "refine", Level::Debug)
                .field("levels", levels as u64)
                .field("cut", result.cut as u64)
                .field("passes", (total_passes + result.passes) as u64)
                .field("replicated", result.replicated_cells as u64),
        );
    }
    result.passes += total_passes;
    result
}

/// Multilevel bipartition with a self-owned clock built from
/// `cfg.budget` / `cfg.fault` (the convenience entry point, mirroring
/// [`bipartition`](netpart_core::bipartition)).
pub fn ml_bipartition(
    hg: &Hypergraph,
    cfg: &BipartitionConfig,
    ml: &MultilevelConfig,
) -> BipartitionResult {
    let clock = RunClock::new(&cfg.budget, &cfg.fault);
    ml_bipartition_with_clock(hg, cfg, ml, &clock)
}

/// Multilevel k-way partitioning against an externally owned clock:
/// coarsen once, carve devices at the coarsest level, then project the
/// placement up rung by rung with the direct k-way refiner.
///
/// Replication is forced off for the coarse carve (clusters cannot be
/// split) and [`refine_kway`] only moves cells, so once the circuit
/// coarsens the result has no replicas; under a replicating `cfg` the
/// degradation report then carries
/// [`Relaxation::CoarsenedWithoutReplication`]. The device assignment
/// found at the coarsest level stays valid at every finer level because
/// contraction preserves cut and area accounting exactly, and
/// [`refine_kway`] only accepts feasibility-preserving moves.
///
/// `escalate` is the flat driver's escalation switch, applied to the
/// coarsest-level carve.
///
/// # Errors
///
/// Exactly the flat [`kway_partition_with_clock`] error taxonomy.
pub fn ml_kway_partition_with_clock(
    hg: &Hypergraph,
    cfg: &KWayConfig,
    ml: &MultilevelConfig,
    clock: &RunClock,
    escalate: bool,
) -> Result<KWayResult, PartitionError> {
    let recorder = clock.recorder();
    let chain_span = Span::enter(recorder, "ml", "chain");
    let mut chain = build_chain_traced(hg, ml, cfg.replication, cfg.seed, recorder);
    drop(chain_span);
    let levels = chain.len();
    let Some(coarsest) = chain.last() else {
        return kway_partition_with_clock(hg, cfg, clock, escalate);
    };

    let mut coarse_cfg = cfg.clone();
    coarse_cfg.replication = ReplicationMode::None;
    let initial_span = Span::enter(recorder, "ml", "initial");
    let carved = kway_partition_with_clock(&coarsest.hg, &coarse_cfg, clock, escalate);
    drop(initial_span);
    let mut result = carved?;
    if cfg.replication.replicates() {
        // The carve and every rung below are move-only: say that the
        // requested replication was not performed.
        result
            .degradation
            .relaxations
            .push(Relaxation::CoarsenedWithoutReplication);
    }
    let lib = result.effective_library(&cfg.library);

    // Uncoarsen: project the placement down one rung through each
    // level, dropping the level once projected, and refine it. A
    // tripped wall clock stops only the refinement: the remaining
    // projections are exact, so the result stays valid, just less
    // polished.
    let mut tripped = false;
    while let Some(level) = chain.pop() {
        let i = chain.len();
        let fine_hg = chain.last().map_or(hg, |l| &l.hg);
        result.placement = level.project_placement(fine_hg, &result.placement);
        drop(level);
        if tripped {
            continue;
        }
        let projected_cut = recorder
            .enabled(Level::Debug)
            .then(|| result.placement.cut_size(fine_hg));
        let t0 = Instant::now();
        let span = Span::enter_with(recorder, "ml", "level", "level", i as u64);
        refine_kway(
            fine_hg,
            &mut result.placement,
            &result.devices,
            &lib,
            REFINE_PASSES,
        );
        drop(span);
        if let Some(projected_cut) = projected_cut {
            recorder.record(
                &Event::new("ml", "level", Level::Debug)
                    .field("level", i as u64)
                    .field("cells", fine_hg.n_cells() as u64)
                    .field("projected_cut", projected_cut as u64)
                    .field("refined_cut", result.placement.cut_size(fine_hg) as u64)
                    .timing("wall_ms", t0.elapsed().as_millis() as u64),
            );
        }
        tripped = clock.check_wall().is_some();
    }
    result.evaluation = evaluate(hg, &result.placement, &lib, &result.devices);
    if recorder.enabled(Level::Debug) {
        recorder.record(
            &Event::new("ml", "refine", Level::Debug)
                .field("levels", levels as u64)
                .field("cut", result.placement.cut_size(hg) as u64)
                .field("cost", result.evaluation.total_cost)
                .field("parts", result.placement.n_parts() as u64),
        );
    }
    Ok(result)
}

/// Multilevel k-way partitioning with a self-owned clock (mirroring
/// [`kway_partition`](netpart_core::kway_partition)).
///
/// # Errors
///
/// Exactly the flat [`kway_partition_with_clock`] error taxonomy.
pub fn ml_kway_partition(
    hg: &Hypergraph,
    cfg: &KWayConfig,
    ml: &MultilevelConfig,
) -> Result<KWayResult, PartitionError> {
    let clock = RunClock::new(&cfg.budget, &cfg.fault);
    ml_kway_partition_with_clock(hg, cfg, ml, &clock, true)
}
