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

use crate::coarsen::coarsen_once;
use crate::level::{cut_of_sides, CoarseLevel};
use crate::refine::refine_sides;
use crate::MultilevelConfig;
use netpart_core::{
    bipartition_from_sides, bipartition_with_clock, kway_partition_with_clock, refine_kway,
    BipartitionConfig, BipartitionResult, KWayConfig, KWayResult, PartitionError, ReplicationMode,
    RunClock, StopReason,
};
use netpart_fpga::evaluate;
use netpart_hypergraph::{Hypergraph, PartId, Placement};
use netpart_obs::{Event, Level, Recorder, Span};
use std::time::Instant;

/// Builds the coarsening chain for `hg`: `chain[0]` contracts `hg`,
/// `chain[i]` contracts `chain[i-1].hg`, and the coarsest graph is
/// `chain.last().hg`. Returns an empty chain when coarsening is
/// disabled or makes no progress — callers treat that as "run flat".
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
        if cur.n_cells() < ml.min_cells {
            break;
        }
        let t0 = Instant::now();
        let span = Span::enter_with(recorder, "ml", "coarsen", "level", (lvl + 1) as u64);
        let mut coarsened = coarsen_once(cur, ml, level_mode, seed.wrapping_add(lvl as u64));
        let shrink_of = |l: &CoarseLevel| l.hg.n_cells() as f64 / cur.n_cells() as f64;
        // ψ-guard stall: on replication-dense circuits the guard can
        // exempt so many cells that matching finds no pair (or too few
        // to shrink the graph), which used to end the chain at full
        // size — every "coarse" level was the input graph. Detect it,
        // warn, and retry this and all later levels with the guard off.
        let stalled = level_mode.replicates()
            && coarsened
                .as_ref()
                .is_none_or(|l| shrink_of(l) > ml.coarsen_ratio);
        if stalled {
            let retry = coarsen_once(
                cur,
                ml,
                ReplicationMode::None,
                seed.wrapping_add(lvl as u64),
            );
            if retry.as_ref().is_some_and(|l| shrink_of(l) <= ml.coarsen_ratio) {
                // Warning-class headline event: the guard was dropped,
                // trading some replication opportunity for progress.
                if recorder.enabled(Level::Info) {
                    recorder.record(
                        &Event::new("ml", "coarsen_stalled", Level::Info)
                            .field("level", (lvl + 1) as u64)
                            .field("cells", cur.n_cells() as u64)
                            .field(
                                "matched_guarded",
                                coarsened.as_ref().map_or(0, |l| l.matched) as u64,
                            ),
                    );
                }
                level_mode = ReplicationMode::None;
                coarsened = retry;
            }
        }
        drop(span);
        let Some(level) = coarsened else {
            break;
        };
        let shrink = level.hg.n_cells() as f64 / cur.n_cells() as f64;
        if shrink > ml.coarsen_ratio {
            break;
        }
        if recorder.enabled(Level::Debug) {
            recorder.record(
                &Event::new("ml", "coarsen", Level::Debug)
                    .field("level", (lvl + 1) as u64)
                    .field("fine_cells", cur.n_cells() as u64)
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
/// another trip through the flat engine: the boundary refiner already
/// maintains exact cut and area accounting, so the result is a direct
/// transcription (re-derived from the placement, not trusted blindly).
fn result_from_sides(
    hg: &Hypergraph,
    cfg: &BipartitionConfig,
    sides: &[u8],
    passes: usize,
    stop: StopReason,
) -> BipartitionResult {
    let mut pl = Placement::new_uniform(hg, 2, PartId(0));
    for c in hg.cell_ids() {
        pl.place(c, PartId(u16::from(sides[c.index()])));
    }
    let cut = pl.cut_size(hg);
    let pa = pl.part_areas(hg);
    let areas = [pa[0], pa[1]];
    BipartitionResult {
        cut,
        areas,
        replicated_cells: 0,
        passes,
        balanced: cfg.balanced(areas),
        stop,
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
    let chain = build_chain_traced(hg, ml, cfg.replication, cfg.seed, recorder);
    drop(chain_span);
    if chain.is_empty() {
        return bipartition_with_clock(hg, cfg, clock);
    }

    // Initial partition at the coarsest level. Replication is forced
    // off below the finest level: a coarse "cell" is a cluster, and
    // splitting a cluster's outputs across devices has no meaning on
    // the original circuit.
    let coarse_cfg = cfg.clone().with_replication(ReplicationMode::None);
    let coarsest = &chain[chain.len() - 1].hg;
    let initial_span = Span::enter(recorder, "ml", "initial");
    let initial = bipartition_with_clock(coarsest, &coarse_cfg, clock);
    drop(initial_span);
    let mut sides = sides_of(&initial, coarsest);
    let mut total_passes = initial.passes;

    // Uncoarsen: project each level's sides down one rung and refine
    // with boundary-limited FM. The projection is already near-optimal
    // for the finer graph, so a refiner whose pass cost scales with the
    // cut (not the graph) does the flat engine's job at a fraction of
    // the wall-clock — this is where the multilevel speedup comes from.
    for i in (1..chain.len()).rev() {
        let fine_hg = &chain[i - 1].hg;
        let mut fine_sides = chain[i].project_sides(&sides);
        let projected_cut = cut_of_sides(fine_hg, &fine_sides);
        let t0 = Instant::now();
        let span = Span::enter_with(recorder, "ml", "level", "level", i as u64);
        let (p, _) = refine_sides(fine_hg, &coarse_cfg, &mut fine_sides, ml.refine_passes, clock);
        drop(span);
        if recorder.enabled(Level::Debug) {
            recorder.record(
                &Event::new("ml", "level", Level::Debug)
                    .field("level", i as u64)
                    .field("cells", fine_hg.n_cells() as u64)
                    .field("projected_cut", projected_cut as u64)
                    .field("refined_cut", cut_of_sides(fine_hg, &fine_sides) as u64)
                    .timing("wall_ms", t0.elapsed().as_millis() as u64),
            );
        }
        sides = fine_sides;
        total_passes += p;
    }

    // Finest level. Replication-free configurations stay on the
    // boundary refiner end to end — no whole-graph engine setup at the
    // finest level at all. Replicating configurations hand over to the
    // flat engine here, where the paper's replication phases live.
    let mut fine_sides = chain[0].project_sides(&sides);
    let projected_cut = cut_of_sides(hg, &fine_sides);
    let t0 = Instant::now();
    let span = Span::enter_with(recorder, "ml", "level", "level", 0u64);
    let mut result = if cfg.replication == ReplicationMode::None {
        let (p, stop) = refine_sides(hg, cfg, &mut fine_sides, cfg.max_passes, clock);
        result_from_sides(hg, cfg, &fine_sides, p, stop)
    } else {
        bipartition_from_sides(hg, cfg, &fine_sides, clock)
    };
    drop(span);
    if recorder.enabled(Level::Debug) {
        recorder.record(
            &Event::new("ml", "level", Level::Debug)
                .field("level", 0u64)
                .field("cells", hg.n_cells() as u64)
                .field("projected_cut", projected_cut as u64)
                .field("refined_cut", result.cut as u64)
                .timing("wall_ms", t0.elapsed().as_millis() as u64),
        );
        recorder.record(
            &Event::new("ml", "refine", Level::Debug)
                .field("levels", chain.len() as u64)
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
/// split); the device assignment found at the coarsest level stays
/// valid at every finer level because contraction preserves cut and
/// area accounting exactly, and [`refine_kway`] only accepts
/// feasibility-preserving moves.
///
/// # Errors
///
/// Exactly the flat [`kway_partition_with_clock`] error taxonomy.
pub fn ml_kway_partition_with_clock(
    hg: &Hypergraph,
    cfg: &KWayConfig,
    ml: &MultilevelConfig,
    clock: &RunClock,
) -> Result<KWayResult, PartitionError> {
    let recorder = clock.recorder();
    let chain_span = Span::enter(recorder, "ml", "chain");
    let chain = build_chain_traced(hg, ml, cfg.replication, cfg.seed, recorder);
    drop(chain_span);
    if chain.is_empty() {
        return kway_partition_with_clock(hg, cfg, clock);
    }

    let mut coarse_cfg = cfg.clone();
    coarse_cfg.replication = ReplicationMode::None;
    let coarsest = &chain[chain.len() - 1].hg;
    let initial_span = Span::enter(recorder, "ml", "initial");
    let carved = kway_partition_with_clock(coarsest, &coarse_cfg, clock);
    drop(initial_span);
    let mut result = carved?;
    let lib = result.effective_library(&cfg.library);

    let mut placement = result.placement.clone();
    for i in (0..chain.len()).rev() {
        let fine_hg = if i == 0 { hg } else { &chain[i - 1].hg };
        let projected = chain[i].project_placement(fine_hg, &placement);
        let projected_cut = projected.cut_size(fine_hg);
        let t0 = Instant::now();
        let span = Span::enter_with(recorder, "ml", "level", "level", i as u64);
        placement = projected;
        refine_kway(
            fine_hg,
            &mut placement,
            &result.devices,
            &lib,
            ml.refine_passes,
        );
        drop(span);
        if recorder.enabled(Level::Debug) {
            recorder.record(
                &Event::new("ml", "level", Level::Debug)
                    .field("level", i as u64)
                    .field("cells", fine_hg.n_cells() as u64)
                    .field("projected_cut", projected_cut as u64)
                    .field("refined_cut", placement.cut_size(fine_hg) as u64)
                    .timing("wall_ms", t0.elapsed().as_millis() as u64),
            );
        }
        if clock.check_wall().is_some() {
            // Budget tripped mid-uncoarsening: finish the remaining
            // projections without refinement (they are exact, so the
            // result stays valid — just less polished).
            for j in (0..i).rev() {
                let fh = if j == 0 { hg } else { &chain[j - 1].hg };
                placement = chain[j].project_placement(fh, &placement);
            }
            break;
        }
    }
    result.placement = placement;
    result.evaluation = evaluate(hg, &result.placement, &lib, &result.devices);
    if recorder.enabled(Level::Debug) {
        recorder.record(
            &Event::new("ml", "refine", Level::Debug)
                .field("levels", chain.len() as u64)
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
    ml_kway_partition_with_clock(hg, cfg, ml, &clock)
}
