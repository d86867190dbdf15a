//! The Fiduccia–Mattheyses pass structure, extended with replication
//! moves (paper §III-D): gain-ordered move selection, lock-after-move,
//! rollback to the best balanced prefix, repeated passes to convergence.
//!
//! Moves are selected from the classic FM gain-bucket ladder
//! ([`crate::buckets`]) with **incremental** gain maintenance — after
//! each applied move only the net contributions that actually changed
//! are re-evaluated, against before/after snapshots of the per-net
//! endpoint counts — giving the linear-time pass the algorithm is known
//! for. The unit tests keep a lazy max-heap pass that re-derives every
//! touched neighbor's best move from scratch as the reference the
//! bucket pass must match move for move.

use crate::buckets::GainBuckets;
use crate::budget::RunClock;
use crate::config::{BipartitionConfig, ReplicationMode};
use crate::csr::CsrGraph;
use crate::error::StopReason;
use crate::state::{
    group_conn, pins_contribution, quiet_transition, CellState, EngineState, StateBuffers,
};
use netpart_hypergraph::{CellId, Hypergraph, NetId, Placement};
use netpart_obs::{Event, Level, Span};
use netpart_rng::Rng;
use std::collections::BinaryHeap;

/// The outcome of one bipartitioning run.
#[derive(Clone, Debug)]
pub struct BipartitionResult {
    /// Final cut-set size (number of cut nets).
    pub cut: usize,
    /// Final per-side areas (replicas counted on both sides).
    pub areas: [u64; 2],
    /// Number of replicated cells in the final state.
    pub replicated_cells: usize,
    /// FM passes executed.
    pub passes: usize,
    /// Whether the final state satisfies both sides' area bounds.
    pub balanced: bool,
    /// Why the run ended. Anything but [`StopReason::Converged`] means
    /// further passes might still have improved the cut; the state
    /// returned is always the best found before stopping (interrupted
    /// passes roll back to their best balanced prefix as usual).
    pub stop: StopReason,
    /// The final placement; `None` only under
    /// [`ReplicationMode::Traditional`] with replicas present (traditional
    /// copies share output nets and have no [`Placement`] form).
    pub placement: Option<Placement>,
    /// Stale-gain repairs across all passes: moves whose cached gain
    /// diverged from the realized gain and were therefore undone,
    /// refreshed and reselected instead of being applied under a wrong
    /// priority. 0 in normal operation — the incremental updates are
    /// exact — so any nonzero value flags a gain-maintenance defect
    /// without corrupting the result.
    pub gain_repairs: usize,
}

impl BipartitionResult {
    /// Serializes this result as an independently checkable
    /// [`SolutionCertificate`](netpart_verify::SolutionCertificate),
    /// stamped with the seed of the run that produced it.
    ///
    /// Returns `None` when the run exported no placement
    /// ([`ReplicationMode::Traditional`] with replicas present).
    pub fn certificate(
        &self,
        hg: &Hypergraph,
        seed: u64,
    ) -> Option<netpart_verify::SolutionCertificate> {
        self.placement
            .as_ref()
            .map(|p| netpart_verify::SolutionCertificate::from_bipartition(hg, p, seed))
    }
}

/// Move priority on gain ties: prefer shrinking work (unreplication),
/// then plain moves, then replication (which grows the design).
const TIE_UNREPLICATE: u8 = 3;
const TIE_MOVE: u8 = 2;
const TIE_REPLICATE: u8 = 1;

/// Upper-bound legality of a state change against the area limits and
/// the replication growth budget.
fn legal(
    engine: &EngineState<'_>,
    cfg: &BipartitionConfig,
    total0: u64,
    c: CellId,
    new: CellState,
) -> bool {
    let d = engine.area_delta(c, new);
    let a = engine.areas();
    if !(0..2).all(|i| (a[i] as i64 + d[i]) as u64 <= cfg.max_area[i]) {
        return false;
    }
    match cfg.max_growth {
        None => true,
        Some(g) => (a[0] + a[1]) as i64 + d[0] + d[1] <= (total0 + g) as i64,
    }
}

/// Applies a state change whose gain was predicted as `expected`. On
/// divergence the move is rolled back and `Err(realized)` returned,
/// leaving the engine exactly as it was — the release-safe replacement
/// for the old `debug_assert_eq!`, which let release builds silently
/// apply moves under a wrong priority.
fn apply_exact(
    engine: &mut EngineState<'_>,
    c: CellId,
    new: CellState,
    expected: i64,
) -> Result<i64, i64> {
    let prev = engine.cell_state(c);
    let realized = engine.set_state(c, new);
    if realized == expected {
        Ok(realized)
    } else {
        engine.set_state(c, prev);
        Err(realized)
    }
}

/// One possible move of a cell during a pass, with its live gain.
///
/// The candidate *set* of a cell is fixed for a whole pass — a cell's
/// own state changes only when a move on it is applied (which locks it)
/// or undone by a repair (which restores it) — so only `gain` moves,
/// via the incremental delta updates.
struct Candidate {
    state: CellState,
    tie: u8,
    gain: i64,
}

/// Enumerates the candidate moves of `c`, seeding each gain from a full
/// [`EngineState::peek_gain`].
fn push_candidates(
    engine: &EngineState<'_>,
    cfg: &BipartitionConfig,
    c: CellId,
    out: &mut Vec<Candidate>,
) {
    let cell = engine.csr().cell(c);
    let mut push = |state: CellState, tie: u8| {
        out.push(Candidate {
            state,
            tie,
            gain: engine.peek_gain(c, state),
        });
    };
    match engine.cell_state(c) {
        CellState::Single { side } => {
            push(CellState::Single { side: 1 - side }, TIE_MOVE);
            if !cell.pad {
                match cfg.replication {
                    ReplicationMode::None => {}
                    ReplicationMode::Traditional => {
                        push(CellState::Traditional { orig_side: side }, TIE_REPLICATE);
                    }
                    ReplicationMode::Functional { threshold } => {
                        let m = cell.outputs;
                        if m >= 2 && cell.psi >= threshold {
                            for o in 0..m {
                                push(
                                    CellState::Functional {
                                        orig_side: side,
                                        replica_mask: 1 << o,
                                    },
                                    TIE_REPLICATE,
                                );
                            }
                        }
                    }
                }
            }
        }
        CellState::Functional { .. } | CellState::Traditional { .. } => {
            for side in 0..2u8 {
                push(CellState::Single { side }, TIE_UNREPLICATE);
            }
        }
    }
}

/// The maximum-`(gain, tie)` candidate of `c` in the arena; earliest
/// wins on exact ties.
fn best_of(cands: &[Candidate], range: &[(u32, u32)], c: CellId) -> Option<(i64, u8, usize)> {
    let (s, e) = range[c.index()];
    let mut best: Option<(i64, u8, usize)> = None;
    for (i, cd) in cands.iter().enumerate().take(e as usize).skip(s as usize) {
        if best.is_none_or(|(g, t, _)| (cd.gain, cd.tie) > (g, t)) {
            best = Some((cd.gain, cd.tie, i));
        }
    }
    best
}

struct PassOutcome {
    improvement: i64,
    any_balanced: bool,
    /// Selection telemetry: candidates popped for consideration,
    /// selection-structure scan work (bucket slots walked by the
    /// max-gain pointer), stale-gain repairs, deferred cells retried
    /// after a drain, moves applied, and the balanced prefix kept after
    /// rollback.
    selects: u64,
    scans: u64,
    repairs: u64,
    retried: u64,
    applied: u64,
    kept: u64,
}

/// What a phase loop reports besides the final state.
pub(crate) struct Phases {
    /// FM passes executed.
    pub(crate) passes: usize,
    /// Why the loop ended.
    pub(crate) stop: StopReason,
    /// Stale-gain repairs across all passes.
    pub(crate) gain_repairs: usize,
}

/// One FM pass over the engine. Production always runs
/// [`run_pass_buckets`]; the unit tests hand [`phase_loop`] the lazy
/// heap reference through this type instead.
type PassFn =
    fn(&mut EngineState<'_>, &BipartitionConfig, &mut PassScratch, &RunClock) -> PassOutcome;

/// The vectors an FM pass works in, kept from pass to pass (and, in a
/// [`FmWorkspace`], from one bipartition to the next), so a pass
/// allocates nothing once they have grown to the circuit. The boundary
/// pass ([`crate::boundary`]) shares the lock, log, deferral, snapshot
/// and touch vectors with the bucket pass, and keeps its heap and gains
/// in the last three.
#[derive(Default)]
pub(crate) struct PassScratch {
    cands: Vec<Candidate>,
    /// Each cell's candidate range in `cands`.
    range: Vec<(u32, u32)>,
    buckets: GainBuckets,
    pub(crate) locked: Vec<bool>,
    /// Applied moves with the state each replaced, for the rollback.
    pub(crate) log: Vec<(CellId, CellState)>,
    pub(crate) deferred: Vec<CellId>,
    /// The moved cell's net counts before the move.
    pub(crate) before: Vec<([u32; 2], [u32; 2])>,
    pub(crate) in_touched: Vec<bool>,
    touched: Vec<u32>,
    /// Moves with a quiet net: each changed net's index in the moved
    /// cell's net list, and the repositions with their first-seen rank.
    rank: Vec<u32>,
    moved: Vec<(u64, u32, i64, u8)>,
    lowered: Lowered,
    dead: DeadNets,
    /// The boundary pass's lazy max-heap on `(gain, cell)`, the gain of
    /// each cell it admitted, and the cells a move touched with their
    /// gains before it (`None`: not admitted yet).
    pub(crate) heap: BinaryHeap<(i64, u32)>,
    pub(crate) gain: Vec<Option<i64>>,
    pub(crate) changed: Vec<(CellId, Option<i64>)>,
}

/// Clears `v` and refills it with `n` copies of `x`, in its capacity.
pub(crate) fn refill<T: Clone>(v: &mut Vec<T>, n: usize, x: T) {
    v.clear();
    v.resize(n, x);
}

/// Everything a bipartition allocates, kept for the next one: the
/// engine's state vectors, the pass scratch and the initial-side
/// buffers. A flat run uses one per call; a k-way carve task keeps one
/// for every bipartition of every attempt.
#[derive(Default)]
pub(crate) struct FmWorkspace {
    buffers: StateBuffers,
    pass: PassScratch,
    sides: Vec<u8>,
    order: Vec<CellId>,
}

impl FmWorkspace {
    /// Runs FM on `csr` from `sides`, or from the seeded random start of
    /// [`initial_sides`] when `None`, and hands the final state and the
    /// phase loop's counts to `then`.
    pub(crate) fn bipartition<R>(
        &mut self,
        csr: &CsrGraph,
        cfg: &BipartitionConfig,
        sides: Option<&[u8]>,
        clock: &RunClock,
        then: impl FnOnce(&EngineState<'_>, Phases) -> R,
    ) -> R {
        self.bipartition_with(csr, cfg, sides, clock, run_pass_buckets, then)
    }

    /// [`FmWorkspace::bipartition`] with every pass run through `pass`.
    fn bipartition_with<R>(
        &mut self,
        csr: &CsrGraph,
        cfg: &BipartitionConfig,
        sides: Option<&[u8]>,
        clock: &RunClock,
        pass: PassFn,
        then: impl FnOnce(&EngineState<'_>, Phases) -> R,
    ) -> R {
        let sides = match sides {
            Some(sides) => sides,
            None => {
                initial_sides(csr, cfg, &mut self.sides, &mut self.order);
                &self.sides
            }
        };
        let buffers = std::mem::take(&mut self.buffers);
        let mut engine = EngineState::over(csr, sides, cfg.terminal_weight, buffers);
        let phases = phase_loop(&mut engine, cfg, clock, &mut self.pass, pass);
        let out = then(&engine, phases);
        self.buffers = engine.into_buffers();
        out
    }
}

#[cfg(test)]
thread_local! {
    /// Changed nets whose cells the bucket pass did not walk because the
    /// transition was quiet, on this thread since it started.
    static QUIET_SKIPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Bucket passes the dead-net bound ended before the ladder drained,
    /// on this thread since it started.
    static BOUND_STOPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// [`DeadNets`] flag bits of a net: a locked cell connects a sink of it
/// on side 0, on side 1; its driver is locked; it is counted dead.
const SINK_LOCKED: [u8; 2] = [1, 2];
const DRIVER_LOCKED: u8 = 4;
const COUNTED: u8 = 8;

/// The nets no later move of a pass can uncut. A net is *dead* once its
/// driver is locked and a locked cell connects a sink of it on a side
/// the driver does not reach. Locked cells keep their states until the
/// pass ends, so that side keeps a sink and no driver while the other
/// keeps the driver, and the net stays cut. The count is a lower bound
/// on the cut of every later prefix of the pass (DESIGN §9.4).
#[derive(Default)]
struct DeadNets {
    /// One byte of flag bits per net.
    flags: Vec<u8>,
    count: i64,
}

impl DeadNets {
    /// No locked cell, for `n_nets` nets.
    fn reset(&mut self, n_nets: usize) {
        refill(&mut self.flags, n_nets, 0);
        self.count = 0;
    }

    /// Records that `c` is locked in its current state, counting the
    /// nets that makes dead.
    fn lock(&mut self, engine: &EngineState<'_>, csr: &CsrGraph, c: CellId) {
        let state = engine.cell_state(c);
        for (nt, pins) in csr.groups(c) {
            let f = &mut self.flags[nt.index()];
            if *f & COUNTED != 0 {
                continue;
            }
            let [s0, s1, d0, d1] = group_conn(state, pins);
            for (conn, bit) in [
                (s0, SINK_LOCKED[0]),
                (s1, SINK_LOCKED[1]),
                (d0 + d1, DRIVER_LOCKED),
            ] {
                if conn > 0 {
                    *f |= bit;
                }
            }
            if *f & DRIVER_LOCKED == 0 {
                continue;
            }
            // A net has one driver, so its driver counts are final now.
            // A traditional replica drives both sides and kills nothing.
            let (_, drv) = engine.net_counts(nt);
            if (0..2).any(|s| *f & SINK_LOCKED[s] != 0 && drv[s] == 0 && drv[1 - s] > 0) {
                *f |= COUNTED;
                self.count += 1;
            }
        }
    }
}

/// `rank` marker: the net is not a changed net of the current move.
const NO_RANK: u32 = u32::MAX;

/// The cells whose ladder key is below their best candidate's: a pop
/// re-keyed them at their best *legal* candidate, and they keep that
/// key until an update re-keys them at [`best_of`]. Counted per net,
/// because an update of such a cell is not a no-op, so a net holding
/// one must be walked even when its transition is quiet.
#[derive(Default)]
struct Lowered {
    cell: Vec<bool>,
    per_net: Vec<u32>,
}

impl Lowered {
    /// No lowered cell, for `n_cells` cells and `n_nets` nets.
    fn reset(&mut self, n_cells: usize, n_nets: usize) {
        refill(&mut self.cell, n_cells, false);
        refill(&mut self.per_net, n_nets, 0);
    }

    /// Records whether `c`'s key is lowered.
    fn set(&mut self, csr: &CsrGraph, c: CellId, lowered: bool) {
        if self.cell[c.index()] == lowered {
            return;
        }
        self.cell[c.index()] = lowered;
        for &nt in csr.nets_of(c) {
            if lowered {
                self.per_net[nt.index()] += 1;
            } else {
                self.per_net[nt.index()] -= 1;
            }
        }
    }

    /// Whether a lowered cell sits on `nt`.
    fn on(&self, nt: NetId) -> bool {
        self.per_net[nt.index()] > 0
    }
}

/// One FM pass over the gain-bucket ladder with incremental updates.
///
/// Cells sit in [`GainBuckets`] keyed by their best candidate's
/// `(gain, tie)`. After each applied move, only the incident nets whose
/// endpoint counts actually changed are revisited, and each unlocked
/// endpoint's candidate gains are adjusted by the *difference* of that
/// net's contribution between the before/after count snapshots
/// ([`pins_contribution`]) — no candidate is recomputed from scratch on
/// the hot path. A changed net whose transition is quiet
/// ([`quiet_transition`]) changes no contribution, so its cells are not
/// walked at all; the repositioning order stays the one a full walk
/// would produce (see the update step below).
///
/// When a cell's best candidate is area-illegal, the cell is re-keyed
/// by its best *legal* candidate (strictly lower, so this terminates)
/// instead of being set aside outright; cells with no legal candidate
/// go to `deferred` and re-enter when the areas change, with one final
/// retry should the ladder drain first.
///
/// The pass ends before the ladder drains once no later prefix can beat
/// the best balanced one: when the [`DeadNets`] and a floor under the
/// pad cost already cost as much as the best prefix's objective. The
/// moves it skips are ones the rollback would undo (DESIGN §9.4).
fn run_pass_buckets(
    engine: &mut EngineState<'_>,
    cfg: &BipartitionConfig,
    scratch: &mut PassScratch,
    clock: &RunClock,
) -> PassOutcome {
    // Own handle on the CSR arenas so net/neighbor slices stay
    // borrowable across the engine mutations below.
    let arenas = engine.csr().clone();
    let csr: &CsrGraph = &arenas;
    let total0 = csr.total_area();
    let n = csr.n_cells();
    let PassScratch {
        cands,
        range,
        buckets,
        locked,
        log,
        deferred,
        before,
        in_touched,
        touched,
        rank,
        moved,
        lowered,
        dead,
        ..
    } = scratch;

    // Bucket-array gain bound: a move changes each distinct incident
    // net's cut contribution by at most 1. Pad-weighted gains can
    // exceed it; those ride the exact overflow list.
    let p_max = csr.max_cell_degree() as i64;
    let max_pins = csr.max_group_pins() as u32;

    // The objective at pass start, and a floor under the pad cost of
    // every later prefix: locked pads at their side's weight, the others
    // at the lower weight.
    let obj0 = engine.objective();
    let weight = engine.terminal_weight();
    let low = weight[0].min(weight[1]);
    let mut pad_floor = 0i64;

    let build_span = Span::enter(clock.recorder(), "fm", "buckets.build");
    cands.clear();
    range.clear();
    for c in csr.cell_ids() {
        let s = cands.len() as u32;
        push_candidates(engine, cfg, c, cands);
        range.push((s, cands.len() as u32));
        if csr.cell(c).pad {
            pad_floor += low;
        }
    }

    buckets.reset(n, p_max);
    for c in csr.cell_ids() {
        if let Some((g, t, _)) = best_of(cands, range, c) {
            buckets.insert(c.0, g, t);
        }
    }
    drop(build_span);

    refill(locked, n, false);
    log.clear();
    let mut cum = 0i64;
    let mut best: Option<(i64, usize)> = cfg.balanced(engine.areas()).then_some((0, 0));
    deferred.clear();
    let mut drained_retry = false;
    let mut selects = 0u64;
    let mut repairs = 0u64;
    let mut retried = 0u64;

    // Per-move scratch.
    refill(in_touched, n, false);
    touched.clear();
    refill(rank, csr.n_nets(), NO_RANK);
    moved.clear();
    lowered.reset(n, csr.n_nets());
    dead.reset(csr.n_nets());

    loop {
        let Some((cell, gain, tie)) = buckets.pop() else {
            // The ladder drained. Deferred cells get one retry before
            // the pass ends — without it they would be silently dropped
            // whenever no further applied move re-enqueues them.
            if !deferred.is_empty() && !drained_retry {
                drained_retry = true;
                retried += deferred.len() as u64;
                for c in deferred.drain(..) {
                    if let Some((g, t, _)) = best_of(cands, range, c) {
                        buckets.update(c.0, g, t);
                    }
                }
                continue;
            }
            break;
        };
        selects += 1;
        let c = CellId(cell);
        debug_assert!(!locked[c.index()], "locked cell left in the ladder");
        lowered.set(csr, c, false);
        // Pick the best candidate still legal at the current areas. The
        // popped key is the cell's best candidate ignoring legality, or
        // a legal-best computed at some earlier areas; when the two
        // differ, re-key at the current legal-best and revisit. Between
        // applied moves legality is static, so re-keys only move a cell
        // down its candidate list and the loop terminates; an applied
        // move (which can raise legal bests) happens at most once per
        // cell.
        let (s, e) = range[c.index()];
        let mut pick: Option<(i64, u8, usize)> = None;
        for (i, cd) in cands.iter().enumerate().take(e as usize).skip(s as usize) {
            if pick.is_none_or(|(g, t, _)| (cd.gain, cd.tie) > (g, t))
                && legal(engine, cfg, total0, c, cd.state)
            {
                pick = Some((cd.gain, cd.tie, i));
            }
        }
        let Some((bg, bt, bi)) = pick else {
            // No legal candidate at the current areas; retry once they
            // change (or at the end-of-pass drain retry).
            deferred.push(c);
            continue;
        };
        if (bg, bt) != (gain, tie) {
            buckets.update(cell, bg, bt);
            let top = best_of(cands, range, c).map(|(g, t, _)| (g, t));
            lowered.set(csr, c, top != Some((bg, bt)));
            continue;
        }
        let new = cands[bi].state;
        let prev = engine.cell_state(c);
        let nets = csr.nets_of(c);
        before.clear();
        before.extend(nets.iter().map(|&nt| engine.net_counts(nt)));
        if apply_exact(engine, c, new, bg).is_err() {
            // Stale cached gain (unreachable while the delta updates
            // stay exact): refresh this cell from scratch and reselect.
            repairs += 1;
            for cd in &mut cands[s as usize..e as usize] {
                cd.gain = engine.peek_gain(c, cd.state);
            }
            if let Some((g, t, _)) = best_of(cands, range, c) {
                buckets.update(cell, g, t);
            }
            continue;
        }
        locked[c.index()] = true;
        log.push((c, prev));
        cum += bg;
        if cfg.balanced(engine.areas()) && best.is_none_or(|(b, _)| cum > b) {
            best = Some((cum, log.len()));
        }
        // A tripped budget or injected fault abandons the rest of the
        // pass; the rollback below still restores the best balanced
        // prefix, so interruption only costs unexplored moves.
        if clock.tick_move().is_some() {
            break;
        }
        // Every later prefix costs at least the dead nets plus the pad
        // floor, so once those reach the best prefix's objective no
        // later prefix can beat it. Checked only after an applied move,
        // so a pass that applies none still retries its deferred cells.
        dead.lock(engine, csr, c);
        if let CellState::Single { side } = new {
            if csr.cell(c).pad {
                pad_floor += weight[side as usize] - low;
            }
        }
        if best.is_some_and(|(b, _)| dead.count + pad_floor >= obj0 - b) {
            #[cfg(test)]
            BOUND_STOPS.with(|s| s.set(s.get() + 1));
            break;
        }
        // Incremental gain maintenance: for each incident net whose
        // endpoint counts changed, adjust every unlocked endpoint's
        // candidates by the difference in that net's contribution. A
        // quiet net changes no contribution and is skipped, unless it
        // holds a lowered cell, which the walk would re-key.
        touched.clear();
        let mut quiet = false;
        for (i, &nt) in nets.iter().enumerate() {
            let after = engine.net_counts(nt);
            if after == before[i] {
                continue;
            }
            if !lowered.on(nt) && quiet_transition(before[i], after, max_pins) {
                quiet = true;
                #[cfg(test)]
                QUIET_SKIPS.with(|q| q.set(q.get() + 1));
                continue;
            }
            for (&t, &g) in csr.cells_of(nt).iter().zip(csr.net_groups(nt)) {
                if t == c || locked[t.index()] {
                    continue;
                }
                let cur_t = engine.cell_state(t);
                let (ts, te) = range[t.index()];
                let pins = csr.group_pins(g);
                for cd in &mut cands[ts as usize..te as usize] {
                    cd.gain += pins_contribution(cur_t, cd.state, pins, after)
                        - pins_contribution(cur_t, cd.state, pins, before[i]);
                }
                if !in_touched[t.index()] {
                    in_touched[t.index()] = true;
                    touched.push(t.0);
                }
            }
        }
        // The areas changed, so deferred cells get another look too.
        for d in deferred.drain(..) {
            if !locked[d.index()] && !in_touched[d.index()] {
                in_touched[d.index()] = true;
                touched.push(d.0);
            }
        }
        drained_retry = false;
        // With no net skipped, the walk touched the cells in first-seen
        // order already, so the repositioning below would make the same
        // key changes in the same order; updating directly only saves
        // its sort keys. On the paper-kway benchmark workload (2-vCPU
        // host, 10 alternating 40 s e2ebench runs) sending these moves
        // through the sort too read flow_s 10.5% higher, 9 runs of 10.
        if !quiet {
            for &t in touched.iter() {
                in_touched[t as usize] = false;
                lowered.set(csr, CellId(t), false);
                if let Some((g, tt, _)) = best_of(cands, range, CellId(t)) {
                    buckets.update(t, g, tt);
                }
            }
            continue;
        }
        // Quiet nets were not walked, yet the ladder's LIFO order must
        // be the one a walk of every changed net would leave. The
        // skipped nets hold no lowered cell, so their present cells
        // keep their keys and a walk's update of them is a no-op (as is
        // any same-key update). Only re-keyed cells and absent
        // (deferred) ones are repositioned, in the order the full walk
        // would first have seen them: by the cell's first changed net
        // (the moved cell's nets are ascending, and so are each
        // cell's), then its place on that net, with deferred cells on
        // no changed net last in deferral order.
        for (i, &nt) in nets.iter().enumerate() {
            if engine.net_counts(nt) != before[i] {
                rank[nt.index()] = i as u32;
            }
        }
        moved.clear();
        for (k, &t) in touched.iter().enumerate() {
            in_touched[t as usize] = false;
            lowered.set(csr, CellId(t), false);
            let Some((g, tt, _)) = best_of(cands, range, CellId(t)) else {
                continue;
            };
            if buckets.key(t) == Some((g, tt)) {
                continue;
            }
            let tc = CellId(t);
            let seen = csr
                .nets_of(tc)
                .iter()
                .zip(csr.positions_of(tc))
                .find(|(nt, _)| rank[nt.index()] != NO_RANK)
                .map_or((u64::from(NO_RANK) << 32) | k as u64, |(nt, &pos)| {
                    (u64::from(rank[nt.index()]) << 32) | u64::from(pos)
                });
            moved.push((seen, t, g, tt));
        }
        for &nt in nets {
            rank[nt.index()] = NO_RANK;
        }
        moved.sort_unstable_by_key(|m| m.0);
        for &(_, t, g, tt) in moved.iter() {
            buckets.update(t, g, tt);
        }
    }

    let keep = best.map_or(0, |(_, k)| k);
    let applied = log.len() as u64;
    for (c, prev) in log.drain(keep..).rev() {
        engine.set_state(c, prev);
    }
    PassOutcome {
        improvement: best.map_or(0, |(g, _)| g),
        any_balanced: best.is_some(),
        selects,
        scans: buckets.scans(),
        repairs,
        retried,
        applied,
        kept: keep as u64,
    }
}

/// A random initial assignment that fills side 0 up to the midpoint of
/// its area window (respecting side 1's upper bound), in shuffled order:
/// written to `sides`, shuffled in `order`.
fn initial_sides(
    csr: &CsrGraph,
    cfg: &BipartitionConfig,
    sides: &mut Vec<u8>,
    order: &mut Vec<CellId>,
) {
    let mut rng = Rng::seed_from_u64(cfg.seed);
    order.clear();
    order.extend(csr.cell_ids());
    rng.shuffle(order);
    let total = csr.total_area();
    let mid0 = (cfg.min_area[0] + cfg.max_area[0]) / 2;
    let floor0 = total.saturating_sub(cfg.max_area[1]);
    let target0 = mid0.clamp(floor0.min(cfg.max_area[0]), cfg.max_area[0]);
    refill(sides, csr.n_cells(), 1);
    let mut a0 = 0u64;
    for &c in order.iter() {
        let a = u64::from(csr.cell(c).area);
        if a0 + a <= target0 {
            sides[c.index()] = 0;
            a0 += a;
        }
    }
}

/// Runs FM (optionally with replication) from a random initial placement
/// until no pass improves the cut.
///
/// Passes move/replicate/unreplicate one cell at a time in gain order,
/// lock it, and finally roll back to the best *balanced* prefix; runs
/// stop after [`BipartitionConfig::max_passes`] or the first pass without
/// improvement.
pub fn bipartition(hg: &Hypergraph, cfg: &BipartitionConfig) -> BipartitionResult {
    let clock = RunClock::new(&cfg.budget, &cfg.fault);
    bipartition_with_clock(hg, cfg, &clock)
}

/// [`bipartition`] against an externally owned [`RunClock`], so that
/// multi-start, k-way and parallel-portfolio drivers can enforce one
/// budget across many bipartitions (or share a deadline and
/// [`CancelToken`](crate::CancelToken) across threads).
pub fn bipartition_with_clock(
    hg: &Hypergraph,
    cfg: &BipartitionConfig,
    clock: &RunClock,
) -> BipartitionResult {
    flat_run(hg, cfg, None, clock, run_pass_buckets)
}

/// [`bipartition_with_clock`] from an explicit initial assignment
/// instead of the seeded random one — `sides[i]` is cell `i`'s starting
/// side (0 or 1). A replicating V-cycle hands its finest level here, so
/// the replication phases start from the projected solution; coarser
/// levels go through [`refine_sides`](crate::refine_sides).
///
/// # Panics
///
/// Panics if `sides` is shorter than the cell count or contains a
/// value other than 0 or 1.
pub fn bipartition_from_sides(
    hg: &Hypergraph,
    cfg: &BipartitionConfig,
    sides: &[u8],
    clock: &RunClock,
) -> BipartitionResult {
    flat_run(hg, cfg, Some(sides), clock, run_pass_buckets)
}

/// One flat bipartition of `hg`: its CSR arenas and one [`FmWorkspace`]
/// for the call, every FM pass run through `pass` — a test seam for the
/// lazy-heap reference, not an option: every production caller passes
/// [`run_pass_buckets`].
fn flat_run(
    hg: &Hypergraph,
    cfg: &BipartitionConfig,
    sides: Option<&[u8]>,
    clock: &RunClock,
    pass: PassFn,
) -> BipartitionResult {
    let csr = CsrGraph::build(hg);
    FmWorkspace::default().bipartition_with(&csr, cfg, sides, clock, pass, |engine, phases| {
        let exportable = hg
            .cell_ids()
            .all(|c| !matches!(engine.cell_state(c), CellState::Traditional { .. }));
        BipartitionResult {
            cut: engine.cut(),
            areas: engine.areas(),
            replicated_cells: engine.replicated_cells(),
            passes: phases.passes,
            balanced: cfg.balanced(engine.areas()),
            stop: phases.stop,
            placement: exportable.then(|| engine.to_placement(hg)),
            gain_repairs: phases.gain_repairs,
        }
    })
}

/// The phase and pass loop: plain FM to convergence, then the
/// configured replication moves, each FM pass run through `pass`.
fn phase_loop(
    engine: &mut EngineState<'_>,
    cfg: &BipartitionConfig,
    clock: &RunClock,
    scratch: &mut PassScratch,
    pass: PassFn,
) -> Phases {
    let mut passes = 0;
    let mut balanced_ever = cfg.balanced(engine.areas());
    // Phase 1 always runs plain FM to convergence; phase 2 adds the
    // replication moves as a refinement. Replicating while the cut is
    // still near-random commits structure prematurely and degrades the
    // result — refining a converged min-cut is where replication pays
    // off (every pass rolls back to its best prefix, so phase 2 can only
    // improve on phase 1).
    let phases: &[ReplicationMode] = if cfg.replication.replicates() {
        &[ReplicationMode::None, cfg.replication]
    } else {
        &[ReplicationMode::None]
    };
    let recorder = clock.recorder();
    let moves0 = clock.moves(); // the clock may be shared across starts
    let mut stop = StopReason::Converged;
    let mut gain_repairs = 0usize;
    'phases: for &mode in phases {
        let phase_cfg = BipartitionConfig {
            replication: mode,
            ..cfg.clone()
        };
        let phase_name = match mode {
            ReplicationMode::None => "plain",
            ReplicationMode::Traditional => "traditional",
            ReplicationMode::Functional { .. } => "functional",
        };
        stop = StopReason::PassLimit; // overwritten on convergence/interruption
        for _ in 0..cfg.max_passes {
            let pass_span = Span::enter(recorder, "fm", "pass");
            let out = pass(engine, &phase_cfg, scratch, clock);
            drop(pass_span);
            passes += 1;
            gain_repairs += out.repairs as usize;
            if recorder.enabled(Level::Trace) {
                recorder.record(
                    &Event::new("fm", "pass", Level::Trace)
                        .field("seed", cfg.seed)
                        .field("phase", phase_name)
                        .field("pass", passes)
                        .field("cut", engine.cut())
                        .field("gain", out.improvement)
                        .field("selects", out.selects)
                        .field("scans", out.scans)
                        .field("repairs", out.repairs)
                        .field("retried", out.retried)
                        .field("applied", out.applied)
                        .field("kept", out.kept)
                        .field("spanning", engine.spanning_nets())
                        .field("balanced", out.any_balanced),
                );
            }
            if let Some(r) = clock.tick_pass() {
                stop = r;
                break 'phases;
            }
            let progress = out.improvement > 0 || (!balanced_ever && out.any_balanced);
            balanced_ever |= out.any_balanced;
            if !progress {
                stop = StopReason::Converged;
                break;
            }
        }
    }
    if recorder.enabled(Level::Debug) {
        let replicated_cells = engine.replicated_cells();
        recorder.record(
            &Event::new("fm", "done", Level::Debug)
                .field("seed", cfg.seed)
                .field("cut", engine.cut())
                .field("passes", passes)
                .field("balanced", cfg.balanced(engine.areas()))
                .field("replicated", replicated_cells)
                .field("stop", format!("{stop:?}")),
        );
        recorder.record(&Event::counter("fm", "passes", passes as u64).at(Level::Debug));
        recorder.record(&Event::counter("fm", "moves", clock.moves() - moves0).at(Level::Debug));
        if replicated_cells > 0 {
            // Replication events binned by ψ: which replication
            // potentials the accepted replicas actually had (paper
            // eq. 5's d_X(ψ) restricted to the replicated set).
            let csr = engine.csr();
            let mut bins: Vec<u64> = Vec::new();
            for c in csr.cell_ids() {
                if !matches!(engine.cell_state(c), CellState::Single { .. }) {
                    let p = csr.cell(c).psi as usize;
                    if bins.len() <= p {
                        bins.resize(p + 1, 0);
                    }
                    bins[p] += 1;
                }
            }
            recorder.record(&Event::hist("fm", "replicated_psi", bins).at(Level::Debug));
        }
    }
    Phases {
        passes,
        stop,
        gain_repairs,
    }
}

/// A lazy max-heap FM pass: the reference the bucket pass must match
/// move for move. Test-only: it reaches the phase loop through
/// [`phase_loop`]'s `pass` argument.
#[cfg(test)]
mod lazy_heap {
    use super::*;

    #[derive(PartialEq, Eq)]
    struct HeapEntry {
        gain: i64,
        tie: u8,
        /// Third-order key replicating the bucket ladder's ordering
        /// contract so both passes elect identical move sequences:
        /// an insertion sequence number for in-range gains (LIFO — higher
        /// is more recent and wins) and `!cell` for overflow gains (lowest
        /// cell id wins). The two regimes never meet at an equal
        /// `(gain, tie)` key, so the combined order is total.
        ord: u64,
        cell: u32,
        stamp: u64,
    }

    impl Ord for HeapEntry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (self.gain, self.tie, self.ord).cmp(&(other.gain, other.tie, other.ord))
        }
    }

    impl PartialOrd for HeapEntry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    /// The best move currently available for a cell, if any.
    fn best_candidate(
        engine: &EngineState<'_>,
        cfg: &BipartitionConfig,
        c: CellId,
    ) -> Option<(i64, u8, CellState)> {
        best_candidate_where(engine, cfg, c, |_| true)
    }

    /// The best move of `c` among candidates satisfying `keep`, enumerated
    /// in the same order as [`push_candidates`] (earliest wins exact
    /// `(gain, tie)` ties, matching [`best_of`]).
    fn best_candidate_where(
        engine: &EngineState<'_>,
        cfg: &BipartitionConfig,
        c: CellId,
        keep: impl Fn(CellState) -> bool,
    ) -> Option<(i64, u8, CellState)> {
        let cur = engine.cell_state(c);
        let cell = engine.csr().cell(c);
        let mut best: Option<(i64, u8, CellState)> = None;
        let consider =
            |gain: i64, tie: u8, st: CellState, best: &mut Option<(i64, u8, CellState)>| {
                if !keep(st) {
                    return;
                }
                if best.as_ref().is_none_or(|(g, t, _)| (gain, tie) > (*g, *t)) {
                    *best = Some((gain, tie, st));
                }
            };
        match cur {
            CellState::Single { side } => {
                let mv = CellState::Single { side: 1 - side };
                consider(engine.peek_gain(c, mv), TIE_MOVE, mv, &mut best);
                if !cell.pad {
                    match cfg.replication {
                        ReplicationMode::None => {}
                        ReplicationMode::Traditional => {
                            let st = CellState::Traditional { orig_side: side };
                            consider(engine.peek_gain(c, st), TIE_REPLICATE, st, &mut best);
                        }
                        ReplicationMode::Functional { threshold } => {
                            let m = cell.outputs;
                            if m >= 2 && cell.psi >= threshold {
                                for o in 0..m {
                                    let st = CellState::Functional {
                                        orig_side: side,
                                        replica_mask: 1 << o,
                                    };
                                    consider(engine.peek_gain(c, st), TIE_REPLICATE, st, &mut best);
                                }
                            }
                        }
                    }
                }
            }
            CellState::Functional { .. } | CellState::Traditional { .. } => {
                for side in 0..2u8 {
                    let st = CellState::Single { side };
                    consider(engine.peek_gain(c, st), TIE_UNREPLICATE, st, &mut best);
                }
            }
        }
        best
    }

    /// One FM pass over a lazy max-heap: the differential reference for
    /// [`run_pass_buckets`].
    ///
    /// Selection *policy* is identical to the bucket pass — same candidate
    /// enumeration, same `(gain, tie)` keys, same LIFO / lowest-cell-id
    /// ordering (see [`HeapEntry::ord`]), same re-key-to-legal-best rule at
    /// selection time, same deferred-retry protocol — so for a fixed seed
    /// both passes elect the same move sequence and produce
    /// certificate-identical solutions (enforced by
    /// `gain_buckets_and_lazy_heap_are_certificate_identical`).
    ///
    /// The *mechanism* is deliberately different: priorities live in a lazy
    /// `BinaryHeap` with stamp-invalidated entries, and every touched
    /// neighbor's key is re-derived from scratch via
    /// [`EngineState::peek_gain`] instead of the bucket pass's incremental
    /// delta maintenance. Any inexactness in the incremental updates
    /// surfaces as a certificate divergence between the two.
    pub(super) fn run_pass_heap(
        engine: &mut EngineState<'_>,
        cfg: &BipartitionConfig,
        _scratch: &mut PassScratch,
        clock: &RunClock,
    ) -> PassOutcome {
        let csr = engine.csr().clone();
        let total0 = csr.total_area();
        let n = csr.n_cells();
        // Same in-range bound as the bucket ladder: inside it, equal keys
        // order LIFO by insertion sequence; outside, by lowest cell id.
        let p_max = csr.max_cell_degree() as i64;
        let ord_of = |gain: i64, cell: u32, seq: u64| -> u64 {
            if (-p_max..=p_max).contains(&gain) {
                seq
            } else {
                u64::from(!cell)
            }
        };

        let mut locked = vec![false; n];
        let mut stamps = vec![0u64; n];
        // Key of each cell's live entry; `present` gates the same-key no-op
        // (which preserves the LIFO position, exactly like the ladder's
        // `update` with an unchanged key).
        let mut key: Vec<(i64, u8)> = vec![(0, 0); n];
        let mut present = vec![false; n];
        let mut heap = BinaryHeap::new();
        let mut seq = 0u64;

        let mut push_entry = |heap: &mut BinaryHeap<HeapEntry>,
                              stamps: &mut [u64],
                              key: &mut [(i64, u8)],
                              present: &mut [bool],
                              c: CellId,
                              g: i64,
                              t: u8| {
            stamps[c.index()] += 1;
            seq += 1;
            key[c.index()] = (g, t);
            present[c.index()] = true;
            heap.push(HeapEntry {
                gain: g,
                tie: t,
                ord: ord_of(g, c.0, seq),
                cell: c.0,
                stamp: stamps[c.index()],
            });
        };
        // (Re)keys `c` by its best candidate ignoring legality — the
        // ladder's `update(best_of(..))` — keeping the live entry when the
        // key is unchanged.
        macro_rules! push_best {
            ($c:expr) => {{
                let c: CellId = $c;
                if let Some((g, t, _)) = best_candidate(engine, cfg, c) {
                    if !(present[c.index()] && key[c.index()] == (g, t)) {
                        push_entry(&mut heap, &mut stamps, &mut key, &mut present, c, g, t);
                    }
                } else if present[c.index()] {
                    present[c.index()] = false;
                    stamps[c.index()] += 1;
                }
            }};
        }

        for c in csr.cell_ids() {
            push_best!(c);
        }

        let mut log: Vec<(CellId, CellState)> = Vec::new();
        let mut cum = 0i64;
        let mut best: Option<(i64, usize)> = cfg.balanced(engine.areas()).then_some((0, 0));
        let mut deferred: Vec<CellId> = Vec::new();
        let mut drained_retry = false;
        let mut selects = 0u64;
        let mut scans = 0u64;
        let mut repairs = 0u64;
        let mut retried = 0u64;

        // Reused per-move scratch, mirroring the bucket pass.
        let mut before: Vec<([u32; 2], [u32; 2])> = Vec::new();
        let mut in_touched = vec![false; n];
        let mut touched: Vec<u32> = Vec::new();

        loop {
            let Some(e) = heap.pop() else {
                // Drained: give deferred cells one retry (see the bucket
                // pass for rationale).
                if !deferred.is_empty() && !drained_retry {
                    drained_retry = true;
                    retried += deferred.len() as u64;
                    for c in std::mem::take(&mut deferred) {
                        if !locked[c.index()] {
                            push_best!(c);
                        }
                    }
                    continue;
                }
                break;
            };
            let c = CellId(e.cell);
            if locked[c.index()] || e.stamp != stamps[c.index()] {
                // Superseded entry: the heap's analogue of a bucket-walk
                // scan.
                scans += 1;
                continue;
            }
            selects += 1;
            // Select the best candidate still legal at the current areas,
            // re-deriving every gain from scratch; re-key and revisit when
            // it differs from the popped key (the ladder's exact rule).
            let pick = best_candidate_where(engine, cfg, c, |st| legal(engine, cfg, total0, c, st));
            let Some((bg, bt, new)) = pick else {
                // No legal candidate at the current areas; retry once they
                // change (or at the end-of-pass drain retry).
                present[c.index()] = false;
                stamps[c.index()] += 1;
                deferred.push(c);
                continue;
            };
            if (bg, bt) != (e.gain, e.tie) {
                push_entry(&mut heap, &mut stamps, &mut key, &mut present, c, bg, bt);
                continue;
            }
            let prev = engine.cell_state(c);
            let nets = csr.nets_of(c);
            before.clear();
            before.extend(nets.iter().map(|&nt| engine.net_counts(nt)));
            if apply_exact(engine, c, new, bg).is_err() {
                // Stale gain (unreachable while peek_gain is exact):
                // refresh the cell and reselect instead of applying the
                // move under a wrong priority.
                repairs += 1;
                if let Some((g, t, _)) = best_candidate(engine, cfg, c) {
                    push_entry(&mut heap, &mut stamps, &mut key, &mut present, c, g, t);
                } else {
                    present[c.index()] = false;
                    stamps[c.index()] += 1;
                }
                continue;
            }
            locked[c.index()] = true;
            log.push((c, prev));
            cum += bg;
            if cfg.balanced(engine.areas()) && best.is_none_or(|(b, _)| cum > b) {
                best = Some((cum, log.len()));
            }
            // A tripped budget or injected fault abandons the rest of the
            // pass; the rollback below still restores the best balanced
            // prefix, so interruption only costs unexplored moves.
            if clock.tick_move().is_some() {
                break;
            }
            // Re-key every unlocked cell on a net whose endpoint counts
            // changed, plus anything deferred on area limits — collected in
            // the same first-seen order as the bucket pass so both
            // strategies reposition equal-key cells identically.
            touched.clear();
            for (i, &nt) in nets.iter().enumerate() {
                if engine.net_counts(nt) == before[i] {
                    continue;
                }
                for &t in csr.cells_of(nt) {
                    if t == c || locked[t.index()] {
                        continue;
                    }
                    if !in_touched[t.index()] {
                        in_touched[t.index()] = true;
                        touched.push(t.0);
                    }
                }
            }
            for d in deferred.drain(..) {
                if !locked[d.index()] && !in_touched[d.index()] {
                    in_touched[d.index()] = true;
                    touched.push(d.0);
                }
            }
            drained_retry = false;
            for &t in &touched {
                in_touched[t as usize] = false;
                push_best!(CellId(t));
            }
        }

        let keep = best.map_or(0, |(_, k)| k);
        let applied = log.len() as u64;
        for (c, prev) in log.drain(keep..).rev() {
            engine.set_state(c, prev);
        }
        PassOutcome {
            improvement: best.map_or(0, |(g, _)| g),
            any_balanced: best.is_some(),
            selects,
            scans,
            repairs,
            retried,
            applied,
            kept: keep as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::lazy_heap::run_pass_heap;
    use super::*;
    use crate::budget::Budget;
    use crate::fault::FaultPlan;
    use netpart_hypergraph::{AdjacencyMatrix, CellKind, HypergraphBuilder};
    use netpart_netlist::{generate, GeneratorConfig};
    use netpart_techmap::{map, MapperConfig};
    use netpart_verify::gen;

    /// The production bucket pass and the lazy-heap reference.
    const PASSES: [(&str, PassFn); 2] = [("buckets", run_pass_buckets), ("heap", run_pass_heap)];

    /// [`bipartition`] with every FM pass run through `pass`.
    fn bipartition_with_pass(
        hg: &Hypergraph,
        cfg: &BipartitionConfig,
        pass: PassFn,
    ) -> BipartitionResult {
        let clock = RunClock::new(&cfg.budget, &cfg.fault);
        flat_run(hg, cfg, None, &clock, pass)
    }

    fn mapped(gates: usize, dffs: usize, seed: u64) -> netpart_hypergraph::Hypergraph {
        let nl = generate(&GeneratorConfig::new(gates).with_dff(dffs).with_seed(seed));
        map(&nl, &MapperConfig::xc3000())
            .unwrap()
            .to_hypergraph(&nl)
    }

    /// A circuit where cell `D` has two input pins on the same net `na`
    /// — the case [`crate::gain::extract_vectors`] rejects, so every
    /// gain for `D` must come from the engine's per-net accounting.
    fn shared_net_circuit() -> (Hypergraph, CellId) {
        let mut b = HypergraphBuilder::new();
        let pa = b.add_cell("a", CellKind::input_pad(), 0, 1, AdjacencyMatrix::pad());
        let pb = b.add_cell("b", CellKind::input_pad(), 0, 1, AdjacencyMatrix::pad());
        let d = b.add_cell(
            "D",
            CellKind::logic(1),
            2,
            2,
            AdjacencyMatrix::from_rows(2, &[&[0, 1], &[0, 1]]),
        );
        let e = b.add_cell(
            "E",
            CellKind::logic(1),
            2,
            1,
            AdjacencyMatrix::from_rows(2, &[&[0, 1]]),
        );
        let na = b.add_net("na");
        let nb = b.add_net("nb");
        let nx = b.add_net("nx");
        let ny = b.add_net("ny");
        let nz = b.add_net("nz");
        b.connect_output(na, pa, 0).unwrap();
        b.connect_output(nb, pb, 0).unwrap();
        // Both inputs of D ride the same net.
        b.connect_input(na, d, 0).unwrap();
        b.connect_input(na, d, 1).unwrap();
        b.connect_output(nx, d, 0).unwrap();
        b.connect_output(ny, d, 1).unwrap();
        b.connect_input(nx, e, 0).unwrap();
        b.connect_input(nb, e, 1).unwrap();
        b.connect_output(nz, e, 0).unwrap();
        let py = b.add_cell("Y", CellKind::output_pad(), 1, 0, AdjacencyMatrix::pad());
        let pz = b.add_cell("Z", CellKind::output_pad(), 1, 0, AdjacencyMatrix::pad());
        b.connect_input(ny, py, 0).unwrap();
        b.connect_input(nz, pz, 0).unwrap();
        (b.finish().unwrap(), d)
    }

    #[test]
    fn fm_improves_over_random() {
        let hg = mapped(300, 20, 1);
        let cfg = BipartitionConfig::equal(&hg, 0.1).with_seed(3);
        let initial = {
            let (mut sides, mut order) = (Vec::new(), Vec::new());
            initial_sides(&CsrGraph::build(&hg), &cfg, &mut sides, &mut order);
            EngineState::new(&hg, &sides).cut()
        };
        let res = bipartition(&hg, &cfg);
        assert!(res.balanced, "result must satisfy the area window");
        assert!(
            res.cut < initial,
            "FM should improve the random cut ({initial} → {})",
            res.cut
        );
        let p = res.placement.expect("no replication → placement exists");
        assert_eq!(p.cut_size(&hg), res.cut);
    }

    #[test]
    fn functional_replication_cuts_less_or_equal() {
        let hg = mapped(400, 30, 2);
        let base = BipartitionConfig::equal(&hg, 0.1).with_seed(5);
        let plain = bipartition(&hg, &base);
        let repl = bipartition(
            &hg,
            &base
                .clone()
                .with_replication(ReplicationMode::functional(0)),
        );
        assert!(plain.balanced && repl.balanced);
        assert!(
            repl.cut <= plain.cut,
            "replication must not hurt: {} vs {}",
            repl.cut,
            plain.cut
        );
        let p = repl.placement.expect("functional placements export");
        p.validate(&hg).unwrap();
        assert_eq!(p.cut_size(&hg), repl.cut);
    }

    #[test]
    fn traditional_mode_runs_and_reports() {
        let hg = mapped(200, 10, 7);
        let cfg = BipartitionConfig::equal(&hg, 0.1)
            .with_seed(1)
            .with_replication(ReplicationMode::Traditional);
        let res = bipartition(&hg, &cfg);
        assert!(res.balanced);
        if res.replicated_cells > 0 {
            assert!(res.placement.is_none());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let hg = mapped(250, 15, 9);
        let cfg = BipartitionConfig::equal(&hg, 0.1)
            .with_seed(11)
            .with_replication(ReplicationMode::functional(1));
        let a = bipartition(&hg, &cfg);
        let b = bipartition(&hg, &cfg);
        assert_eq!(a.cut, b.cut);
        assert_eq!(a.areas, b.areas);
        assert_eq!(a.replicated_cells, b.replicated_cells);
    }

    #[test]
    fn shared_net_pins_partition_without_repairs() {
        // Regression for the old `debug_assert_eq!(realized, e.gain)`:
        // cells with two pins on one net fall outside the eq. 7 vector
        // model, so a selection structure that mispredicted their gains
        // would silently apply mis-prioritized moves in release builds.
        // With per-net exact accounting no repair may ever fire, in any
        // replication mode, in the bucket pass or the heap reference.
        let (hg, d) = shared_net_circuit();
        let e = crate::gain::extract_vectors(&hg, &EngineState::new(&hg, &[0; 6]), d);
        assert!(e.is_none(), "fixture must hit the extract_vectors reject");
        for (label, pass) in PASSES {
            for mode in [
                ReplicationMode::None,
                ReplicationMode::Traditional,
                ReplicationMode::functional(0),
            ] {
                let cfg = BipartitionConfig::bounded([0, 0], [hg.total_area(), hg.total_area()])
                    .with_seed(3)
                    .with_replication(mode);
                let res = bipartition_with_pass(&hg, &cfg, pass);
                assert_eq!(res.gain_repairs, 0, "stale gain under {label}/{mode:?}");
                assert!(res.balanced);
                if let Some(p) = &res.placement {
                    p.validate(&hg).unwrap();
                    assert_eq!(p.cut_size(&hg), res.cut);
                }
            }
        }
    }

    #[test]
    fn apply_exact_rolls_back_on_divergence() {
        // The repair primitive itself: a wrong expected gain must leave
        // the engine byte-identical instead of applying the move under
        // a wrong priority (what release builds did before).
        let (hg, d) = shared_net_circuit();
        let sides = vec![0, 0, 0, 1, 1, 1];
        let mut engine = EngineState::new(&hg, &sides);
        let cut0 = engine.cut();
        let st0 = engine.cell_state(d);
        let mv = CellState::Single { side: 1 };
        let true_gain = engine.peek_gain(d, mv);
        assert_eq!(
            apply_exact(&mut engine, d, mv, true_gain + 1),
            Err(true_gain),
            "diverging prediction must be rejected with the realized gain"
        );
        assert_eq!(engine.cut(), cut0);
        assert_eq!(engine.cell_state(d), st0);
        assert!(engine.validate(), "rollback must restore every counter");
        assert_eq!(apply_exact(&mut engine, d, mv, true_gain), Ok(true_gain));
        assert_eq!(engine.cell_state(d), mv);
        assert!(engine.validate());
    }

    #[test]
    fn deferred_cells_get_a_drain_retry() {
        // Two logic cells in a cycle, both on side 0, with side 1 capped
        // at zero area: every candidate move is area-illegal, so both
        // cells land in `deferred` and the ladder drains without one
        // applied move — exactly the case where deferred cells used to
        // be silently dropped. The retry must re-examine each once and
        // leave the engine untouched.
        let mut b = HypergraphBuilder::new();
        let c0 = b.add_cell("c0", CellKind::logic(1), 1, 1, AdjacencyMatrix::full(1, 1));
        let c1 = b.add_cell("c1", CellKind::logic(1), 1, 1, AdjacencyMatrix::full(1, 1));
        let n0 = b.add_net("n0");
        let n1 = b.add_net("n1");
        b.connect_output(n0, c0, 0).unwrap();
        b.connect_input(n0, c1, 0).unwrap();
        b.connect_output(n1, c1, 0).unwrap();
        b.connect_input(n1, c0, 0).unwrap();
        let hg = b.finish().unwrap();
        for (label, pass) in PASSES {
            // A tight `u_i·c_i` ceiling: side 1 admits no area at all.
            let cfg = BipartitionConfig::bounded([0, 0], [hg.total_area(), 0]);
            let mut engine = EngineState::new(&hg, &[0, 0]);
            let cut0 = engine.cut();
            let clock = RunClock::new(&Budget::none(), &FaultPlan::none());
            let out = pass(&mut engine, &cfg, &mut PassScratch::default(), &clock);
            assert_eq!(out.retried, 2, "{label}: both deferred cells retried once");
            assert_eq!(out.applied, 0);
            assert_eq!(out.repairs, 0);
            assert_eq!(engine.cut(), cut0, "pass must not corrupt the state");
            assert!(engine.validate());
        }
    }

    #[test]
    fn strategies_agree_on_quality_and_never_repair() {
        // The heap reference replicates the bucket ladder's selection
        // policy exactly (ordering, legality re-keying, deferral), so
        // both passes must elect identical solutions — not merely
        // comparable ones — with zero stale-gain repairs across all
        // replication modes on a real mapped circuit. The
        // certificate-level equivalence is the next test.
        let hg = mapped(350, 25, 6);
        for mode in [
            ReplicationMode::None,
            ReplicationMode::Traditional,
            ReplicationMode::functional(1),
        ] {
            let base = BipartitionConfig::equal(&hg, 0.1)
                .with_seed(13)
                .with_replication(mode);
            let buckets = bipartition(&hg, &base);
            let heap = bipartition_with_pass(&hg, &base, run_pass_heap);
            for (label, r) in [("buckets", &buckets), ("heap", &heap)] {
                assert!(r.balanced, "{label} unbalanced under {mode:?}");
                assert_eq!(r.gain_repairs, 0, "{label} repaired under {mode:?}");
                if let Some(p) = &r.placement {
                    assert_eq!(p.cut_size(&hg), r.cut, "{label} cut mismatch");
                }
            }
            assert_eq!(buckets.cut, heap.cut, "passes diverged under {mode:?}");
            assert_eq!(buckets.areas, heap.areas, "areas diverged under {mode:?}");
            assert_eq!(
                buckets.replicated_cells, heap.replicated_cells,
                "replication diverged under {mode:?}"
            );
            assert_eq!(
                buckets.placement, heap.placement,
                "placements diverged under {mode:?}"
            );
        }
    }

    /// The pinned differential seed matrix (DESIGN.md §10); change it
    /// together with the cross-references there.
    const SEEDS: [u64; 3] = [11, 29, 47];

    #[test]
    fn gain_buckets_and_lazy_heap_are_certificate_identical() {
        // Both passes select identical move sequences (LIFO +
        // lowest-cell-id tie order), so every start of a three-start
        // portfolio — not only its winner — serializes to the same
        // certificate bytes.
        for seed in SEEDS {
            let hg = gen::mapped(350, 30, seed);
            for mode in [ReplicationMode::None, ReplicationMode::functional(0)] {
                for start in 0..3 {
                    let cfg = BipartitionConfig::equal(&hg, 0.1)
                        .with_seed(seed + start)
                        .with_replication(mode);
                    let [buckets, heap] = PASSES.map(|(_, pass)| {
                        bipartition_with_pass(&hg, &cfg, pass)
                            .certificate(&hg, cfg.seed)
                            .expect("placement exports")
                            .to_text()
                    });
                    assert_eq!(
                        buckets, heap,
                        "passes diverged at seed {seed}, start {start}, {mode:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn quiet_net_skip_keeps_high_fanout_runs_identical() {
        // Rent circuits whose largest net has over 100 pins: the bucket
        // pass skips the walk of quiet nets and rebuilds the walk's
        // repositioning order, while the heap reference walks every
        // changed net. Runs must stay certificate-identical, and the
        // skip must actually fire.
        for seed in SEEDS {
            let nl = generate(
                &GeneratorConfig::new(1000)
                    .with_dff(50)
                    .with_rent(0.65)
                    .with_seed(seed),
            );
            let hg = map(&nl, &MapperConfig::xc3000())
                .unwrap()
                .to_hypergraph(&nl);
            let widest = hg.net_ids().map(|nt| hg.net(nt).endpoints().count()).max();
            assert!(widest > Some(100), "seed {seed}: no net over 100 pins");
            for mode in [
                ReplicationMode::None,
                ReplicationMode::functional(0),
                ReplicationMode::Traditional,
            ] {
                // A growth cap makes replication candidates illegal while
                // moves stay legal, so popped cells get re-keyed below
                // their best candidate and keep that key until touched.
                let cfg = BipartitionConfig::equal(&hg, 0.1)
                    .with_seed(seed)
                    .with_replication(mode)
                    .with_max_growth(mode.replicates().then_some(8));
                let skips0 = QUIET_SKIPS.with(|q| q.get());
                let stops0 = BOUND_STOPS.with(|s| s.get());
                let buckets = bipartition_with_pass(&hg, &cfg, run_pass_buckets);
                let skipped = QUIET_SKIPS.with(|q| q.get()) - skips0;
                assert!(skipped > 0, "seed {seed}, {mode:?}: no quiet net skipped");
                let stopped = BOUND_STOPS.with(|s| s.get()) - stops0;
                assert!(stopped > 0, "seed {seed}, {mode:?}: no pass ended early");
                let heap = bipartition_with_pass(&hg, &cfg, run_pass_heap);
                assert_eq!(buckets.gain_repairs + heap.gain_repairs, 0);
                if mode == ReplicationMode::Traditional {
                    assert_eq!(buckets.cut, heap.cut, "cut diverged at seed {seed}");
                    assert_eq!(buckets.areas, heap.areas, "areas diverged at seed {seed}");
                    assert_eq!(buckets.replicated_cells, heap.replicated_cells);
                    assert_eq!(
                        buckets.placement, heap.placement,
                        "placements diverged at seed {seed}"
                    );
                    continue;
                }
                let [buckets, heap] = [buckets, heap].map(|r| {
                    r.certificate(&hg, cfg.seed)
                        .expect("placement exports")
                        .to_text()
                });
                assert_eq!(buckets, heap, "passes diverged at seed {seed}, {mode:?}");
            }
        }
    }

    #[test]
    fn carve_configurations_are_certificate_identical() {
        // The two bipartition shapes of a k-way carve step
        // (`kway::carve_once`): every device window that fits inside the
        // circuit, with pads weighted out of the chunk, and ±10% halving.
        // Both are growth-capped, with functional replication at T = 0.
        let lib = netpart_fpga::DeviceLibrary::xc3000();
        let mut replicated = 0;
        let stops0 = BOUND_STOPS.with(|s| s.get());
        for seed in SEEDS {
            let hg = gen::mapped(350, 30, seed);
            let area = hg.total_area();
            let mut shapes: Vec<([u64; 2], [u64; 2], [i64; 2])> = (0..lib.len())
                .map(|i| lib.device(i))
                .filter(|d| d.min_clbs() <= (area - 1).min(d.max_clbs()))
                .map(|d| {
                    (
                        [d.min_clbs(), 0],
                        [d.max_clbs().min(area - 1), area],
                        [1, 0],
                    )
                })
                .collect();
            assert!(
                shapes.len() >= 2,
                "seed {seed}: area {area} fits few windows"
            );
            let lo = (area as f64 / 2.0 * 0.9).floor() as u64;
            let hi = (area as f64 / 2.0 * 1.1).ceil() as u64;
            shapes.push(([lo, lo], [hi, hi], [0, 0]));
            for (min, max, weight) in shapes {
                let cfg = BipartitionConfig::bounded(min, max)
                    .with_seed(seed)
                    .with_replication(ReplicationMode::functional(0))
                    .with_terminal_weight(weight)
                    .with_max_growth(Some((area / 16).max(4)));
                let [buckets, heap] =
                    PASSES.map(|(_, pass)| bipartition_with_pass(&hg, &cfg, pass));
                assert_eq!(buckets.gain_repairs + heap.gain_repairs, 0);
                replicated += buckets.replicated_cells;
                let [buckets, heap] = [buckets, heap].map(|r| {
                    r.certificate(&hg, cfg.seed)
                        .expect("placement exports")
                        .to_text()
                });
                assert_eq!(buckets, heap, "seed {seed}, window {min:?}..{max:?}");
            }
        }
        assert!(replicated > 0, "no carve run kept a replica");
        assert!(
            BOUND_STOPS.with(|s| s.get()) > stops0,
            "no carve pass ended early"
        );
    }

    #[test]
    fn a_net_dies_only_while_its_driver_reaches_one_side() {
        // D drives nx, which E reads; both are locked, E on side 1. D
        // single on side 0, or functionally split with nx's output kept
        // on side 0, leaves nx cut for the rest of the pass. A split
        // that drives nx from side 1 uncuts it, and a traditional
        // replica drives it on both sides: neither may count it dead.
        let (hg, d) = shared_net_circuit();
        let e = CellId(3);
        let split = |replica_mask| CellState::Functional {
            orig_side: 0,
            replica_mask,
        };
        for (state, want) in [
            (CellState::Single { side: 0 }, 1),
            (split(0b10), 1),
            (split(0b01), 0),
            (CellState::Traditional { orig_side: 0 }, 0),
        ] {
            let mut engine = EngineState::new(&hg, &[0, 0, 0, 1, 1, 1]);
            engine.set_state(d, state);
            let csr = engine.csr().clone();
            let mut dead = DeadNets::default();
            dead.reset(csr.n_nets());
            dead.lock(&engine, &csr, e);
            assert_eq!(dead.count, 0, "{state:?}: D is not locked yet");
            dead.lock(&engine, &csr, d);
            assert_eq!(dead.count, want, "{state:?}");
        }
    }

    #[test]
    fn a_pass_the_bound_ends_keeps_the_drained_outcome() {
        // Both passes run from the same engine state, pass after pass:
        // the heap reference drains the ladder, the bucket pass may stop
        // at the dead-net bound. Their improvement, kept prefix and
        // balance must agree, and so must the states they leave, while
        // the bucket pass applies fewer moves. Shapes: a device carve
        // (pads weighted out of the chunk) and traditional replication,
        // whose replicas drive both sides of their output nets, under a
        // growth cap: uncapped, a pass can replicate its way below the
        // best balanced objective, and no pass ends early.
        let hg = gen::mapped(350, 30, SEEDS[0]);
        let area = hg.total_area();
        let carve = BipartitionConfig::bounded([area / 4, 0], [area / 3, area])
            .with_terminal_weight([1, 0])
            .with_replication(ReplicationMode::functional(0));
        let traditional = BipartitionConfig::equal(&hg, 0.1)
            .with_replication(ReplicationMode::Traditional)
            .with_max_growth(Some(8));
        let clock = RunClock::new(&Budget::none(), &FaultPlan::none());
        for (label, cfg) in [("carve", carve), ("traditional", traditional)] {
            let cfg = cfg.with_seed(SEEDS[0]);
            let (mut sides, mut order) = (Vec::new(), Vec::new());
            initial_sides(&CsrGraph::build(&hg), &cfg, &mut sides, &mut order);
            let mut engine = EngineState::new_weighted(&hg, &sides, cfg.terminal_weight);
            let (mut scratch, mut heap_scratch) = (PassScratch::default(), PassScratch::default());
            let (mut applied, mut drained, mut stopped) = (0, 0, 0);
            for pass in 1..=cfg.max_passes {
                let mut reference = engine.clone();
                let stops0 = BOUND_STOPS.with(|s| s.get());
                let out = run_pass_buckets(&mut engine, &cfg, &mut scratch, &clock);
                stopped += BOUND_STOPS.with(|s| s.get()) - stops0;
                let heap = run_pass_heap(&mut reference, &cfg, &mut heap_scratch, &clock);
                assert_eq!(
                    (out.improvement, out.kept, out.any_balanced),
                    (heap.improvement, heap.kept, heap.any_balanced),
                    "{label}, pass {pass}"
                );
                assert!(out.applied <= heap.applied, "{label}, pass {pass}");
                assert_eq!(engine.cut(), reference.cut(), "{label}, pass {pass}");
                assert!(
                    hg.cell_ids()
                        .all(|c| engine.cell_state(c) == reference.cell_state(c)),
                    "{label}, pass {pass}: the kept prefixes differ"
                );
                applied += out.applied;
                drained += heap.applied;
                if out.improvement <= 0 {
                    break;
                }
            }
            assert!(stopped > 0, "{label}: no pass ended early");
            assert!(applied < drained, "{label}: {applied} vs {drained} moves");
        }
    }

    #[test]
    fn respects_asymmetric_bounds() {
        let hg = mapped(300, 0, 4);
        let total = hg.total_area();
        let chunk = total / 4;
        let cfg = BipartitionConfig::bounded([0, 0], [chunk, total]).with_seed(2);
        let res = bipartition(&hg, &cfg);
        assert!(res.areas[0] <= chunk);
        assert!(res.balanced);
    }
}
