//! Integration suite for the multilevel V-cycle: contraction
//! exactness, ψ-guard policy, flat-path identity, and end-to-end
//! certificate round-trips through the independent verifier.

use netpart_core::{bipartition, BipartitionConfig, KWayConfig, ReplicationMode};
use netpart_fpga::DeviceLibrary;
use netpart_hypergraph::{Hypergraph, PartId, Placement};
use netpart_multilevel::{build_chain, ml_bipartition, ml_kway_partition, MultilevelConfig};
use netpart_rng::Rng;
use netpart_verify::gen;

/// A chain-friendly configuration: coarsening engages even on the
/// small circuits the test suite can afford.
fn small_ml() -> MultilevelConfig {
    MultilevelConfig::new()
        .with_min_cells(48)
        .with_max_levels(8)
}

fn random_sides(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n).map(|_| u8::from(rng.gen_bool(0.5))).collect()
}

/// The cut of a side assignment, as [`Placement::cut_size`] counts it.
fn cut_of(hg: &Hypergraph, sides: &[u8]) -> usize {
    let mut pl = Placement::new_uniform(hg, 2, PartId(0));
    for c in hg.cell_ids() {
        pl.place(c, PartId(u16::from(sides[c.index()])));
    }
    pl.cut_size(hg)
}

#[test]
fn contraction_conserves_area_and_cut_exactly() {
    let hg = gen::mapped(900, 60, 5);
    let chain = build_chain(&hg, &small_ml(), ReplicationMode::None, 5);
    assert!(chain.len() >= 2, "test circuit should coarsen repeatedly");
    let mut fine: &Hypergraph = &hg;
    for (li, level) in chain.iter().enumerate() {
        assert_eq!(
            level.hg.total_area(),
            fine.total_area(),
            "area not conserved at level {li}"
        );
        assert!(level.hg.n_cells() < fine.n_cells());
        // Any coarse side assignment projects to a fine assignment with
        // the *same* cut: dropped nets are internal, kept nets map 1:1.
        for s in 0..4u64 {
            let coarse_sides = random_sides(level.hg.n_cells(), 1000 + s);
            let fine_sides = level.project_sides(&coarse_sides);
            assert_eq!(
                cut_of(&level.hg, &coarse_sides),
                cut_of(fine, &fine_sides),
                "cut accounting diverged at level {li}, sample {s}"
            );
        }
        fine = &level.hg;
    }
}

#[test]
fn contracted_nets_always_span_two_cells() {
    let hg = gen::mapped(600, 40, 9);
    let chain = build_chain(&hg, &small_ml(), ReplicationMode::None, 9);
    assert!(!chain.is_empty());
    let mut fine: &Hypergraph = &hg;
    for level in &chain {
        for n in level.hg.net_ids() {
            let mut cells: Vec<u32> = level.hg.net(n).endpoints().map(|e| e.cell.0).collect();
            cells.sort_unstable();
            cells.dedup();
            assert!(cells.len() >= 2, "coarse net {n} does not span two cells");
        }
        // Every fine net that spans two clusters becomes a coarse net;
        // the others (single-endpoint or contracted-internal) do not.
        let kept = fine
            .nets()
            .iter()
            .filter(|net| {
                let mut clusters: Vec<u32> = net
                    .endpoints()
                    .map(|e| level.cell_map[e.cell.index()])
                    .collect();
                clusters.sort_unstable();
                clusters.dedup();
                clusters.len() >= 2
            })
            .count();
        assert_eq!(kept, level.hg.n_nets());
        fine = &level.hg;
    }
}

#[test]
fn psi_guarded_cells_survive_coarsening_unmerged() {
    // Threshold 4 guards the top of the ψ distribution (~25% of the
    // logic cells on this circuit) while leaving the matcher enough
    // unguarded material to make progress; lower thresholds guard so
    // much of an XC3000-mapped graph that coarsening (correctly)
    // refuses to run.
    let hg = gen::mapped(700, 50, 3);
    let threshold = 4u32;
    let mode = ReplicationMode::functional(threshold);
    let chain = build_chain(&hg, &small_ml(), mode, 3);
    assert!(!chain.is_empty());
    let level = &chain[0];
    assert!(level.guarded > 0, "suite circuits have ψ ≥ 1 candidates");
    let mut cluster_size = vec![0usize; level.hg.n_cells()];
    for &cc in &level.cell_map {
        cluster_size[cc as usize] += 1;
    }
    for (i, cell) in hg.cells().iter().enumerate() {
        let psi = cell.replication_potential();
        if !cell.is_terminal() && psi > 0 && psi >= threshold as usize {
            assert_eq!(
                cluster_size[level.cell_map[i] as usize],
                1,
                "guarded cell {} (ψ = {psi}) was matched away",
                cell.name()
            );
        }
    }
}

#[test]
fn psi_guard_stall_falls_back_to_unguarded_coarsening() {
    use netpart_core::RunClock;
    use netpart_multilevel::ml_bipartition_with_clock;
    use netpart_obs::{BufferRecorder, Value};
    use std::sync::Arc;

    // Threshold 1 guards nearly every multi-output logic cell of an
    // XC3000-mapped circuit — a replication-heavy synthetic on which
    // the guarded matcher makes no useful progress. The chain used to
    // come out empty (a silent stall to the flat path); now the level
    // must fall back to coarsening with the candidates mergeable, and
    // say so with a `ml.coarsen_stalled` event.
    let hg = gen::mapped(700, 50, 3);
    let ml = small_ml();
    let mode = ReplicationMode::functional(1);
    // The fallback makes the chain real.
    let chain = build_chain(&hg, &ml, mode, 3);
    assert!(!chain.is_empty(), "stall fallback must produce a chain");
    assert!(chain[0].hg.n_cells() < hg.n_cells());
    // And the stall is reported, not silent. The first level's guarded
    // matching pairs 13 of the 464 cells, too few to get under the ratio
    // floor, and the event carries that count.
    let cfg = BipartitionConfig::equal(&hg, 0.1)
        .with_seed(3)
        .with_replication(mode);
    let buffer = Arc::new(BufferRecorder::new());
    let clock = RunClock::new(&cfg.budget, &cfg.fault).with_recorder(buffer.clone());
    let res = ml_bipartition_with_clock(&hg, &cfg, &ml, &clock);
    assert!(res.balanced);
    let events = buffer.take();
    let stalls: Vec<_> = events
        .iter()
        .filter(|e| e.scope == "ml" && e.name == "coarsen_stalled")
        .map(|e| e.fields.clone())
        .collect();
    assert_eq!(
        stalls,
        [vec![
            ("level", Value::U64(1)),
            ("cells", Value::U64(464)),
            ("matched_guarded", Value::U64(13)),
        ]],
        "ml.coarsen_stalled events among {} events",
        events.len()
    );
}

/// Each level's `(cells, nets, FNV-1a of cell_map)`. Both chains end on
/// the ratio floor: the next matching pairs too few cells (17 of 220,
/// and 14 of 151), so it is rejected without being contracted. The
/// second circuit is the ψ-stall circuit above, whose first level is
/// matched again with the guard off.
#[test]
fn coarsening_chain_is_pinned() {
    use netpart_rng::Fnv1a;

    let ml = small_ml();
    let chain_of = |hg: &Hypergraph, mode: ReplicationMode, seed: u64| {
        let chain = build_chain(hg, &ml, mode, seed);
        // Neither the level cap nor the cell floor ended the chain.
        assert!(chain.len() < ml.max_levels);
        assert!(chain[chain.len() - 1].hg.n_cells() >= ml.min_cells);
        chain
            .iter()
            .map(|l| {
                let mut h = Fnv1a::new();
                for &c in &l.cell_map {
                    h.write(&c.to_le_bytes());
                }
                (l.hg.n_cells(), l.hg.n_nets(), h.finish())
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(
        chain_of(&gen::mapped(1200, 80, 7), ReplicationMode::None, 7),
        [
            (499, 967, 0xfd89_08db_7203_c084),
            (348, 733, 0x6375_f78a_8ecf_e329),
            (265, 528, 0x1dd0_9a89_98ae_073a),
            (220, 365, 0x4b89_1e7c_f564_caab),
        ]
    );
    assert_eq!(
        chain_of(&gen::mapped(700, 50, 3), ReplicationMode::functional(1), 3),
        [
            (305, 526, 0x5caf_bd2c_3323_2748),
            (221, 392, 0x2833_3ad7_d6b4_d850),
            (172, 273, 0xe369_2110_e992_3545),
            (151, 227, 0x4cdb_c06f_dbe0_fe57),
        ]
    );
}

#[test]
fn disabled_multilevel_is_flat_identical() {
    for seed in [11u64, 29, 47] {
        let hg = gen::mapped(350, 30, seed);
        let cfg = BipartitionConfig::equal(&hg, 0.1)
            .with_seed(seed)
            .with_replication(ReplicationMode::functional(0));
        let flat = bipartition(&hg, &cfg);
        // Both `max_levels = 0` and a too-small circuit degenerate to
        // the flat path *verbatim* — certificate bytes included.
        for ml in [
            MultilevelConfig::disabled(),
            MultilevelConfig::new().with_min_cells(1_000_000),
        ] {
            let multi = ml_bipartition(&hg, &cfg, &ml);
            let (a, b) = (
                flat.certificate(&hg, cfg.seed).expect("exports").to_text(),
                multi.certificate(&hg, cfg.seed).expect("exports").to_text(),
            );
            assert_eq!(a, b, "flat/multilevel diverged at seed {seed}");
        }
    }
}

#[test]
fn ml_bipartition_certificate_verifies_and_beats_projection() {
    let hg = gen::mapped(1200, 80, 7);
    let cfg = BipartitionConfig::equal(&hg, 0.1)
        .with_seed(7)
        .with_replication(ReplicationMode::functional(0));
    let res = ml_bipartition(&hg, &cfg, &small_ml());
    assert!(res.balanced, "multilevel result must satisfy the window");
    let pl = res.placement.as_ref().expect("exports a placement");
    assert_eq!(pl.cut_size(&hg), res.cut);
    let cert = res.certificate(&hg, cfg.seed).expect("exports");
    let report = netpart_verify::verify(&hg, &cert);
    assert!(report.is_clean(), "verifier rejected: {report:?}");
}

/// The V-cycle's exact output: the `ml.level` refined cuts, coarsest
/// rung first, and an FNV-1a digest of the certificate text, without
/// and with replication at level 0. Every coarse-level move is the
/// boundary refiner's, so a refiner change that moves a single cell
/// differently shows here. On the first circuit the refiner keeps
/// every projection; on the second it improves each coarse rung.
#[test]
fn vcycle_output_is_pinned() {
    use netpart_core::RunClock;
    use netpart_multilevel::ml_bipartition_with_clock;
    use netpart_obs::{BufferRecorder, Value};
    use netpart_rng::Fnv1a;
    use std::sync::Arc;

    let cases: [(u64, ReplicationMode, &[u64], u64); 4] = [
        (
            7,
            ReplicationMode::None,
            &[10, 10, 10, 10],
            0xb131_2b6e_81ff_0183,
        ),
        (
            7,
            ReplicationMode::functional(2),
            &[10, 10, 10, 7],
            0xcc5b_8038_d835_bba0,
        ),
        (
            3,
            ReplicationMode::None,
            &[10, 9, 8, 8],
            0x2a8b_5f45_25b8_a59c,
        ),
        (
            3,
            ReplicationMode::functional(2),
            &[10, 9, 8, 5],
            0x3278_2088_4f99_aafb,
        ),
    ];
    for (seed, mode, want_cuts, want_digest) in cases {
        let hg = gen::mapped(1200, 80, seed);
        let cfg = BipartitionConfig::equal(&hg, 0.1)
            .with_seed(7)
            .with_replication(mode);
        let buffer = Arc::new(BufferRecorder::new());
        let clock = RunClock::new(&cfg.budget, &cfg.fault).with_recorder(buffer.clone());
        let res = ml_bipartition_with_clock(&hg, &cfg, &small_ml(), &clock);
        let cuts: Vec<u64> = buffer
            .take()
            .iter()
            .filter(|e| e.scope == "ml" && e.name == "level")
            .filter_map(
                |e| match e.fields.iter().find(|(k, _)| *k == "refined_cut") {
                    Some((_, Value::U64(cut))) => Some(*cut),
                    _ => None,
                },
            )
            .collect();
        assert_eq!(cuts, want_cuts, "refined cuts, circuit {seed}, {mode:?}");
        let mut h = Fnv1a::new();
        let cert = res.certificate(&hg, cfg.seed).expect("exports");
        h.write(cert.to_text().as_bytes());
        assert_eq!(
            h.finish(),
            want_digest,
            "certificate digest, circuit {seed}, {mode:?}"
        );
    }
}

/// The V-cycle carries its cut instead of recounting it: each
/// `ml.level` rung's `projected_cut` is the previous rung's
/// `refined_cut`, the first is the coarsest-level FM's `fm.done` cut,
/// and level 0's `refined_cut` is the result's cut, which is its
/// placement's. Contraction is exact, so a recount of each projection
/// gives the same numbers.
#[test]
fn vcycle_carries_each_rungs_cut_to_the_next() {
    use netpart_core::RunClock;
    use netpart_multilevel::ml_bipartition_with_clock;
    use netpart_obs::{BufferRecorder, Event, Value};
    use std::sync::Arc;

    let field = |e: &Event, key: &str| match e.fields.iter().find(|(k, _)| *k == key) {
        Some((_, Value::U64(v))) => *v,
        other => panic!("{}.{} has no {key}: {other:?}", e.scope, e.name),
    };
    let hg = gen::mapped(1200, 80, 3);
    let levels = build_chain(&hg, &small_ml(), ReplicationMode::None, 7).len();
    assert!(levels >= 2, "test circuit should coarsen repeatedly");
    for mode in [ReplicationMode::None, ReplicationMode::functional(2)] {
        let cfg = BipartitionConfig::equal(&hg, 0.1)
            .with_seed(7)
            .with_replication(mode);
        let buffer = Arc::new(BufferRecorder::new());
        let clock = RunClock::new(&cfg.budget, &cfg.fault).with_recorder(buffer.clone());
        let res = ml_bipartition_with_clock(&hg, &cfg, &small_ml(), &clock);
        let events = buffer.take();
        let coarsest = events
            .iter()
            .find(|e| e.scope == "fm" && e.name == "done")
            .expect("the coarsest level runs the flat engine");
        let rungs: Vec<&Event> = events
            .iter()
            .filter(|e| e.scope == "ml" && e.name == "level")
            .collect();
        let order: Vec<u64> = rungs.iter().map(|e| field(e, "level")).collect();
        let want: Vec<u64> = (0..levels as u64).rev().collect();
        assert_eq!(order, want, "{mode:?}: one rung per level");
        let mut carried = field(coarsest, "cut");
        for e in &rungs {
            let rung = field(e, "level");
            assert_eq!(field(e, "projected_cut"), carried, "{mode:?}, rung {rung}");
            carried = field(e, "refined_cut");
        }
        assert_eq!(carried, res.cut as u64, "{mode:?}: level 0 is the result");
        let pl = res.placement.as_ref().expect("exports a placement");
        assert_eq!(pl.cut_size(&hg), res.cut, "{mode:?}");
    }
}

#[test]
fn ml_quality_is_comparable_to_flat() {
    // Not a strict ≤ (different search trajectories), but the V-cycle
    // must land in the same quality class as flat FM from random.
    let hg = gen::mapped(1500, 90, 13);
    let cfg = BipartitionConfig::equal(&hg, 0.1).with_seed(13);
    let flat = bipartition(&hg, &cfg);
    let multi = ml_bipartition(&hg, &cfg, &small_ml());
    assert!(multi.balanced && flat.balanced);
    assert!(
        (multi.cut as f64) <= (flat.cut as f64) * 1.5 + 8.0,
        "multilevel cut {} far worse than flat {}",
        multi.cut,
        flat.cut
    );
}

#[test]
fn ml_kway_certificate_verifies() {
    let hg = gen::mapped(800, 50, 21);
    let cfg = KWayConfig::new(DeviceLibrary::xc3000())
        .with_candidates(3)
        .with_seed(21);
    let flat = netpart_core::kway_partition(&hg, &cfg).expect("flat k-way solves");
    let res = ml_kway_partition(&hg, &cfg, &small_ml()).expect("ml k-way solves");
    let cert = res.certificate(&hg, &cfg.library, cfg.seed);
    let report = netpart_verify::verify(&hg, &cert);
    assert!(report.is_clean(), "verifier rejected: {report:?}");
    // Same device-cost ballpark as the flat carve.
    assert!(
        res.evaluation.total_cost <= flat.evaluation.total_cost * 2,
        "ml k-way cost {} vs flat {}",
        res.evaluation.total_cost,
        flat.evaluation.total_cost
    );
}

/// Once the circuit coarsens, the k-way V-cycle is move-only, so a
/// replicating request comes back unreplicated and says so; a
/// replication-free request, and a flat run, report nothing.
#[test]
fn ml_kway_reports_the_replication_it_drops() {
    use netpart_core::Relaxation;

    let hg = gen::mapped(800, 50, 21);
    let functional = KWayConfig::new(DeviceLibrary::xc3000())
        .with_candidates(2)
        .with_seed(21)
        .with_replication(ReplicationMode::functional(0));
    let dropped = |res: &netpart_core::KWayResult| {
        res.degradation
            .relaxations
            .contains(&Relaxation::CoarsenedWithoutReplication)
    };
    assert!(!build_chain(&hg, &small_ml(), functional.replication, 21).is_empty());

    let res = ml_kway_partition(&hg, &functional, &small_ml()).expect("ml k-way solves");
    assert!(dropped(&res), "relaxations: {:?}", res.degradation);
    assert!(hg.cell_ids().all(|c| !res.placement.is_replicated(c)));

    let none = functional.clone().with_replication(ReplicationMode::None);
    let res = ml_kway_partition(&hg, &none, &small_ml()).expect("ml k-way solves");
    assert!(!dropped(&res), "relaxations: {:?}", res.degradation);

    let res = ml_kway_partition(&hg, &functional, &MultilevelConfig::disabled())
        .expect("flat k-way solves");
    assert!(!dropped(&res), "relaxations: {:?}", res.degradation);
}

/// Cancels its token when the coarsest-level carve's `ml/initial` span
/// ends, so the clock trips between the carve and the refinement; keeps
/// the rung of every `ml.level` event.
#[derive(Debug)]
struct TripAfterCarve {
    token: netpart_core::CancelToken,
    rungs: std::sync::Mutex<Vec<netpart_obs::Value>>,
}

impl netpart_obs::Recorder for TripAfterCarve {
    fn enabled(&self, _: netpart_obs::Level) -> bool {
        true
    }

    fn record(&self, e: &netpart_obs::Event) {
        let field = |key| e.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v);
        if e.scope != "ml" {
            return;
        }
        if e.name == "span.exit"
            && field("span") == Some(&netpart_obs::Value::Str("initial".into()))
        {
            self.token.cancel();
        }
        if let (true, Some(rung)) = (e.name == "level", field("level")) {
            self.rungs
                .lock()
                .expect("no panic while held")
                .push(rung.clone());
        }
    }
}

/// A tripped clock stops the k-way refinement, not the projection: the
/// result is a placement of the input circuit that verifies, and only
/// the first rung, refined before the clock is read, emits `ml.level`.
#[test]
fn ml_kway_projects_every_level_after_the_clock_trips() {
    use netpart_core::{Budget, CancelToken, FaultPlan, RunClock};
    use netpart_multilevel::ml_kway_partition_with_clock;
    use netpart_obs::Value;
    use std::sync::Arc;

    let hg = gen::mapped(800, 50, 21);
    let cfg = KWayConfig::new(DeviceLibrary::xc3000())
        .with_candidates(2)
        .with_seed(21);
    let levels = build_chain(&hg, &small_ml(), cfg.replication, 21).len() as u64;
    assert!(levels >= 2, "test circuit should coarsen repeatedly");
    let token = CancelToken::new();
    let recorder = Arc::new(TripAfterCarve {
        token: token.clone(),
        rungs: Default::default(),
    });
    let clock = RunClock::with_shared(&Budget::none(), &FaultPlan::none(), None, Some(token))
        .with_recorder(recorder.clone());
    let res = ml_kway_partition_with_clock(&hg, &cfg, &small_ml(), &clock, true)
        .expect("the carve finishes before the clock trips");
    assert_eq!(
        *recorder.rungs.lock().expect("no panic while held"),
        [Value::U64(levels - 1)]
    );
    let cert = res.certificate(&hg, &cfg.library, cfg.seed);
    let report = netpart_verify::verify(&hg, &cert);
    assert!(report.is_clean(), "verifier rejected: {report:?}");
}

/// The boundary refiner is the workhorse of uncoarsening: it must
/// never worsen the cut, must keep a balanced start balanced, must
/// respect the area window on every accepted prefix, and must be a
/// pure function of its inputs (no RNG — determinism is what lets the
/// engine's jobs-invariance contract survive multilevel unchanged).
#[test]
fn boundary_refinement_improves_and_is_deterministic() {
    use netpart_core::{refine_sides, RunClock};

    let hg = gen::mapped(800, 50, 3);
    let cfg = BipartitionConfig::equal(&hg, 0.1);
    let clock = RunClock::new(&cfg.budget, &cfg.fault);
    for seed in [2u64, 7, 19] {
        // Start from a balanced random assignment (retry seeds until
        // the area window admits one — ε = 0.1 makes that common).
        let sides0 = (0..64)
            .map(|k| random_sides(hg.n_cells(), seed * 100 + k))
            .find(|s| {
                let mut areas = [0u64; 2];
                for (ci, cell) in hg.cells().iter().enumerate() {
                    areas[usize::from(s[ci])] += u64::from(cell.area());
                }
                cfg.balanced(areas)
            })
            .expect("some random assignment is balanced");
        let before = cut_of(&hg, &sides0);

        let mut a = sides0.clone();
        let refined = refine_sides(&hg, &cfg, &mut a, 16, &clock);
        assert!(refined.passes >= 1);
        let after = cut_of(&hg, &a);
        assert_eq!(refined.cut, after, "returned cut at seed {seed}");
        assert!(after < before, "no improvement at seed {seed}");
        let mut areas = [0u64; 2];
        for (ci, cell) in hg.cells().iter().enumerate() {
            areas[usize::from(a[ci])] += u64::from(cell.area());
        }
        assert!(cfg.balanced(areas), "refiner broke balance at seed {seed}");

        // Purity: the same input refines to the identical side vector.
        let mut b = sides0.clone();
        refine_sides(&hg, &cfg, &mut b, 16, &clock);
        assert_eq!(a, b, "refinement is not deterministic at seed {seed}");
    }
}

/// `max_passes = 0` is a no-op: the sides come back untouched.
#[test]
fn boundary_refinement_zero_passes_is_identity() {
    use netpart_core::{refine_sides, RunClock};

    let hg = gen::mapped(300, 20, 1);
    let cfg = BipartitionConfig::equal(&hg, 0.2);
    let clock = RunClock::new(&cfg.budget, &cfg.fault);
    let sides0 = random_sides(hg.n_cells(), 4);
    let mut s = sides0.clone();
    let refined = refine_sides(&hg, &cfg, &mut s, 0, &clock);
    assert_eq!(refined.passes, 0);
    assert_eq!(refined.cut, cut_of(&hg, &sides0));
    assert_eq!(s, sides0);
}
