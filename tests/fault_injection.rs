//! Fault-injection and robustness harness.
//!
//! The contract under test: for any malformed input, infeasible library,
//! run budget, or injected mid-run fault, the driver returns either a
//! typed [`PartitionError`] or a usable degraded solution — it never
//! panics. Every engine call here is wrapped in `catch_unwind` so a
//! panic shows up as a test failure naming the kill point, not as a
//! generic abort.

use netpart::core::{kway_partition_with_clock, RunClock};
use netpart::obs::{BufferRecorder, Value};
use netpart::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

fn data_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data")
}

/// A small mapped circuit: big enough for FM to run several passes,
/// small enough that sweeping dozens of kill points stays fast.
fn small_hg(seed: u64) -> Hypergraph {
    let nl = generate(
        &GeneratorConfig::new(400)
            .with_dff(20)
            .with_seed(seed)
            .with_clustering(0.75),
    );
    map(&nl, &MapperConfig::xc3000())
        .expect("generated netlists map")
        .to_hypergraph(&nl)
}

/// Runs `f` and fails the test with `ctx` if it panics.
fn no_panic<T>(ctx: &str, f: impl FnOnce() -> T) -> T {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => v,
        Err(_) => panic!("engine panicked at kill point: {ctx}"),
    }
}

// ---------------------------------------------------------------------
// Malformed-input corpus
// ---------------------------------------------------------------------

/// Every `bad_*.blif` in the corpus parses to a line-numbered typed
/// error; every `good_*.blif` parses cleanly. Neither panics.
#[test]
fn blif_corpus_yields_typed_errors_not_panics() {
    let mut bad = 0;
    let mut good = 0;
    for entry in std::fs::read_dir(data_dir()).expect("tests/data exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("blif") {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).expect("corpus file reads");
        let parsed = no_panic(&name, || parse_blif(&text));
        if name == "bad_empty_model.blif" {
            // Deliberately bad at the *partitioning* stage, not parse:
            // structurally valid BLIF with zero gates. The CLI-level
            // exit-2 behaviour is pinned in tests/cli_exit_codes.rs.
            bad += 1;
            let nl = parsed.unwrap_or_else(|e| panic!("{name} should parse: {e}"));
            assert_eq!(nl.n_gates(), 0, "{name} is meant to be empty");
        } else if name.starts_with("bad_") {
            bad += 1;
            assert!(parsed.is_err(), "{name} should not parse");
        } else {
            good += 1;
            let nl = parsed.unwrap_or_else(|e| panic!("{name} should parse: {e}"));
            nl.validate().expect("good corpus files validate");
        }
    }
    assert!(bad >= 7, "corpus lost its bad files ({bad})");
    assert!(good >= 1, "corpus lost its good control ({good})");
}

/// Malformed BLIF errors carry a 1-based source line so users can find
/// the offending directive.
#[test]
fn blif_corpus_errors_are_line_numbered() {
    for name in [
        "bad_unknown_directive.blif",
        "bad_duplicate_signal.blif",
        "bad_dangling_output.blif",
        "bad_stray_cover_row.blif",
        "bad_truncated_latch.blif",
        "bad_double_driver.blif",
        "bad_empty_names.blif",
        "bad_crlf_stray_cover.blif",
        "bad_truncated_names.blif",
    ] {
        let text = std::fs::read_to_string(data_dir().join(name)).expect("corpus file reads");
        let err = parse_blif(&text).expect_err("malformed corpus file");
        let msg = err.to_string();
        assert!(
            msg.starts_with("line "),
            "{name}: error {msg:?} lacks a line number"
        );
    }
}

// ---------------------------------------------------------------------
// Fault sweeps: bipartition / multi-start portfolio
// ---------------------------------------------------------------------

/// Killing FM after N moves, for N swept across pass boundaries and the
/// wall-check stride, always yields a valid (possibly degraded) result.
#[test]
fn bipartition_move_kill_sweep_never_panics() {
    let hg = small_hg(11);
    for kill in [1u64, 2, 7, 63, 64, 65, 128, 500, 5_000, 1_000_000] {
        let cfg = BipartitionConfig::equal(&hg, 0.1)
            .with_seed(3)
            .with_replication(ReplicationMode::functional(0))
            .with_fault(FaultPlan::none().kill_after_moves(kill));
        let res = no_panic(&format!("kill_after_moves={kill}"), || {
            bipartition(&hg, &cfg)
        });
        // The result must be internally consistent no matter where the
        // fault hit: exported placement matches the reported cut/areas.
        if let Some(p) = &res.placement {
            p.validate(&hg).expect("placement invariants under fault");
            assert_eq!(p.cut_size(&hg), res.cut, "kill={kill}");
            assert_eq!(p.part_areas(&hg), res.areas.to_vec(), "kill={kill}");
        }
        if kill <= 64 {
            assert_eq!(res.stop, StopReason::FaultInjected, "kill={kill}");
        }
    }
}

/// Killing FM after N completed passes behaves the same way.
#[test]
fn bipartition_pass_kill_sweep_never_panics() {
    let hg = small_hg(13);
    for kill in [1u64, 2, 3, 10, 100] {
        let cfg = BipartitionConfig::equal(&hg, 0.1)
            .with_seed(5)
            .with_fault(FaultPlan::none().kill_after_passes(kill));
        let res = no_panic(&format!("kill_after_passes={kill}"), || {
            bipartition(&hg, &cfg)
        });
        assert!(
            matches!(
                res.stop,
                StopReason::FaultInjected | StopReason::Converged | StopReason::PassLimit
            ),
            "kill={kill}: stop {:?}",
            res.stop
        );
    }
}

/// Multi-start portfolios under faults and budgets (per start for move
/// limits and fault plans, shared for the wall deadline): a typed error
/// or a best-so-far result, never a panic.
#[test]
fn run_many_fault_and_budget_sweep() {
    let hg = small_hg(17);
    let base = BipartitionConfig::equal(&hg, 0.1).with_seed(7);
    let scenarios: Vec<(String, BipartitionConfig)> = vec![
        (
            "fault: moves=1".into(),
            base.clone()
                .with_fault(FaultPlan::none().kill_after_moves(1)),
        ),
        (
            "fault: moves=200".into(),
            base.clone()
                .with_fault(FaultPlan::none().kill_after_moves(200)),
        ),
        (
            "fault: passes=1".into(),
            base.clone()
                .with_fault(FaultPlan::none().kill_after_passes(1)),
        ),
        (
            "budget: wall=0ms".into(),
            base.clone().with_budget(Budget::wall_ms(0)),
        ),
        (
            "budget: wall=5ms".into(),
            base.clone().with_budget(Budget::wall_ms(5)),
        ),
        (
            "budget: moves=1".into(),
            base.clone().with_budget(Budget::none().with_max_moves(1)),
        ),
        (
            "budget: moves=129".into(),
            base.clone().with_budget(Budget::none().with_max_moves(129)),
        ),
    ];
    for (ctx, cfg) in scenarios {
        let out = no_panic(&ctx, || Engine::new(1).bipartition_many(&hg, &cfg, 6));
        match out {
            Ok((stats, _)) => {
                assert!(!stats.results.is_empty(), "{ctx}: empty stats");
                assert!(
                    stats.degradation.completed <= stats.degradation.requested,
                    "{ctx}"
                );
                // best() indexes a real entry even under degradation.
                let _ = stats.best();
            }
            Err(e) => assert!(
                matches!(
                    e,
                    PartitionError::BudgetExhausted { .. }
                        | PartitionError::InfeasibleLibrary { .. }
                ),
                "{ctx}: unexpected error kind {e}"
            ),
        }
    }
}

// ---------------------------------------------------------------------
// Fault sweeps: k-way
// ---------------------------------------------------------------------

/// K-way under injected faults at every checkpoint kind: a feasible
/// degraded result or a typed error, never a panic.
#[test]
fn kway_fault_sweep_never_panics() {
    let hg = small_hg(19);
    let lib = DeviceLibrary::xc3000();
    let plans = [
        ("attempts=1", FaultPlan::none().kill_after_attempts(1)),
        ("attempts=2", FaultPlan::none().kill_after_attempts(2)),
        ("attempts=5", FaultPlan::none().kill_after_attempts(5)),
        ("moves=1", FaultPlan::none().kill_after_moves(1)),
        ("moves=1000", FaultPlan::none().kill_after_moves(1000)),
        ("passes=2", FaultPlan::none().kill_after_passes(2)),
    ];
    for (ctx, plan) in plans {
        let cfg = KWayConfig::new(lib.clone())
            .with_candidates(3)
            .with_seed(23)
            .with_max_passes(4)
            .with_fault(plan);
        match no_panic(ctx, || kway_partition(&hg, &cfg)) {
            Ok(res) => {
                res.placement
                    .validate(&hg)
                    .unwrap_or_else(|e| panic!("{ctx}: degraded placement invalid: {e:?}"));
                assert!(
                    res.degradation.fault_injected || !res.degradation.is_degraded(),
                    "{ctx}: fault hit but degradation silent"
                );
            }
            Err(PartitionError::BudgetExhausted { budget, .. }) => {
                assert_eq!(budget, "injected fault", "{ctx}");
            }
            Err(e) => panic!("{ctx}: unexpected error kind {e}"),
        }
    }
}

/// K-way under wall and move budgets: degraded-but-usable or typed
/// BudgetExhausted.
#[test]
fn kway_budget_sweep_never_panics() {
    let hg = small_hg(29);
    let lib = DeviceLibrary::xc3000();
    let budgets = [
        ("wall=0ms", Budget::wall_ms(0)),
        ("wall=10ms", Budget::wall_ms(10)),
        ("moves=1", Budget::none().with_max_moves(1)),
        ("moves=2000", Budget::none().with_max_moves(2000)),
    ];
    for (ctx, budget) in budgets {
        let cfg = KWayConfig::new(lib.clone())
            .with_candidates(3)
            .with_seed(31)
            .with_max_passes(4)
            .with_budget(budget);
        match no_panic(ctx, || kway_partition(&hg, &cfg)) {
            Ok(res) => {
                res.placement
                    .validate(&hg)
                    .unwrap_or_else(|e| panic!("{ctx}: degraded placement invalid: {e:?}"));
            }
            Err(PartitionError::BudgetExhausted { .. }) => {}
            Err(e) => panic!("{ctx}: unexpected error kind {e}"),
        }
    }
}

// ---------------------------------------------------------------------
// Infeasible and degenerate libraries
// ---------------------------------------------------------------------

/// Zero-capacity devices and empty libraries are typed construction
/// errors, not panics.
#[test]
fn degenerate_devices_are_typed_errors() {
    assert!(Device::try_new("Z", 0, 10, 1, 0.0, 1.0).is_err());
    assert!(Device::try_new("Z", 10, 0, 1, 0.0, 1.0).is_err());
    assert!(Device::try_new("Z", 10, 10, 1, 0.9, 0.5).is_err());
    assert!(Device::try_new("Z", 10, 10, 1, -0.1, 0.5).is_err());
    assert!(DeviceLibrary::try_new(vec![]).is_err());
}

/// A library whose only device can host zero CLBs is statically
/// infeasible for any non-empty circuit: typed error, zero attempts.
#[test]
fn zero_usable_capacity_library_is_statically_infeasible() {
    let hg = small_hg(37);
    let lib = DeviceLibrary::new(vec![Device::new("NIL", 16, 16, 1, 0.0, 0.0)]);
    let cfg = KWayConfig::new(lib).with_seed(1);
    match no_panic("zero-capacity library", || kway_partition(&hg, &cfg)) {
        Err(PartitionError::InfeasibleLibrary { attempts, .. }) => assert_eq!(attempts, 0),
        Err(e) => panic!("expected static InfeasibleLibrary, got error {e}"),
        Ok(_) => panic!("expected static InfeasibleLibrary, got a partition"),
    }
}

/// A library with far too few terminals per device forces the escalation
/// ladder to climb and ultimately report a typed error (or rescue a
/// degraded solution) — never panic, even though every carve fails.
#[test]
fn terminal_starved_library_escalates_to_typed_error() {
    let hg = small_hg(41);
    // One IOB per device: no real part can terminate on it.
    let lib = DeviceLibrary::new(vec![Device::new("T1", 256, 1, 1, 0.0, 1.0)]);
    let cfg = KWayConfig::new(lib)
        .with_seed(2)
        .with_candidates(1)
        .with_max_attempts(2)
        .with_max_passes(2);
    match no_panic("terminal-starved library", || kway_partition(&hg, &cfg)) {
        Err(PartitionError::InfeasibleLibrary { attempts, .. }) => {
            assert!(attempts > 0, "the ladder should have tried carving")
        }
        Err(PartitionError::BudgetExhausted { .. }) => {}
        Ok(res) => assert!(
            res.degradation.is_degraded(),
            "an impossible library cannot yield an undegraded result"
        ),
        Err(e) => panic!("unexpected error kind {e}"),
    }
}

/// The same terminal-starved request with escalation on climbs every
/// rung of the ladder in order, spends the full attempt pool on each,
/// and only then reports the library infeasible.
#[test]
fn terminal_starved_library_climbs_the_full_ladder() {
    let hg = small_hg(41);
    let lib = DeviceLibrary::new(vec![Device::new("T1", 256, 1, 1, 0.0, 1.0)]);
    let cfg = KWayConfig::new(lib)
        .with_seed(2)
        .with_candidates(1)
        .with_max_attempts(2)
        .with_max_passes(2);
    let buffer = Arc::new(BufferRecorder::new());
    let clock = RunClock::new(&cfg.budget, &cfg.fault)
        .with_recorder(Arc::clone(&buffer) as Arc<dyn Recorder>);
    let res = no_panic("full ladder", || {
        kway_partition_with_clock(&hg, &cfg, &clock, true)
    });
    let events = buffer.take();
    // `(rung, value of key)` of every `kway.<name>` event, in order.
    let rungs = |name: &str, key: &str| -> Vec<(String, u64)> {
        events
            .iter()
            .filter(|e| e.scope == "kway" && e.name == name)
            .map(|e| {
                let field = |k: &str| e.fields.iter().find(|(f, _)| *f == k).map(|(_, v)| v);
                match (field("rung"), field(key)) {
                    (Some(Value::Str(rung)), Some(Value::U64(n))) => (rung.clone(), *n),
                    other => panic!("malformed kway.{name} event: {other:?}"),
                }
            })
            .collect()
    };
    let expect = |pairs: &[(&str, u64)]| -> Vec<(String, u64)> {
        pairs.iter().map(|&(r, n)| (r.to_string(), n)).collect()
    };
    assert_eq!(
        rungs("stage", "attempts"),
        expect(&[
            ("base", 2),
            ("reseed", 2),
            ("relaxed_floor", 2),
            ("larger_device", 2)
        ])
    );
    assert_eq!(
        rungs("escalate", "attempts_so_far"),
        expect(&[("reseed", 2), ("relaxed_floor", 4), ("larger_device", 6)])
    );
    match res {
        Err(PartitionError::InfeasibleLibrary { attempts, .. }) => assert_eq!(attempts, 8),
        Err(e) => panic!("expected InfeasibleLibrary, got error {e}"),
        Ok(_) => panic!("expected InfeasibleLibrary, got a partition"),
    }
}

// ---------------------------------------------------------------------
// Acceptance: wall budget on a Table-III-sized netlist
// ---------------------------------------------------------------------

/// A 50 ms wall budget on a Table-III benchmark returns promptly —
/// within one mandatory first start plus twice the budget — and still
/// carries at least one completed start.
#[test]
fn wall_budget_on_table_iii_netlist_returns_promptly() {
    let nl = bench_suite::build("s5378").expect("bench suite has s5378");
    let hg = map(&nl, &MapperConfig::xc3000())
        .expect("benchmarks map")
        .to_hypergraph(&nl);
    let base = BipartitionConfig::equal(&hg, 0.1).with_seed(9);

    // Calibrate: one unbudgeted start, timed. The budgeted run below is
    // allowed that long (its first start always completes) plus 2×budget.
    let t0 = std::time::Instant::now();
    let engine = Engine::new(1);
    let (one, _) = engine
        .bipartition_many(&hg, &base, 1)
        .expect("single start succeeds");
    let one_start = t0.elapsed();
    assert_eq!(one.degradation.completed, 1);

    const BUDGET_MS: u64 = 50;
    let budgeted = base.clone().with_budget(Budget::wall_ms(BUDGET_MS));
    let t1 = std::time::Instant::now();
    let (stats, _) = engine
        .bipartition_many(&hg, &budgeted, 20)
        .expect("budgeted run keeps its first start");
    let elapsed = t1.elapsed();

    assert!(stats.degradation.completed >= 1, "first start is mandatory");
    assert!(!stats.results.is_empty());
    let limit = one_start + std::time::Duration::from_millis(2 * BUDGET_MS) * 2;
    assert!(
        elapsed <= limit,
        "budgeted run took {elapsed:?}, limit {limit:?} (one start: {one_start:?})"
    );
    if stats.degradation.budget_exhausted {
        assert!(
            stats.degradation.completed < 20,
            "exhausted budget but claims all starts"
        );
    }
}
