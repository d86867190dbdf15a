//! Review repro: k-way portfolio under a per-task move budget across jobs levels.

use netpart_core::{Budget, KWayConfig};
use netpart_engine::{Engine, KWayPortfolioResult};
use netpart_fpga::DeviceLibrary;
use netpart_netlist::{generate, GeneratorConfig};
use netpart_techmap::{map, MapperConfig};
use std::sync::Arc;

#[test]
fn kway_move_budget_across_jobs() {
    let nl = generate(&GeneratorConfig::new(800).with_dff(40).with_seed(11));
    let hg = map(&nl, &MapperConfig::xc3000())
        .expect("maps")
        .to_hypergraph(&nl);
    let describe =
        |r: &Result<(Arc<KWayPortfolioResult>, bool), netpart_core::PartitionError>| match r {
            Ok((r, _)) => format!(
                "Ok(winner={}, feasible={}, cost={}, rescued={}, budget_exhausted={})",
                r.winner,
                r.feasible_tasks,
                r.result.evaluation.total_cost,
                r.rescued,
                r.result.degradation.budget_exhausted
            ),
            Err(e) => format!("Err({e})"),
        };
    let mut diverged = Vec::new();
    for moves in [500u64, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000] {
        let cfg = KWayConfig::new(DeviceLibrary::xc3000())
            .with_candidates(4)
            .with_seed(1)
            .with_max_passes(8)
            .with_budget(Budget::none().with_max_moves(moves));
        let a = Engine::new(1).kway(&hg, &cfg, 3);
        let b = Engine::new(8).kway(&hg, &cfg, 3);
        let (da, db) = (describe(&a), describe(&b));
        eprintln!("moves={moves}: jobs=1 {da} | jobs=8 {db}");
        if da != db {
            diverged.push(moves);
        }
    }
    assert!(diverged.is_empty(), "diverged at move budgets {diverged:?}");
}
