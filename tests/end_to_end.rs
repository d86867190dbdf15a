//! End-to-end pipeline tests: generator → BLIF round-trip → technology
//! mapping → hypergraph → bipartitioning → k-way partitioning.

use netpart::prelude::*;

fn mapped(gates: usize, dffs: usize, seed: u64) -> (Netlist, Hypergraph) {
    let nl = generate(
        &GeneratorConfig::new(gates)
            .with_dff(dffs)
            .with_seed(seed)
            .with_clustering(0.75),
    );
    let hg = map(&nl, &MapperConfig::xc3000())
        .expect("generated netlists map")
        .to_hypergraph(&nl);
    (nl, hg)
}

#[test]
fn full_pipeline_bipartition() {
    let (nl, hg) = mapped(600, 40, 11);

    // The netlist survives a BLIF round trip.
    let text = write_blif(&nl);
    let back = parse_blif(&text).expect("own output parses");
    assert_eq!(back.n_gates(), nl.n_gates());
    assert_eq!(back.n_dffs(), nl.n_dffs());

    // Hypergraph stats are consistent with the netlist interface.
    let s = hg.stats();
    assert_eq!(
        s.iobs as usize,
        nl.primary_inputs().len() + nl.primary_outputs().len()
    );
    assert_eq!(s.dffs as usize, nl.n_dffs());

    // Bipartition with replication: placement invariants hold and the
    // engine's cut matches the placement's.
    let cfg = BipartitionConfig::equal(&hg, 0.1)
        .with_seed(3)
        .with_replication(ReplicationMode::functional(0));
    let res = bipartition(&hg, &cfg);
    assert!(res.balanced);
    let p = res.placement.expect("functional placements export");
    p.validate(&hg).expect("placement invariants");
    assert_eq!(p.cut_size(&hg), res.cut);
    let areas = p.part_areas(&hg);
    assert_eq!(areas, res.areas.to_vec());
}

#[test]
fn full_pipeline_kway() {
    let (_, hg) = mapped(900, 60, 5);
    let lib = DeviceLibrary::xc3000();
    let cfg = KWayConfig::new(lib.clone())
        .with_candidates(3)
        .with_seed(17)
        .with_max_passes(8)
        .with_replication(ReplicationMode::functional(1));
    let res = kway_partition(&hg, &cfg).expect("feasible partition exists");
    res.placement.validate(&hg).expect("placement invariants");
    assert!(res.evaluation.feasible);
    // Device histogram and per-part evaluation agree.
    let hist = res.evaluation.device_histogram(lib.len());
    assert_eq!(hist.iter().sum::<usize>(), res.evaluation.k());
    // Re-evaluate from scratch: identical objective values.
    let again = evaluate(&hg, &res.placement, &lib, &res.devices);
    assert_eq!(again.total_cost, res.evaluation.total_cost);
    assert_eq!(again.avg_iob_util, res.evaluation.avg_iob_util);
}

#[test]
fn replication_never_worse_across_seeds() {
    let (_, hg) = mapped(500, 30, 23);
    for seed in 0..5 {
        let base = BipartitionConfig::equal(&hg, 0.1).with_seed(seed);
        let plain = bipartition(&hg, &base);
        let repl = bipartition(
            &hg,
            &base
                .clone()
                .with_replication(ReplicationMode::functional(0)),
        );
        assert!(
            repl.cut <= plain.cut,
            "seed {seed}: replication worsened the cut ({} vs {})",
            repl.cut,
            plain.cut
        );
    }
}

#[test]
fn threshold_restricts_replication() {
    let (_, hg) = mapped(500, 30, 29);
    let base = BipartitionConfig::equal(&hg, 0.1).with_seed(4);
    // A very high threshold admits almost no cells, so the result should
    // replicate no more cells than T = 0 does.
    let t0 = bipartition(
        &hg,
        &base
            .clone()
            .with_replication(ReplicationMode::functional(0)),
    );
    let t99 = bipartition(
        &hg,
        &base
            .clone()
            .with_replication(ReplicationMode::functional(99)),
    );
    assert!(t99.replicated_cells <= t0.replicated_cells);
}

#[test]
fn wide_gate_netlists_map_after_decomposition() {
    let mut nl = Netlist::new("wide");
    let ins: Vec<_> = (0..12)
        .map(|i| nl.add_primary_input(format!("i{i}")).unwrap())
        .collect();
    let y = nl.add_signal("y").unwrap();
    nl.add_gate(GateKind::And, &ins, y).unwrap();
    nl.add_primary_output(y).unwrap();
    // Direct mapping fails on the 12-input gate…
    assert!(map(&nl, &MapperConfig::xc3000()).is_err());
    // …but succeeds after decomposition.
    let narrow = decompose_wide_gates(&nl, 5);
    let hg = map(&narrow, &MapperConfig::xc3000())
        .unwrap()
        .to_hypergraph(&narrow);
    assert!(hg.stats().clbs >= 2);
}
