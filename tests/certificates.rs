//! End-to-end certificate round trips: every solution the optimizer
//! family produces must serialize to a certificate that the independent
//! verifier re-derives and accepts — and tampering with any claim must
//! be caught.

use netpart::prelude::*;
use netpart::verify::gen;

fn bipartition_cert(gates: usize, seed: u64, mode: ReplicationMode) -> (Hypergraph, String) {
    let hg = gen::mapped(gates, gates / 10, seed);
    let cfg = BipartitionConfig::equal(&hg, 0.1)
        .with_seed(seed)
        .with_replication(mode);
    let (stats, _) = Engine::new(1)
        .bipartition_many(&hg, &cfg, 4)
        .expect("suite circuit partitions");
    let cert = stats
        .certificate(&hg, &cfg)
        .expect("winning run exports a placement");
    (hg, cert.to_text())
}

#[test]
fn bipartition_certificate_round_trips_clean() {
    let (hg, text) = bipartition_cert(300, 11, ReplicationMode::None);
    let cert = SolutionCertificate::parse(&text).expect("own output parses");
    let report = verify(&hg, &cert);
    assert!(report.is_clean(), "honest certificate rejected: {report}");
    // The verifier's from-scratch cut equals the claimed cut set size.
    assert_eq!(report.recomputed().cut, cert.claims.cut_nets.len());
}

#[test]
fn replicated_bipartition_certificate_round_trips_clean() {
    // Functional replication exercises the output-mask legality and the
    // §II floating-input rule in the verifier.
    let (hg, text) = bipartition_cert(400, 13, ReplicationMode::functional(0));
    let cert = SolutionCertificate::parse(&text).expect("own output parses");
    let report = verify(&hg, &cert);
    assert!(report.is_clean(), "honest certificate rejected: {report}");
}

#[test]
fn kway_certificate_round_trips_clean_and_bit_exact() {
    let hg = gen::mapped(900, 80, 17);
    let cfg = KWayConfig::new(DeviceLibrary::xc3000())
        .with_candidates(3)
        .with_seed(17)
        .with_max_passes(8)
        .with_replication(ReplicationMode::functional(1));
    let res = kway_partition(&hg, &cfg).expect("feasible on XC3000");
    let cert = res.certificate(&hg, &cfg.library, cfg.seed);
    let text = cert.to_text();
    let parsed = SolutionCertificate::parse(&text).expect("own output parses");
    assert_eq!(parsed.to_text(), text, "serialization is a fixpoint");
    let report = verify(&hg, &parsed);
    assert!(report.is_clean(), "honest certificate rejected: {report}");
    // The independent recomputation reproduces the paper metrics
    // bit-for-bit, not just approximately.
    assert_eq!(
        report.recomputed().total_cost,
        Some(res.evaluation.total_cost)
    );
    assert_eq!(
        report.recomputed().kbar.map(f64::to_bits),
        Some(res.evaluation.avg_iob_util.to_bits())
    );
    assert_eq!(report.recomputed().feasible, Some(true));
}

#[test]
fn engine_portfolio_certificates_round_trip_clean() {
    let hg = gen::mapped(500, 40, 23);
    let bcfg = BipartitionConfig::equal(&hg, 0.1).with_seed(23);
    let engine = Engine::new(2);
    let (pres, _) = engine
        .bipartition_many(&hg, &bcfg, 6)
        .expect("portfolio completes");
    let cert = pres
        .certificate(&hg, &bcfg)
        .expect("winner exports a placement");
    let report = verify(
        &hg,
        &SolutionCertificate::parse(&cert.to_text()).expect("parses"),
    );
    assert!(
        report.is_clean(),
        "portfolio certificate rejected: {report}"
    );

    let kcfg = KWayConfig::new(DeviceLibrary::xc3000())
        .with_candidates(2)
        .with_seed(23)
        .with_max_passes(8);
    let (kres, _) = engine.kway(&hg, &kcfg, 3).expect("portfolio completes");
    let kcert = kres.certificate(&hg, &kcfg);
    let report = verify(
        &hg,
        &SolutionCertificate::parse(&kcert.to_text()).expect("parses"),
    );
    assert!(
        report.is_clean(),
        "k-way portfolio certificate rejected: {report}"
    );
}

#[test]
fn tampered_cost_claim_is_caught() {
    let hg = gen::mapped(600, 50, 31);
    let cfg = KWayConfig::new(DeviceLibrary::xc3000())
        .with_candidates(2)
        .with_seed(31)
        .with_max_passes(8);
    let res = kway_partition(&hg, &cfg).expect("feasible");
    let mut cert = res.certificate(&hg, &cfg.library, cfg.seed);
    let honest = cert.claims.total_cost.expect("k-way claims a cost");
    cert.claims.total_cost = Some(honest + 1);
    let report = verify(&hg, &cert);
    assert!(
        report
            .violations()
            .iter()
            .any(|v| v.code() == "cost-mismatch"),
        "inflated cost not flagged: {report}"
    );
}

#[test]
fn tampered_cut_claim_is_caught() {
    let (hg, text) = bipartition_cert(300, 37, ReplicationMode::None);
    let mut cert = SolutionCertificate::parse(&text).expect("parses");
    // Claim one extra cut net that the placement does not actually cut.
    let uncut = (0..cert.n_nets as u32)
        .find(|n| cert.claims.cut_nets.binary_search(n).is_err())
        .expect("some net is uncut");
    cert.claims.cut_nets.push(uncut);
    cert.claims.cut_nets.sort_unstable();
    let report = verify(&hg, &cert);
    assert!(
        report
            .violations()
            .iter()
            .any(|v| v.code() == "cut-net-not-cut"),
        "phantom cut claim not flagged: {report}"
    );
}

#[test]
fn wrong_circuit_is_a_mismatch_not_a_crash() {
    let (_, text) = bipartition_cert(300, 41, ReplicationMode::None);
    let cert = SolutionCertificate::parse(&text).expect("parses");
    let other = gen::mapped(280, 20, 99);
    let report = verify(&other, &cert);
    assert!(!report.is_clean());
    assert!(
        report
            .violations()
            .iter()
            .all(|v| v.code() == "circuit-mismatch"),
        "identity mismatch should short-circuit: {report}"
    );
}

#[test]
fn moved_cell_invalidates_claims() {
    let (hg, text) = bipartition_cert(300, 43, ReplicationMode::None);
    let mut cert = SolutionCertificate::parse(&text).expect("parses");
    // Flip one interior cell to the other side without updating any
    // claim: areas, terminals and the cut set all go stale at once.
    let entry = cert
        .cells
        .iter_mut()
        .find(|(id, copies)| copies.len() == 1 && !hg.cell(CellId(*id)).is_terminal())
        .expect("an unreplicated interior cell exists");
    entry.1[0].part ^= 1;
    let report = verify(&hg, &cert);
    assert!(!report.is_clean(), "stale claims accepted");
    assert!(
        report
            .violations()
            .iter()
            .any(|v| v.code() == "part-clb-mismatch"),
        "stale areas not flagged: {report}"
    );
}
