//! Pins of the BLIF ingest path: parse → validate → decompose → map →
//! hypergraph on the 20k-gate Rent circuit of the benchmark's
//! `rent-repl` workload (`netpart synth 20000 --dff 1000 --rent 0.65
//! --seed 42`), and the writer's byte-exact round trip of every circuit
//! the benchmark ingests.
//!
//! The constants were read before the netlist moved to flat arenas; a
//! storage change must leave every one of them as it is.

use netpart::prelude::*;
use netpart::verify::circuit_digest;
use netpart_rng::Fnv1a;

/// The `rent-repl` circuit as BLIF text.
fn rent20k_blif() -> String {
    let cfg = GeneratorConfig::new(20_000)
        .with_dff(1_000)
        .with_seed(42)
        .with_rent(0.65);
    write_blif(&generate(&cfg))
}

/// An FNV-1a digest of every cell name, then every net name, each
/// closed by a zero byte.
fn name_digest(hg: &Hypergraph) -> u64 {
    let mut h = Fnv1a::new();
    let cells = hg.cells().iter().map(|c| c.name());
    for name in cells.chain(hg.nets().iter().map(|n| n.name())) {
        h.write(name.as_bytes());
        h.write(&[0]);
    }
    h.finish()
}

#[test]
fn rent20k_ingest_is_pinned() {
    let nl = parse_blif(&rent20k_blif()).expect("written BLIF parses");
    nl.validate().expect("generated circuits validate");
    let nl = decompose_wide_gates(&nl, 5);
    let mapped = map(&nl, &MapperConfig::xc3000()).expect("generated circuits map");
    let hg = mapped.to_hypergraph(&nl);
    let s = hg.stats();
    assert_eq!(
        (mapped.clbs.len(), hg.n_cells(), s.nets, s.pins),
        (10_877, 13_220, 19_570, 65_825)
    );
    assert_eq!(circuit_digest(&hg), 0x35f2_70f3_6363_9ea2);
    assert_eq!(name_digest(&hg), 0x5796_5366_48a4_065a);
}

#[test]
fn written_blif_reads_back_byte_identical() {
    let mut texts = vec![("rent20k".to_string(), rent20k_blif())];
    for name in bench_suite::names() {
        let nl = bench_suite::build_scaled(name, 4).expect("suite circuit");
        texts.push((name.to_string(), write_blif(&nl)));
    }
    for (name, text) in texts {
        let nl = parse_blif(&text).expect("written BLIF parses");
        assert!(
            write_blif(&nl) == text,
            "{name}: write(parse(text)) != text"
        );
    }
}
