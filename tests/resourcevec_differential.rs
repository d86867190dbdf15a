//! Differential harness for the device model against a scalar
//! reference.
//!
//! [`Device`] is the paper's 5-tuple `(c, t, d, l, u)`. Every accessor,
//! the feasibility window, the library's device selection, the
//! evaluator's cost/utilization figures and the certificate bytes must
//! be exactly what the plain scalar arithmetic gives. (The file name
//! dates from a named resource-vector generalization of `Device`, since
//! removed; this harness pinned it to the scalar model throughout.)
//!
//! `RefDevice` below is a from-scratch reimplementation of that scalar
//! arithmetic (kept deliberately independent of `netpart_fpga`). The
//! harness drives both implementations over seeded random inputs at the
//! pinned seeds 11, 29 and 47 and demands equality — any divergence is
//! a behavioral regression, not noise.

use netpart::prelude::*;
use netpart_rng::Rng;

const SEEDS: [u64; 3] = [11, 29, 47];

/// The reference device: scalar fields and the paper's arithmetic,
/// transcribed independently of `netpart_fpga`.
struct RefDevice {
    clbs: u32,
    iobs: u32,
    price: u64,
    min_util: f64,
    max_util: f64,
}

impl RefDevice {
    fn min_clbs(&self) -> u64 {
        (self.min_util * f64::from(self.clbs)).ceil() as u64
    }

    fn max_clbs(&self) -> u64 {
        (self.max_util * f64::from(self.clbs)).floor() as u64
    }

    fn fits(&self, clbs: u64, terminals: u64) -> bool {
        clbs >= self.min_clbs() && clbs <= self.max_clbs() && terminals <= u64::from(self.iobs)
    }

    fn cost_per_clb(&self) -> f64 {
        self.price as f64 / f64::from(self.clbs)
    }

    fn display(&self, name: &str) -> String {
        format!(
            "{} (c={}, t={}, d={}, l={:.2}, u={:.2})",
            name, self.clbs, self.iobs, self.price, self.min_util, self.max_util
        )
    }
}

fn random_pair(rng: &mut Rng) -> (Device, RefDevice) {
    let clbs = 1 + rng.gen_range(0..512) as u32;
    let iobs = 1 + rng.gen_range(0..256) as u32;
    let price = 1 + rng.gen_range(0..10_000) as u64;
    let a = rng.gen_f64();
    let b = rng.gen_f64();
    let (min_util, max_util) = (a.min(b), a.max(b));
    (
        Device::new("R", clbs, iobs, price, min_util, max_util),
        RefDevice {
            clbs,
            iobs,
            price,
            min_util,
            max_util,
        },
    )
}

#[test]
fn device_arithmetic_matches_the_scalar_reference() {
    for seed in SEEDS {
        let mut rng = Rng::seed_from_u64(seed);
        for case in 0..200 {
            let (dev, reference) = random_pair(&mut rng);
            assert_eq!(dev.clbs(), reference.clbs, "seed {seed} case {case}");
            assert_eq!(dev.iobs(), reference.iobs);
            assert_eq!(
                dev.min_clbs(),
                reference.min_clbs(),
                "seed {seed} case {case}"
            );
            assert_eq!(
                dev.max_clbs(),
                reference.max_clbs(),
                "seed {seed} case {case}"
            );
            assert_eq!(
                dev.cost_per_clb().to_bits(),
                reference.cost_per_clb().to_bits(),
                "seed {seed} case {case}: cost_per_clb drifted"
            );
            assert_eq!(
                dev.to_string(),
                reference.display("R"),
                "seed {seed} case {case}"
            );
            for _ in 0..20 {
                let clbs = rng.gen_range(0..768) as u64;
                let terminals = rng.gen_range(0..384) as u64;
                assert_eq!(
                    dev.fits(clbs, terminals),
                    reference.fits(clbs, terminals),
                    "seed {seed} case {case}: fits({clbs}, {terminals}) diverged"
                );
            }
        }
    }
}

#[test]
fn library_selection_matches_the_scalar_reference() {
    let lib = DeviceLibrary::xc3000();
    let reference: Vec<RefDevice> = lib
        .iter()
        .map(|d| RefDevice {
            clbs: d.clbs(),
            iobs: d.iobs(),
            price: d.price(),
            min_util: d.min_util(),
            max_util: d.max_util(),
        })
        .collect();
    for seed in SEEDS {
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..500 {
            let clbs = rng.gen_range(0..400) as u64;
            let terminals = rng.gen_range(0..200) as u64;
            // min_by_key keeps the first minimum, so the reference scan
            // reproduces the library's tie-breaking exactly.
            let want = reference
                .iter()
                .enumerate()
                .filter(|(_, d)| d.fits(clbs, terminals))
                .min_by_key(|(_, d)| d.price)
                .map(|(i, _)| i);
            let got = lib
                .cheapest_fitting(clbs, terminals)
                .and_then(|d| lib.index_of(d.name()));
            assert_eq!(got, want, "cheapest_fitting({clbs}, {terminals}) diverged");
        }
    }
}

/// End-to-end identity: k-way partitioning + evaluation + certificate
/// serialization at the pinned seeds. The certificate text is a total
/// function of the solution, so byte-equality of two in-process runs
/// plus the scalar-reference device checks above pin the whole chain;
/// the `#[ignore]`d golden-table suite covers the archived CSVs.
#[test]
fn kway_certificates_are_stable_across_runs_at_the_pinned_seeds() {
    let nl = generate(&GeneratorConfig::new(700).with_seed(5));
    let hg = map(&nl, &MapperConfig::xc3000())
        .expect("maps")
        .to_hypergraph(&nl);
    let lib = DeviceLibrary::xc3000();
    for seed in SEEDS {
        let cfg = KWayConfig::new(lib.clone())
            .with_candidates(4)
            .with_seed(seed)
            .with_max_passes(8)
            .with_replication(ReplicationMode::functional(1));
        let a = kway_partition(&hg, &cfg).expect("partitions");
        let b = kway_partition(&hg, &cfg).expect("partitions");
        assert_eq!(
            a.evaluation.total_cost, b.evaluation.total_cost,
            "seed {seed}: cost unstable"
        );
        assert_eq!(
            a.evaluation.avg_iob_util.to_bits(),
            b.evaluation.avg_iob_util.to_bits(),
            "seed {seed}: k̄ unstable"
        );
        let cert_a = a.certificate(&hg, &lib, seed).to_text();
        let cert_b = b.certificate(&hg, &lib, seed).to_text();
        assert_eq!(cert_a, cert_b, "seed {seed}: certificate bytes unstable");
        // The evaluation the certificate claims must be reproduced by
        // re-running the evaluator on the exported placement.
        let re = evaluate(&hg, &a.placement, &lib, &a.devices);
        assert_eq!(re.total_cost, a.evaluation.total_cost, "seed {seed}");
    }
}
