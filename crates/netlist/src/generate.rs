//! Seeded synthetic circuit generation.
//!
//! The generator synthesises gate-level circuits with a controllable
//! *clustering* (community structure): each gate draws its inputs either
//! from a local window of recently created signals (local, clustered
//! wiring) or uniformly from everything created so far (global wiring).
//! The paper observes that the sequential ISCAS'89 benchmarks "are more
//! clustered" and benefit more from functional replication; the
//! `clustering` knob reproduces that contrast.

use crate::model::{GateKind, Netlist, SignalId};
use netpart_rng::Rng;

/// Parameters of the synthetic circuit generator.
///
/// # Examples
///
/// ```
/// use netpart_netlist::{generate, GeneratorConfig};
///
/// let nl = generate(
///     &GeneratorConfig::new(500)
///         .with_seed(42)
///         .with_dff(40)
///         .with_clustering(0.8),
/// );
/// assert_eq!(nl.n_dffs(), 40);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct GeneratorConfig {
    /// Number of combinational gates (excluding DFFs).
    pub n_gates: usize,
    /// Number of primary inputs.
    pub n_pi: usize,
    /// Number of primary outputs.
    pub n_po: usize,
    /// Number of D flip-flops.
    pub n_dff: usize,
    /// Probability of drawing each input from the local window instead of
    /// uniformly (0 = fully random wiring, 1 = fully local).
    pub clustering: f64,
    /// Size of the local window.
    pub window: usize,
    /// RNG seed; the same config always generates the same circuit.
    pub seed: u64,
    /// Maximum gate fan-in (minimum is 2).
    pub max_fanin: usize,
    /// Rent-rule mode: when set to `Some(p)`, the wire-distance
    /// distribution is derived from the Rent exponent `p` instead of
    /// [`clustering`](Self::clustering), and the I/O counts follow
    /// `T = t·G^p` without the small-circuit clamp (see
    /// [`with_rent`](Self::with_rent)).
    pub rent_exponent: Option<f64>,
}

impl GeneratorConfig {
    /// A config for `n_gates` combinational gates with defaults scaled to
    /// the circuit size (PIs/POs ≈ Rent-like fractions, no DFFs,
    /// moderate clustering).
    pub fn new(n_gates: usize) -> Self {
        let io = ((n_gates as f64).powf(0.62).round() as usize).clamp(3, 512);
        GeneratorConfig {
            n_gates,
            n_pi: io,
            n_po: (io / 2).max(2),
            n_dff: 0,
            clustering: 0.6,
            window: 48,
            seed: 1,
            max_fanin: 4,
            rent_exponent: None,
        }
    }

    /// Enables Rent-rule mode with exponent `p` (clamped to
    /// `[0.1, 0.85]`): region terminal counts follow `T ≈ t·B^p`.
    ///
    /// Two things change. The wire-distance Pareto shape becomes
    /// `α = 1 − p` (for a power-law wire-length distribution with tail
    /// exponent `α < 1`, the distinct-terminal count of a contiguous
    /// `B`-gate region scales as `B^(1−α)`, so matching the target
    /// exponent means `α = 1 − p` — the default `clustering` mapping
    /// caps the reachable exponent near 0.4 and cannot express the
    /// `p ≈ 0.6–0.7` of realistic logic). And the primary I/O counts
    /// are re-derived as `T = 2.5·G^p` with no upper clamp, so 100k+-
    /// gate circuits get realistically wide I/O boundaries instead of
    /// the 512-pad ceiling.
    pub fn with_rent(mut self, p: f64) -> Self {
        let p = p.clamp(0.1, 0.85);
        self.rent_exponent = Some(p);
        let io = ((2.5 * (self.n_gates as f64).powf(p)).round() as usize).max(3);
        self.n_pi = io;
        self.n_po = (io / 2).max(2);
        self
    }

    /// Sets the number of primary inputs.
    pub fn with_pi(mut self, n: usize) -> Self {
        self.n_pi = n;
        self
    }

    /// Sets the number of primary outputs.
    pub fn with_po(mut self, n: usize) -> Self {
        self.n_po = n;
        self
    }

    /// Sets the number of D flip-flops.
    pub fn with_dff(mut self, n: usize) -> Self {
        self.n_dff = n;
        self
    }

    /// Sets the clustering probability (clamped to `[0, 1]`).
    pub fn with_clustering(mut self, c: f64) -> Self {
        self.clustering = c.clamp(0.0, 1.0);
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the maximum fan-in (clamped to `[2, 8]`).
    pub fn with_max_fanin(mut self, k: usize) -> Self {
        self.max_fanin = k.clamp(2, 8);
        self
    }
}

/// Generates a random netlist according to `cfg`.
///
/// The result always validates: signals are single-driver and the
/// combinational part is acyclic by construction (gates only read earlier
/// signals; feedback flows through DFFs).
///
/// # Panics
///
/// Panics if `cfg.n_pi + cfg.n_dff == 0` (no sources to wire from).
pub fn generate(cfg: &GeneratorConfig) -> Netlist {
    assert!(
        cfg.n_pi + cfg.n_dff > 0,
        "generator needs at least one primary input or flip-flop"
    );
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut nl = Netlist::new("synthetic");

    let mut pool: Vec<SignalId> = Vec::new();
    let mut uses: Vec<u32> = Vec::new();
    let push = |pool: &mut Vec<SignalId>, uses: &mut Vec<u32>, s: SignalId| {
        pool.push(s);
        uses.push(0);
    };

    for i in 0..cfg.n_pi {
        let s = nl.add_primary_input(format!("pi{i}")).expect("fresh name");
        push(&mut pool, &mut uses, s);
    }
    // State signals become available immediately; their DFF drivers are
    // created at the end (feedback is legal through the flip-flops).
    let states: Vec<SignalId> = (0..cfg.n_dff)
        .map(|i| nl.add_signal(format!("st{i}")).expect("fresh name"))
        .collect();
    for &s in &states {
        push(&mut pool, &mut uses, s);
    }

    // Wire distances follow a Pareto (power-law) distribution, giving the
    // Rent-rule-like locality of real circuits: most wires are short, a
    // heavy tail reaches far back (to primary inputs and state). The
    // `clustering` knob sets the Pareto shape — higher values concentrate
    // wiring locally, which is how the ISCAS'89-style circuits differ
    // from the combinational ones in the paper's experiments.
    // In Rent mode the shape is pinned to `α = 1 − p` so region
    // terminal counts scale as `B^p` (see `with_rent`); otherwise the
    // `clustering` knob sets it directly.
    let alpha = match cfg.rent_exponent {
        Some(p) => (1.0 - p).max(0.05),
        None => 0.6 + 2.2 * cfg.clustering,
    };
    let pick = |rng: &mut Rng, pool: &[SignalId], uses: &mut [u32]| -> SignalId {
        let n = pool.len();
        let u: f64 = rng.gen_f64_open();
        let d = (u.powf(-1.0 / alpha)).floor() as usize; // Pareto, d_min = 1
        let idx = n.saturating_sub(d.clamp(1, n));
        // Bias toward an unused signal in the same neighbourhood so few
        // outputs dangle.
        let idx = if uses[idx] > 0 && rng.gen_bool(0.5) {
            let lo = idx.saturating_sub(cfg.window / 2);
            let hi = (idx + cfg.window / 2).min(n - 1);
            (lo..=hi).find(|&i| uses[i] == 0).unwrap_or(idx)
        } else {
            idx
        };
        uses[idx] += 1;
        pool[idx]
    };

    let mut inputs = Vec::new();
    for g in 0..cfg.n_gates {
        let k_max = cfg.max_fanin.min(pool.len());
        // Weight fan-in toward 2–3 inputs, like mapped MCNC logic.
        let k = match rng.gen_range(0..10) {
            0..=4 => 2,
            5..=7 => 3.min(k_max),
            _ => k_max.clamp(2, 4),
        }
        .min(k_max)
        .max(if pool.len() >= 2 { 2 } else { 1 });
        inputs.clear();
        let mut guard = 0;
        while inputs.len() < k && guard < 64 {
            let s = pick(&mut rng, &pool, &mut uses);
            if !inputs.contains(&s) {
                inputs.push(s);
            }
            guard += 1;
        }
        let kind = match (inputs.len(), rng.gen_range(0..10)) {
            (1, _) => GateKind::Not,
            (2, 0..=2) => GateKind::Xor,
            (_, 0..=4) => GateKind::Nand,
            (_, 5..=6) => GateKind::And,
            (_, 7..=8) => GateKind::Nor,
            _ => GateKind::Or,
        };
        let out = nl.add_signal(format!("w{g}")).expect("fresh name");
        nl.add_gate(kind, &inputs, out)
            .expect("construction is structurally valid");
        push(&mut pool, &mut uses, out);
    }

    // Wire the flip-flop D inputs from late (deep) signals.
    for &q in &states {
        let d = pick(&mut rng, &pool, &mut uses);
        // Avoid the degenerate q = DFF(q) self-loop where possible.
        let d = if d == q && pool.len() > 1 {
            pick(&mut rng, &pool, &mut uses)
        } else {
            d
        };
        nl.add_gate(GateKind::Dff, &[d], q)
            .expect("state signal is undriven until now");
    }

    // Primary outputs: prefer unused gate outputs so little logic dangles.
    let gate_outputs: Vec<usize> = (cfg.n_pi + cfg.n_dff..pool.len()).collect();
    let mut chosen: Vec<SignalId> = Vec::new();
    for &i in gate_outputs.iter().rev() {
        if chosen.len() >= cfg.n_po {
            break;
        }
        if uses[i] == 0 {
            chosen.push(pool[i]);
        }
    }
    let mut guard = 0;
    while chosen.len() < cfg.n_po && !gate_outputs.is_empty() && guard < 10 * cfg.n_po + 64 {
        let i = gate_outputs[rng.gen_range(0..gate_outputs.len())];
        if !chosen.contains(&pool[i]) {
            chosen.push(pool[i]);
        }
        guard += 1;
    }
    for s in chosen {
        nl.add_primary_output(s).expect("signal exists");
    }

    debug_assert!(nl.validate().is_ok());
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::NetlistStats;

    #[test]
    fn deterministic_per_seed() {
        let cfg = GeneratorConfig::new(300).with_seed(9).with_dff(20);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(crate::write_blif(&a), crate::write_blif(&b));
        let c = generate(&GeneratorConfig::new(300).with_seed(10).with_dff(20));
        assert_ne!(crate::write_blif(&a), crate::write_blif(&c));
    }

    #[test]
    fn respects_counts() {
        let cfg = GeneratorConfig::new(400)
            .with_seed(3)
            .with_pi(30)
            .with_po(20)
            .with_dff(25);
        let nl = generate(&cfg);
        nl.validate().unwrap();
        assert_eq!(nl.primary_inputs().len(), 30);
        assert_eq!(nl.primary_outputs().len(), 20);
        assert_eq!(nl.n_dffs(), 25);
        assert_eq!(nl.n_gates(), 400 + 25);
    }

    #[test]
    fn clustering_increases_locality() {
        // Measure mean |driver_index - reader_index| over gate-to-gate
        // edges; clustered circuits should wire much more locally.
        fn mean_distance(nl: &Netlist) -> f64 {
            let mut sum = 0.0f64;
            let mut count = 0.0f64;
            for g in nl.gate_ids() {
                for &s in nl.gate(g).inputs {
                    if let crate::model::Driver::Gate(d) = nl.driver(s) {
                        sum += (g.index() as f64 - d.index() as f64).abs();
                        count += 1.0;
                    }
                }
            }
            sum / count.max(1.0)
        }
        let local = generate(
            &GeneratorConfig::new(1500)
                .with_seed(5)
                .with_clustering(0.95),
        );
        let global = generate(
            &GeneratorConfig::new(1500)
                .with_seed(5)
                .with_clustering(0.05),
        );
        assert!(mean_distance(&local) * 3.0 < mean_distance(&global));
    }

    #[test]
    fn few_dangling_outputs() {
        let nl = generate(&GeneratorConfig::new(500).with_seed(11));
        let idx = nl.fanout_index();
        let po: std::collections::HashSet<_> = nl.primary_outputs().iter().collect();
        let dangling = nl
            .gates()
            .filter(|g| idx.readers(g.output).is_empty() && !po.contains(&g.output))
            .count();
        assert!(
            dangling < nl.n_gates() / 5,
            "too many dangling outputs: {dangling}"
        );
    }

    #[test]
    fn stats_reasonable() {
        let nl = generate(&GeneratorConfig::new(800).with_seed(2).with_dff(60));
        let s = NetlistStats::of(&nl);
        assert!(s.avg_fanin >= 2.0 && s.avg_fanin <= 4.0);
        assert!(s.max_level >= 3);
    }

    /// Distinct boundary-crossing signals of the contiguous
    /// creation-order gate window `[lo, hi)`: inputs driven outside the
    /// window plus outputs read outside it (or exported as POs).
    fn region_terminals(
        nl: &Netlist,
        fanout: &crate::model::Fanout,
        po: &std::collections::HashSet<SignalId>,
        lo: usize,
        hi: usize,
    ) -> usize {
        let inside = |g: crate::model::GateId| (lo..hi).contains(&g.index());
        let mut crossing = std::collections::HashSet::new();
        for gi in lo..hi {
            let g = nl.gate(crate::model::GateId(gi as u32));
            for &s in g.inputs {
                let external = match nl.driver(s) {
                    crate::model::Driver::Gate(d) => !inside(d),
                    _ => true,
                };
                if external {
                    crossing.insert(s);
                }
            }
            let s = g.output;
            if po.contains(&s) || fanout.readers(s).iter().any(|&r| !inside(r)) {
                crossing.insert(s);
            }
        }
        crossing.len()
    }

    #[test]
    fn rent_mode_reproduces_the_scaling_law() {
        // T(B) ≈ t·B^p: the mean distinct-terminal count of contiguous
        // B-gate regions must scale with the configured exponent. Fit
        // ln T against ln B by least squares across region sizes and
        // check the slope lands near p.
        let p = 0.65;
        let nl = generate(&GeneratorConfig::new(16_384).with_seed(17).with_rent(p));
        let fanout = nl.fanout_index();
        let po: std::collections::HashSet<_> = nl.primary_outputs().iter().copied().collect();
        let sizes = [64usize, 256, 1024, 4096];
        let mut pts: Vec<(f64, f64)> = Vec::new();
        for &b in &sizes {
            let mut sum = 0.0f64;
            let mut count = 0usize;
            let mut lo = 0;
            while lo + b <= nl.n_gates() - nl.n_dffs() {
                sum += region_terminals(&nl, &fanout, &po, lo, lo + b) as f64;
                count += 1;
                lo += b;
            }
            pts.push(((b as f64).ln(), (sum / count as f64).ln()));
        }
        let n = pts.len() as f64;
        let (sx, sy): (f64, f64) = pts.iter().fold((0.0, 0.0), |a, &(x, y)| (a.0 + x, a.1 + y));
        let (sxx, sxy): (f64, f64) = pts
            .iter()
            .fold((0.0, 0.0), |a, &(x, y)| (a.0 + x * x, a.1 + x * y));
        let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
        assert!(
            (slope - p).abs() <= 0.15,
            "fitted Rent exponent {slope:.3} not within 0.15 of target {p}"
        );
    }

    #[test]
    fn rent_mode_widens_io_without_clamp() {
        let cfg = GeneratorConfig::new(100_000).with_rent(0.65);
        // The default sizing clamps at 512 pads; Rent mode must not.
        assert!(cfg.n_pi > 512, "rent-mode n_pi clamped: {}", cfg.n_pi);
        assert_eq!(cfg.rent_exponent, Some(0.65));
        // Deterministic per seed, like every other generator mode.
        let a = generate(&GeneratorConfig::new(2000).with_rent(0.65).with_seed(4));
        let b = generate(&GeneratorConfig::new(2000).with_rent(0.65).with_seed(4));
        assert_eq!(crate::write_blif(&a), crate::write_blif(&b));
        a.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "at least one primary input")]
    fn zero_sources_panics() {
        generate(&GeneratorConfig {
            n_pi: 0,
            n_dff: 0,
            ..GeneratorConfig::new(10)
        });
    }
}
