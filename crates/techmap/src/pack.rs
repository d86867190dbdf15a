//! Greedy packing of LUT/register units into multi-output CLBs.
//!
//! The kernel runs on flat arrays, so pairing allocates nothing per
//! candidate: every unit support lives in one arena, a pair's
//! distinct-input count is a two-pointer merge count over the two sorted
//! supports, and the signal → reading-units index is a CSR table over
//! [`SignalId::index`] that sheds paired units as scans pass them.

use crate::mapped::{Clb, Mapped, MapperConfig, Unit};
use netpart_netlist::{Netlist, SignalId};
use std::cmp::Ordering;

/// SplitMix64: cheap deterministic per-unit hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The number of distinct signals in the union of two sorted,
/// duplicate-free supports.
fn union_len(a: &[SignalId], b: &[SignalId]) -> usize {
    let (mut i, mut j, mut shared) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                shared += 1;
                i += 1;
                j += 1;
            }
        }
    }
    a.len() + b.len() - shared
}

/// A candidate partner: `(shared inputs, free inputs, unit)`.
type Key = (usize, usize, usize);

/// `true` if `(shared, free)` at unit `j` beats `best`: more shared
/// inputs, then more free inputs, then the lower unit id.
fn beats(shared: usize, free: usize, j: usize, best: Option<Key>) -> bool {
    match best {
        None => true,
        Some((s, f, bj)) => (shared, free) > (s, f) || ((shared, free) == (s, f) && j < bj),
    }
}

/// The per-unit facts pairing reads, in flat arrays.
struct Units {
    cfg: MapperConfig,
    /// Unit `i` reads `arena[start[i]..start[i + 1]]`, sorted.
    start: Vec<u32>,
    arena: Vec<SignalId>,
    /// Flip-flops each unit uses.
    dffs: Vec<usize>,
    /// Whether each unit is a DIN-fed register.
    ext: Vec<bool>,
}

impl Units {
    fn support(&self, i: usize) -> &[SignalId] {
        &self.arena[self.start[i] as usize..self.start[i + 1] as usize]
    }

    /// The unit's reader class (see [`CLASSES`]).
    fn class(&self, i: usize) -> usize {
        self.dffs[i] + usize::from(self.ext[i])
    }

    /// Whether `a` and `b` fit one CLB's flip-flops and DIN pin.
    fn fits(&self, a: usize, b: usize) -> bool {
        // Only one DIN pin per CLB.
        self.dffs[a] + self.dffs[b] <= self.cfg.max_dffs && !(self.ext[a] && self.ext[b])
    }

    /// The distinct input count of `a` and `b` in one CLB, or `None` if
    /// the pair breaks a CLB limit.
    fn merged(&self, a: usize, b: usize) -> Option<usize> {
        if !self.fits(a, b) {
            return None;
        }
        let m = union_len(self.support(a), self.support(b));
        (m <= self.cfg.max_inputs).then_some(m)
    }

    /// Offers the unpaired unit `j` as `i`'s partner.
    fn consider(&self, i: usize, j: usize, best: &mut Option<Key>) {
        let Some(merged) = self.merged(i, j) else {
            return;
        };
        let shared = self.support(i).len() + self.support(j).len() - merged;
        let free = self.cfg.max_inputs - merged;
        if beats(shared, free, j, *best) {
            *best = Some((shared, free, j));
        }
    }
}

/// Reader classes: plain LUT, registered LUT, DIN-fed register. Whether
/// two units fit one CLB's flip-flops and DIN pin depends on their
/// classes alone.
const CLASSES: usize = 3;

/// signal → units reading it, a CSR table over
/// `CLASSES · SignalId::index() + class`: slot `k` is
/// `unit[head[k]..end[k]]`, ordered by (support size, unit id). Scans
/// drop the paired units they pass and keep the rest in order, so a slot
/// only shrinks and always holds every unpaired reader.
struct Readers {
    head: Vec<u32>,
    end: Vec<u32>,
    unit: Vec<u32>,
}

impl Readers {
    fn new(u: &Units, n_signals: usize) -> Readers {
        let slots = CLASSES * n_signals;
        let mut head = vec![0u32; slots + 1];
        for i in 0..u.dffs.len() {
            for s in u.support(i) {
                head[CLASSES * s.index() + u.class(i) + 1] += 1;
            }
        }
        for k in 0..slots {
            head[k + 1] += head[k];
        }
        let mut end = head.clone();
        let mut unit = vec![0u32; u.arena.len()];
        let mut by_size: Vec<usize> = (0..u.dffs.len()).collect();
        by_size.sort_by_key(|&i| u.support(i).len());
        for i in by_size {
            for s in u.support(i) {
                let k = CLASSES * s.index() + u.class(i);
                unit[end[k] as usize] = i as u32;
                end[k] += 1;
            }
        }
        Readers { head, end, unit }
    }

    /// The number of entries left in signal `s`'s slots (paired units
    /// no scan has dropped yet included).
    fn len(&self, s: usize) -> usize {
        (CLASSES * s..CLASSES * (s + 1))
            .map(|k| (self.end[k] - self.head[k]) as usize)
            .sum()
    }

    /// Visits every unpaired reader of signal `s`.
    fn scan(&mut self, s: usize, partner: &[Option<usize>], mut visit: impl FnMut(usize)) {
        for k in CLASSES * s..CLASSES * (s + 1) {
            let mut kept = self.head[k];
            for r in self.head[k]..self.end[k] {
                let j = self.unit[r as usize];
                if partner[j as usize].is_none() {
                    self.unit[kept as usize] = j;
                    kept += 1;
                    visit(j as usize);
                }
            }
            self.end[k] = kept;
        }
    }

    /// Visits the unpaired units of slot `k` in order until `visit`
    /// returns `true`. The passed prefix is compacted towards its end, so
    /// `head[k]` moves past the units it drops.
    fn scan_until(
        &mut self,
        k: usize,
        partner: &[Option<usize>],
        mut visit: impl FnMut(usize) -> bool,
    ) {
        let mut stop = self.end[k];
        for r in self.head[k]..self.end[k] {
            let j = self.unit[r as usize] as usize;
            if partner[j].is_none() && visit(j) {
                stop = r;
                break;
            }
        }
        let mut kept = stop;
        for r in (self.head[k]..stop).rev() {
            let j = self.unit[r as usize];
            if partner[j as usize].is_none() {
                kept -= 1;
                self.unit[kept as usize] = j;
            }
        }
        self.head[k] = kept;
    }
}

/// The unpaired unit sharing the most inputs with `i`, then leaving the
/// most inputs free, then lowest-numbered, among those that fit one CLB
/// with it.
///
/// The partner is the maximum of a total order, so visit order is free.
/// A reader whose best possible key — all of the smaller support shared,
/// no input beyond the larger one — cannot beat the incumbent is skipped
/// unmerged, and `i`'s longest reader list is left for last.
fn affinity_partner(
    u: &Units,
    readers: &mut Readers,
    partner: &[Option<usize>],
    i: usize,
) -> Option<usize> {
    let max_inputs = u.cfg.max_inputs;
    let a = u.support(i).len();
    let longest = u
        .support(i)
        .iter()
        .map(|s| s.index())
        .max_by_key(|&s| readers.len(s));
    let mut best: Option<Key> = None;
    for s in u.support(i) {
        if Some(s.index()) == longest {
            continue;
        }
        readers.scan(s.index(), partner, |j| {
            let b = u.support(j).len();
            let bound = (a.min(b), max_inputs.saturating_sub(a.max(b)));
            if j != i && beats(bound.0, bound.1, j, best) {
                u.consider(i, j, &mut best);
            }
        });
    }
    // A reader of the longest list that the scans above missed shares
    // only that signal, so its key is `(1, max_inputs + 1 − a − b, j)`:
    // in each class slot the first entry past `i` holds the highest, or
    // no entry fits. A reader they met already holds a higher key than
    // this one, and none of these keys beats an incumbent sharing two
    // inputs.
    if let Some(s) = longest.filter(|_| best.is_none_or(|(shared, ..)| shared < 2)) {
        for k in CLASSES * s..CLASSES * (s + 1) {
            readers.scan_until(k, partner, |j| {
                if j == i {
                    return false;
                }
                let b = u.support(j).len();
                if a + b <= max_inputs + 1 && u.fits(i, j) {
                    let free = max_inputs + 1 - a - b;
                    if beats(1, free, j, best) {
                        best = Some((1, free, j));
                    }
                }
                true
            });
        }
    }
    best.map(|(.., j)| j)
}

/// Pairs units into CLBs, preferring partners that share input signals
/// (maximising shared inputs minimises the CLB's distinct-input count and
/// produces the spread of replication potentials seen in the paper's
/// Fig. 3).
///
/// Constraints per CLB: at most `max_outputs` units, `max_inputs` distinct
/// input signals, `max_dffs` flip-flops and one externally-fed (DIN)
/// register.
pub(crate) fn pack_units(mapped: &Mapped, nl: &Netlist, units: Vec<Unit>) -> Vec<Clb> {
    let cfg = *mapped.config();
    let n = units.len();
    let mut start = Vec::with_capacity(n + 1);
    let mut arena = Vec::new();
    start.push(0);
    for u in &units {
        arena.extend_from_slice(mapped.support_of(nl, u));
        start.push(u32::try_from(arena.len()).expect("support arena fits u32 offsets"));
    }
    let u = Units {
        cfg,
        start,
        arena,
        dffs: units.iter().map(|u| mapped.unit_dffs(u)).collect(),
        ext: units
            .iter()
            .map(|u| matches!(u, Unit::ExtReg { .. }))
            .collect(),
    };

    let mut readers = Readers::new(&u, nl.n_signals());

    let mut partner: Vec<Option<usize>> = vec![None; n];
    for i in 0..n {
        if partner[i].is_some() {
            continue;
        }
        // Density-driven vs affinity-driven pairing. Real era mappers
        // (XACT) packed for density, oblivious to any future partition;
        // `pack_affinity` is the probability a unit instead seeks a
        // partner sharing its inputs. The density-packed remainder is
        // precisely what functional replication un-packs across the cut.
        let h = splitmix64(cfg.pack_seed ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15));
        let density_driven = (h % 1_000_000) as f64 / 1_000_000.0 >= cfg.pack_affinity;
        let mate = if density_driven {
            // Scan a bounded neighbourhood starting at a pseudo-random
            // offset, ignoring input sharing.
            let w = cfg.pack_window.min(n.saturating_sub(1)).max(1);
            let lo = i.saturating_sub(w);
            let hi = (i + w).min(n - 1);
            let span = hi - lo + 1;
            let start = lo + (h >> 20) as usize % span;
            (0..span)
                .map(|off| lo + (start - lo + off) % span)
                .find(|&j| j != i && partner[j].is_none() && u.merged(i, j).is_some())
        } else {
            affinity_partner(&u, &mut readers, &partner, i)
        };
        // Fall back to a bounded forward scan so units without shared
        // signals still pair when their supports fit together.
        let mate = mate.or_else(|| {
            (i + 1..n.min(i + 64)).find(|&j| partner[j].is_none() && u.merged(i, j).is_some())
        });
        if let Some(j) = mate {
            partner[i] = Some(j);
            partner[j] = Some(i);
        }
    }

    let mut clbs = Vec::with_capacity(n.div_ceil(2));
    for (i, unit) in units.iter().enumerate() {
        match partner[i] {
            None => clbs.push(Clb {
                units: vec![unit.clone()],
            }),
            Some(j) if j > i => clbs.push(Clb {
                units: vec![unit.clone(), units[j].clone()],
            }),
            Some(_) => {} // placed with its lower-numbered partner
        }
    }
    clbs
}

/// The clone-sort-dedup packer the flat kernel replaced, kept as the
/// reference it must match CLB for CLB.
#[cfg(test)]
pub(crate) mod reference {
    use super::splitmix64;
    use crate::mapped::{Clb, Mapped, Unit};
    use netpart_netlist::{Netlist, SignalId};
    use std::collections::HashMap;

    pub(crate) fn pack_units(mapped: &Mapped, nl: &Netlist, units: Vec<Unit>) -> Vec<Clb> {
        let cfg = *mapped.config();
        let supports: Vec<Vec<SignalId>> =
            units.iter().map(|u| mapped.unit_support(nl, u)).collect();
        let dffs: Vec<usize> = units.iter().map(|u| mapped.unit_dffs(u)).collect();
        let ext: Vec<bool> = units
            .iter()
            .map(|u| matches!(u, Unit::ExtReg { .. }))
            .collect();

        let mut readers: HashMap<SignalId, Vec<usize>> = HashMap::new();
        for (i, sup) in supports.iter().enumerate() {
            for &s in sup {
                readers.entry(s).or_default().push(i);
            }
        }

        let merged_ok = |a: usize, b: usize| -> Option<usize> {
            if dffs[a] + dffs[b] > cfg.max_dffs {
                return None;
            }
            if ext[a] && ext[b] {
                return None;
            }
            let mut m = supports[a].clone();
            m.extend(supports[b].iter().copied());
            m.sort_unstable();
            m.dedup();
            (m.len() <= cfg.max_inputs).then_some(m.len())
        };

        let n = units.len();
        let mut partner: Vec<Option<usize>> = vec![None; n];
        for i in 0..n {
            if partner[i].is_some() {
                continue;
            }
            let mut best: Option<(usize, usize, usize)> = None;
            let consider = |j: usize, best: &mut Option<(usize, usize, usize)>| {
                if j == i || partner[j].is_some() {
                    return;
                }
                let Some(merged) = merged_ok(i, j) else {
                    return;
                };
                let shared = supports[i].len() + supports[j].len() - merged;
                let key = (shared, cfg.max_inputs - merged, j);
                let better = match best {
                    None => true,
                    Some((s, f, bj)) => {
                        (shared, cfg.max_inputs - merged) > (*s, *f)
                            || ((shared, cfg.max_inputs - merged) == (*s, *f) && j < *bj)
                    }
                };
                if better {
                    *best = Some(key);
                }
            };
            let h = splitmix64(cfg.pack_seed ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15));
            let density_driven = (h % 1_000_000) as f64 / 1_000_000.0 >= cfg.pack_affinity;
            if density_driven {
                let w = cfg.pack_window.min(n.saturating_sub(1)).max(1);
                let lo = i.saturating_sub(w);
                let hi = (i + w).min(n - 1);
                let span = hi - lo + 1;
                let start = lo + (h >> 20) as usize % span;
                for off in 0..span {
                    let j = lo + (start - lo + off) % span;
                    if j != i && partner[j].is_none() && merged_ok(i, j).is_some() {
                        best = Some((0, 0, j));
                        break;
                    }
                }
            } else {
                for &s in &supports[i] {
                    if let Some(list) = readers.get(&s) {
                        for &j in list {
                            consider(j, &mut best);
                        }
                    }
                }
            }
            if best.is_none() {
                for j in (i + 1)..n.min(i + 64) {
                    consider(j, &mut best);
                    if best.is_some() {
                        break;
                    }
                }
            }
            if let Some((_, _, j)) = best {
                partner[i] = Some(j);
                partner[j] = Some(i);
            }
        }

        let mut clbs = Vec::with_capacity(n.div_ceil(2));
        let mut placed = vec![false; n];
        let mut units: Vec<Option<Unit>> = units.into_iter().map(Some).collect();
        for i in 0..n {
            if placed[i] {
                continue;
            }
            placed[i] = true;
            let mut members = vec![units[i].take().expect("unit unplaced")];
            if let Some(j) = partner[i] {
                if !placed[j] {
                    placed[j] = true;
                    members.push(units[j].take().expect("partner unplaced"));
                }
            }
            clbs.push(Clb { units: members });
        }
        clbs
    }
}

#[cfg(test)]
mod tests {
    use crate::mapped::{map, MapperConfig, Unit};
    use netpart_netlist::{generate, GeneratorConfig};

    #[test]
    fn most_units_get_paired() {
        let nl = generate(&GeneratorConfig::new(600).with_seed(21).with_dff(30));
        let m = map(&nl, &MapperConfig::xc3000()).unwrap();
        let paired = m.clbs.iter().filter(|c| c.units.len() == 2).count();
        assert!(
            paired * 2 > m.clbs.len(),
            "expected most CLBs to hold two units ({paired}/{})",
            m.clbs.len()
        );
    }

    #[test]
    fn din_constraint_enforced() {
        // A circuit dominated by external registers (DFFs chained off
        // multi-use signals) must still respect the single-DIN rule.
        let nl = generate(&GeneratorConfig::new(150).with_seed(8).with_dff(80));
        let m = map(&nl, &MapperConfig::xc3000()).unwrap();
        for clb in &m.clbs {
            let ext = clb
                .units
                .iter()
                .filter(|u| matches!(u, Unit::ExtReg { .. }))
                .count();
            assert!(ext <= 1);
        }
    }

    #[test]
    fn packing_is_deterministic() {
        let nl = generate(&GeneratorConfig::new(400).with_seed(5).with_dff(20));
        let a = map(&nl, &MapperConfig::xc3000()).unwrap();
        let b = map(&nl, &MapperConfig::xc3000()).unwrap();
        assert_eq!(a.clbs, b.clbs);
    }
}

#[cfg(test)]
mod affinity_tests {
    use crate::mapped::{map, MapperConfig};
    use netpart_netlist::{generate, GeneratorConfig};

    /// Density-driven packing pairs unrelated LUTs, which raises the mean
    /// replication potential ψ (more exclusive inputs per output) — the
    /// effect DESIGN.md §5.5 relies on.
    #[test]
    fn density_packing_raises_replication_potential() {
        let nl = generate(&GeneratorConfig::new(600).with_seed(31).with_dff(30));
        let mean_psi = |affinity: f64| -> f64 {
            let cfg = MapperConfig::xc3000().with_pack_affinity(affinity);
            let hg = map(&nl, &cfg).unwrap().to_hypergraph(&nl);
            let dist = hg.replication_potential_distribution();
            let total: usize = dist.iter().sum();
            dist.iter()
                .enumerate()
                .map(|(psi, &n)| psi as f64 * n as f64)
                .sum::<f64>()
                / total as f64
        };
        let affine = mean_psi(1.0);
        let dense = mean_psi(0.0);
        assert!(
            dense > affine,
            "density packing should raise mean ψ: {dense:.2} vs {affine:.2}"
        );
    }

    /// The affinity knob does not change what is computed — only how
    /// units pair — so CLB count changes little and DFF coverage is
    /// identical.
    #[test]
    fn affinity_preserves_coverage() {
        let nl = generate(&GeneratorConfig::new(400).with_seed(8).with_dff(25));
        for affinity in [0.0, 0.5, 1.0] {
            let cfg = MapperConfig::xc3000().with_pack_affinity(affinity);
            let m = map(&nl, &cfg).unwrap();
            let hg = m.to_hypergraph(&nl);
            assert_eq!(hg.stats().dffs as usize, nl.n_dffs());
            assert_eq!(
                hg.stats().iobs as usize,
                nl.primary_inputs().len() + nl.primary_outputs().len()
            );
        }
    }
}

#[cfg(test)]
mod reference_tests {
    use super::reference;
    use crate::decompose_wide_gates;
    use crate::mapped::{map, units_of, Clb, MapperConfig, Unit};
    use netpart_netlist::{generate, parse_blif, write_blif, GeneratorConfig};
    use netpart_rng::{Fnv1a, Rng};

    /// The flat kernel pairs exactly like the clone-sort-dedup reference
    /// over every packing knob, on uniform and Rent-rule circuits (the
    /// latter have reader lists long enough for the pruning to bite).
    #[test]
    fn flat_kernel_matches_the_reference() {
        let mut rng = Rng::seed_from_u64(0x9ac4_2018);
        for case in 0..6 {
            let gates = 200 + rng.gen_range(0..2_400);
            let mut gen = GeneratorConfig::new(gates)
                .with_seed(rng.next_u64())
                .with_dff(rng.gen_range(0..gates / 8 + 1));
            if case % 2 == 0 {
                gen = gen.with_rent(0.65);
            }
            let raw = generate(&gen);
            for max_inputs in 3..=6 {
                let nl = decompose_wide_gates(&raw, max_inputs);
                for affinity in [0.0, 0.5, 0.85, 1.0] {
                    for window in [2, 128] {
                        let cfg = MapperConfig {
                            max_inputs,
                            pack_seed: rng.next_u64(),
                            ..MapperConfig::xc3000()
                        }
                        .with_pack_affinity(affinity)
                        .with_pack_window(window);
                        let m = map(&nl, &cfg).unwrap();
                        let want = reference::pack_units(&m, &nl, units_of(&nl, &cfg, &m.cones));
                        assert_eq!(
                            m.clbs, want,
                            "case {case}: {gates} gates, k {max_inputs}, affinity {affinity}, window {window}"
                        );
                    }
                }
            }
        }
    }

    /// FNV-1a over the CLB list: unit count, then per unit a tag and
    /// its indices.
    fn clb_digest(clbs: &[Clb]) -> u64 {
        let mut h = Fnv1a::new();
        for clb in clbs {
            h.write_u64(clb.units.len() as u64);
            for u in &clb.units {
                match u {
                    Unit::Lut { cone, registered } => {
                        h.write_u64(0);
                        h.write_u64(*cone as u64);
                        h.write_u64(registered.map_or(u64::MAX, |g| u64::from(g.0)));
                    }
                    Unit::ExtReg { dff } => {
                        h.write_u64(1);
                        h.write_u64(u64::from(dff.0));
                    }
                }
            }
        }
        h.finish()
    }

    /// The CLBs of `netpart synth 100000 --dff 5000 --rent 0.65 --seed
    /// 42`, loaded the way the CLI loads a BLIF, pinned to the digest the
    /// clone-sort-dedup packer produced.
    #[test]
    #[ignore = "100k-gate circuit: run in the release --ignored pass"]
    fn rent100k_clbs_are_pinned() {
        let gen = GeneratorConfig::new(100_000)
            .with_dff(5_000)
            .with_seed(42)
            .with_rent(0.65);
        let nl = parse_blif(&write_blif(&generate(&gen))).unwrap();
        let nl = decompose_wide_gates(&nl, 5);
        let m = map(&nl, &MapperConfig::xc3000()).unwrap();
        assert_eq!(m.clbs.len(), 54_798);
        assert_eq!(clb_digest(&m.clbs), 0x3290_b240_cda8_bc6d);
    }
}
