//! Stable content hashing — the request keys of the durable service's
//! verified result cache and write-ahead log.
//!
//! [`ContentHash`] produces a 64-bit FNV-1a digest over a *canonical
//! byte encoding* of a value: every field is serialized in declaration
//! order, variable-length collections are length-prefixed, and all
//! integers are written little-endian. The encoding (and therefore the
//! digest) is independent of pointer addresses, allocation order, hash
//!-map iteration order, platform endianness and process ASLR — the same
//! logical value hashes identically across runs, threads and machines
//! of the same word width.
//!
//! This is deliberately *not* [`std::hash::Hash`]: the standard trait
//! promises nothing about stability across runs (and `RandomState`
//! actively randomizes it), while a result cache keyed by content must
//! never observe two digests for one value. FNV-1a is tiny, allocation
//! -free and std-only; it is **not** cryptographic — the cache tolerates
//! an astronomically unlikely collision by returning a wrong-but-valid
//! result, which is acceptable for a best-effort cache and keeps the
//! hermetic-build policy intact.

use netpart_core::{BipartitionConfig, Budget, FaultPlan, KWayConfig, ReplicationMode};
use netpart_fpga::{Device, DeviceLibrary};
use netpart_hypergraph::Hypergraph;
use netpart_multilevel::MultilevelConfig;
use netpart_netlist::Netlist;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental 64-bit FNV-1a hasher over canonical bytes.
#[derive(Clone, Debug)]
pub struct Fnv1a {
    state: u64,
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a { state: FNV_OFFSET }
    }
}

impl Fnv1a {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a::default()
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Absorbs a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs an `i64` (little-endian two's complement).
    pub fn write_i64(&mut self, v: i64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a `usize` widened to 64 bits, so 32- and 64-bit hosts
    /// agree.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs an `f64` by its IEEE-754 bit pattern (`-0.0` and `0.0`
    /// therefore hash differently; configuration values never rely on
    /// that distinction).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorbs a string, length-prefixed so `("ab","c")` and
    /// `("a","bc")` cannot collide structurally.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write(s.as_bytes());
    }

    /// Absorbs an `Option<u64>` with a presence tag.
    pub fn write_opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.write_u8(0),
            Some(x) => {
                self.write_u8(1);
                self.write_u64(x);
            }
        }
    }

    /// Absorbs an `Option<&str>` with a presence tag.
    pub fn write_opt_str(&mut self, v: Option<&str>) {
        match v {
            None => self.write_u8(0),
            Some(s) => {
                self.write_u8(1);
                self.write_str(s);
            }
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// A value with a stable, canonical 64-bit content digest.
///
/// Implementations must feed *every semantically significant field* to
/// the hasher in a fixed order with length prefixes on collections;
/// two values that compare equal must produce equal digests on every
/// run and platform.
pub trait ContentHash {
    /// Feeds the canonical encoding of `self` into `h`.
    fn hash_into(&self, h: &mut Fnv1a);

    /// The stable FNV-1a digest of `self`.
    fn content_hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.hash_into(&mut h);
        h.finish()
    }
}

/// Combines several digests into one (used for composite request keys
/// such as `(hypergraph, config, n_runs)`).
pub fn combine(parts: &[u64]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_usize(parts.len());
    for &p in parts {
        h.write_u64(p);
    }
    h.finish()
}

impl ContentHash for Netlist {
    fn hash_into(&self, h: &mut Fnv1a) {
        h.write_str(self.name());
        // Signals in id order; the id → name mapping pins the topology
        // encoding below.
        h.write_usize(self.n_signals());
        for s in self.signal_ids() {
            h.write_str(self.signal_name(s));
        }
        h.write_usize(self.n_gates());
        for g in self.gates() {
            h.write_str(&g.name);
            h.write_str(g.kind.mnemonic());
            if let netpart_netlist::GateKind::Lut { cover } = &g.kind {
                h.write_usize(cover.len());
                for row in cover {
                    h.write_str(row);
                }
            }
            h.write_usize(g.inputs.len());
            for s in &g.inputs {
                h.write_u32(s.0);
            }
            h.write_u32(g.output.0);
        }
        h.write_usize(self.primary_inputs().len());
        for s in self.primary_inputs() {
            h.write_u32(s.0);
        }
        h.write_usize(self.primary_outputs().len());
        for s in self.primary_outputs() {
            h.write_u32(s.0);
        }
    }
}

impl ContentHash for Device {
    fn hash_into(&self, h: &mut Fnv1a) {
        h.write_str(self.name());
        h.write_u32(self.clbs());
        h.write_u32(self.iobs());
        h.write_u64(self.price());
        h.write_f64(self.min_util());
        h.write_f64(self.max_util());
    }
}

impl ContentHash for DeviceLibrary {
    fn hash_into(&self, h: &mut Fnv1a) {
        // The library sorts its devices on construction, so iteration
        // order is already canonical.
        h.write_usize(self.len());
        for d in self.iter() {
            d.hash_into(h);
        }
    }
}

impl ContentHash for Hypergraph {
    fn hash_into(&self, h: &mut Fnv1a) {
        h.write_usize(self.n_cells());
        for c in self.cells() {
            h.write_str(c.name());
            let kind = c.kind();
            h.write_u8(if kind.is_terminal() { 1 } else { 0 });
            h.write_u32(kind.area());
            h.write_u32(kind.dff());
            h.write_usize(c.n_inputs());
            for n in c.input_nets() {
                h.write_u32(n.0);
            }
            h.write_usize(c.m_outputs());
            for n in c.output_nets() {
                h.write_u32(n.0);
            }
        }
        h.write_usize(self.n_nets());
        for n in self.nets() {
            h.write_str(n.name());
            h.write_usize(n.degree());
            for e in n.endpoints() {
                h.write_u32(e.cell.0);
            }
        }
    }
}

impl ContentHash for ReplicationMode {
    fn hash_into(&self, h: &mut Fnv1a) {
        match self {
            ReplicationMode::None => h.write_u8(0),
            ReplicationMode::Traditional => h.write_u8(1),
            ReplicationMode::Functional { threshold } => {
                h.write_u8(2);
                h.write_u32(*threshold);
            }
        }
    }
}

impl ContentHash for Budget {
    fn hash_into(&self, h: &mut Fnv1a) {
        h.write_opt_u64(self.wall_ms);
        h.write_opt_u64(self.max_moves);
    }
}

impl ContentHash for FaultPlan {
    fn hash_into(&self, h: &mut Fnv1a) {
        h.write_opt_u64(self.kill_after_moves);
        h.write_opt_u64(self.kill_after_passes);
        h.write_opt_u64(self.kill_after_attempts);
        h.write_opt_u64(self.kill_start);
        h.write_opt_u64(self.panic_in_worker);
        h.write_opt_str(self.crash_after.as_deref());
        h.write_opt_u64(self.torn_write);
        h.write_opt_u64(self.disk_full);
    }
}

impl ContentHash for BipartitionConfig {
    fn hash_into(&self, h: &mut Fnv1a) {
        for s in 0..2 {
            h.write_u64(self.min_area[s]);
            h.write_u64(self.max_area[s]);
        }
        self.replication.hash_into(h);
        h.write_usize(self.max_passes);
        h.write_u64(self.seed);
        for s in 0..2 {
            h.write_i64(self.terminal_weight[s]);
        }
        h.write_opt_u64(self.max_growth);
        self.budget.hash_into(h);
        self.fault.hash_into(h);
    }
}

impl ContentHash for KWayConfig {
    fn hash_into(&self, h: &mut Fnv1a) {
        self.library.hash_into(h);
        self.replication.hash_into(h);
        h.write_usize(self.candidates);
        h.write_usize(self.max_attempts);
        h.write_u64(self.seed);
        h.write_usize(self.max_passes);
        h.write_u8(u8::from(self.escalate));
        self.budget.hash_into(h);
        self.fault.hash_into(h);
    }
}

impl ContentHash for MultilevelConfig {
    fn hash_into(&self, h: &mut Fnv1a) {
        h.write_usize(self.max_levels);
        h.write_f64(self.coarsen_ratio);
        h.write_usize(self.min_cells);
        h.write_f64(self.max_cluster_area);
        h.write_usize(self.refine_passes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a test vectors (64-bit).
        let mut h = Fnv1a::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325, "offset basis");
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn length_prefix_separates_field_boundaries() {
        let mut a = Fnv1a::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv1a::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn library_hash_is_stable_and_content_sensitive() {
        let lib = DeviceLibrary::xc3000();
        assert_eq!(lib.content_hash(), DeviceLibrary::xc3000().content_hash());
        // Construction order does not matter (the library sorts).
        let mut reversed: Vec<Device> = DeviceLibrary::xc3000().iter().cloned().collect();
        reversed.reverse();
        let shuffled = DeviceLibrary::new(reversed);
        assert_eq!(lib.content_hash(), shuffled.content_hash());
        // Any field change does.
        let tweaked = DeviceLibrary::new(vec![
            Device::new("XC3020", 64, 64, 101, 0.0, 0.95),
            Device::new("XC3030", 100, 80, 135, 0.58, 0.95),
            Device::new("XC3042", 144, 96, 186, 0.63, 0.95),
            Device::new("XC3064", 224, 110, 272, 0.58, 0.95),
            Device::new("XC3090", 320, 144, 370, 0.63, 0.95),
        ]);
        assert_ne!(lib.content_hash(), tweaked.content_hash());
    }

    #[test]
    fn config_hash_distinguishes_every_knob() {
        let hg_cfg = BipartitionConfig::bounded([10, 10], [20, 20]).with_seed(7);
        let base = hg_cfg.content_hash();
        assert_eq!(base, hg_cfg.clone().content_hash());
        assert_ne!(base, hg_cfg.clone().with_seed(8).content_hash());
        assert_ne!(
            base,
            hg_cfg
                .clone()
                .with_replication(ReplicationMode::functional(0))
                .content_hash()
        );
        assert_ne!(
            base,
            hg_cfg
                .clone()
                .with_budget(Budget::wall_ms(5))
                .content_hash()
        );
        assert_ne!(
            base,
            hg_cfg
                .clone()
                .with_fault(FaultPlan::none().kill_after_moves(1))
                .content_hash()
        );

        let k = KWayConfig::new(DeviceLibrary::xc3000()).with_seed(3);
        let kbase = k.content_hash();
        assert_eq!(kbase, k.clone().content_hash());
        assert_ne!(kbase, k.clone().with_candidates(7).content_hash());
        assert_ne!(kbase, k.clone().with_escalation(false).content_hash());
    }

    #[test]
    fn multilevel_hash_distinguishes_every_knob() {
        let ml = MultilevelConfig::new();
        let base = ml.content_hash();
        assert_eq!(base, ml.clone().content_hash());
        assert_ne!(base, ml.clone().with_max_levels(3).content_hash());
        assert_ne!(base, ml.clone().with_coarsen_ratio(0.5).content_hash());
        assert_ne!(base, ml.clone().with_min_cells(100).content_hash());
        assert_ne!(base, ml.clone().with_max_cluster_area(0.1).content_hash());
        assert_ne!(base, ml.clone().with_refine_passes(5).content_hash());
    }

    /// Pins the digests of fixed values so any accidental change to the
    /// canonical encoding (field order, widths, prefixes) fails loudly
    /// instead of silently invalidating persisted expectations. The
    /// constants were computed once from the encoding and must never
    /// change while it is unchanged — hash stability across runs,
    /// threads and processes is the whole point of [`ContentHash`].
    #[test]
    fn pinned_digests_are_stable_across_runs() {
        const PINNED_XC3000: u64 = 7_708_666_789_472_266_005;
        assert_eq!(DeviceLibrary::xc3000().content_hash(), PINNED_XC3000);

        const PINNED_NETLIST: u64 = 10_953_375_322_622_017_509;
        let nl = netpart_netlist::generate(
            &netpart_netlist::GeneratorConfig::new(60)
                .with_dff(5)
                .with_seed(42),
        );
        assert_eq!(nl.content_hash(), PINNED_NETLIST);
        assert_eq!(nl.content_hash(), nl.clone().content_hash());
    }
}
