//! The disk-cache integrity property, end to end: take a cache entry
//! produced by a *real* served job (summary + certificate + checksum),
//! corrupt it in every way a disk can — any single-bit flip, any
//! truncation — and assert the entry is **never served**: every load
//! either misses or evicts, the corrupt file is deleted, and an
//! identical resubmission recomputes from scratch with a certificate
//! the independent verifier accepts.
//!
//! The serve-crate unit tests prove the same property on synthetic
//! entries; this test closes the loop on the integration path (real
//! engine output, real certificate, `DiskCache` exactly as the server
//! drives it).

use netpart_netlist::{generate, write_blif, GeneratorConfig};
use netpart_serve::{
    submit_job, CacheLookup, DiskCache, JobCmd, JobSpec, JobState, ServeConfig, Server,
};
use netpart_verify::verify_text;
use std::path::{Path, PathBuf};

fn tdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("netpart-cacheint-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("temp dir");
    d
}

fn blif() -> String {
    write_blif(&generate(&GeneratorConfig::new(50).with_seed(11)))
}

fn spec() -> JobSpec {
    JobSpec {
        cmd: JobCmd::Kway,
        seed: 4,
        candidates: 2,
        tasks: 2,
        ..JobSpec::default()
    }
}

fn drain_cfg() -> ServeConfig {
    ServeConfig {
        jobs: 1,
        drain: true,
        poll_ms: 0,
        ..ServeConfig::default()
    }
}

fn hypergraph() -> netpart_hypergraph::Hypergraph {
    let nl = netpart_netlist::parse_blif(&blif()).expect("netlist");
    let nl = netpart_techmap::decompose_wide_gates(&nl, 5);
    netpart_techmap::map(&nl, &netpart_techmap::MapperConfig::xc3000())
        .expect("map")
        .to_hypergraph(&nl)
}

/// Serves one job to populate the cache, returning the spool and the
/// single cache entry's path + original bytes.
fn populate(name: &str) -> (PathBuf, PathBuf, Vec<u8>) {
    let spool = tdir(name);
    submit_job(&spool, "seedjob", &blif(), &spec(), 64).expect("submit");
    let mut server = Server::open(&spool, drain_cfg(), None).expect("open");
    let report = server.run().expect("run");
    assert_eq!(report.done, 1, "seed job must complete");
    let entries: Vec<PathBuf> = std::fs::read_dir(spool.join("cache"))
        .expect("cache dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "entry"))
        .collect();
    assert_eq!(entries.len(), 1, "exactly one cache entry expected");
    let bytes = std::fs::read(&entries[0]).expect("read entry");
    (spool, entries[0].clone(), bytes)
}

fn cache_key_of(path: &Path) -> u64 {
    u64::from_str_radix(&path.file_stem().expect("stem").to_string_lossy(), 16)
        .expect("entry filename is the hex cache key")
}

/// Every single-bit flip anywhere in the persisted entry — header,
/// key, summary, certificate, checksum line — must be detected:
/// `load` never returns `Hit`, and the poisoned file is deleted.
#[test]
fn every_single_bit_flip_is_detected_and_evicted() {
    let (spool, entry_path, original) = populate("bitflip");
    let key = cache_key_of(&entry_path);
    let hg = hypergraph();
    // Exhaustive over a real entry (a few KB × 8 bits): feasible and
    // leaves no seed-dependent blind spot.
    for byte in 0..original.len() {
        for bit in 0..8 {
            let mut poisoned = original.clone();
            poisoned[byte] ^= 1u8 << bit;
            std::fs::write(&entry_path, &poisoned).expect("write poisoned");
            let cache = DiskCache::open(&spool.join("cache")).expect("open cache");
            match cache.load(key, &hg) {
                CacheLookup::Hit(_) => panic!("bit {bit} of byte {byte} served despite corruption"),
                CacheLookup::Evicted { .. } => {
                    assert!(
                        !entry_path.exists(),
                        "evicted entry (byte {byte} bit {bit}) not deleted"
                    );
                }
                // A flip inside the key digits of the filename-keyed
                // content can also manifest as a key mismatch eviction;
                // a plain miss can only happen if the file vanished.
                CacheLookup::Miss => {
                    panic!("byte {byte} bit {bit}: entry file ignored instead of evicted")
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&spool);
}

/// Every proper-prefix truncation must likewise never be served.
#[test]
fn every_truncation_is_detected_and_evicted() {
    let (spool, entry_path, original) = populate("truncate");
    let key = cache_key_of(&entry_path);
    let hg = hypergraph();
    for len in 0..original.len() {
        std::fs::write(&entry_path, &original[..len]).expect("write truncated");
        let cache = DiskCache::open(&spool.join("cache")).expect("open cache");
        match cache.load(key, &hg) {
            CacheLookup::Hit(_) => panic!("truncation to {len} bytes served"),
            CacheLookup::Evicted { .. } => {
                assert!(!entry_path.exists(), "truncated entry ({len}B) not deleted")
            }
            CacheLookup::Miss => panic!("truncation to {len} bytes silently ignored"),
        }
    }
    let _ = std::fs::remove_dir_all(&spool);
}

/// After a corrupt entry is evicted, resubmitting the identical job
/// recomputes (no cache hit), produces a verifiable certificate, and
/// repopulates the cache so a third submission hits again.
#[test]
fn eviction_recomputes_and_repopulates() {
    let (spool, entry_path, original) = populate("recompute");
    // Corrupt the middle of the certificate section.
    let mut poisoned = original.clone();
    let mid = poisoned.len() / 2;
    poisoned[mid] ^= 0x10;
    std::fs::write(&entry_path, &poisoned).expect("write poisoned");

    submit_job(&spool, "again", &blif(), &spec(), 64).expect("submit");
    let mut server = Server::open(&spool, drain_cfg(), None).expect("open");
    let report = server.run().expect("run");
    assert_eq!(report.cache_hits, 0, "corrupt entry must not be served");
    assert_eq!(report.cache_evictions, 1, "corrupt entry must be evicted");
    let entry = server.queue().get("again").expect("known");
    match &entry.state {
        JobState::Done { cached, .. } => assert!(!cached, "must recompute, not replay"),
        other => panic!("job not done: {other:?}"),
    }
    drop(server);

    let cert = std::fs::read_to_string(spool.join("results/again.cert")).expect("cert");
    let report = verify_text(&hypergraph(), &cert).expect("cert parses");
    assert!(
        report.is_clean(),
        "recomputed certificate rejected: {report}"
    );

    // The recompute repopulated the cache: a third identical job hits.
    assert!(entry_path.exists(), "cache not repopulated after eviction");
    submit_job(&spool, "third", &blif(), &spec(), 64).expect("submit");
    let mut server = Server::open(&spool, drain_cfg(), None).expect("reopen");
    let report = server.run().expect("run");
    assert_eq!(report.cache_hits, 1, "repopulated entry must serve");
    let _ = std::fs::remove_dir_all(&spool);
}
