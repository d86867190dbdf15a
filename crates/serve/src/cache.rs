//! The certificate-carrying disk result cache.
//!
//! Completed results are persisted under `spool/cache/` keyed by the
//! job's request key ([`JobSpec::request_key`]), so an identical
//! resubmission — same netlist bytes, same request fields — replays
//! from disk across restarts without re-running the optimizer.
//!
//! A cache hit is **never trusted blindly**: every entry embeds the
//! solution certificate of the run that produced it, the whole entry is
//! covered by an FNV-1a checksum, and [`DiskCache::load`] re-verifies
//! the certificate against the request's hypergraph with the
//! independent `netpart-verify` oracle before serving it. Any
//! discrepancy — a flipped bit, a truncated file, a certificate that no
//! longer checks out — evicts the entry ([`CacheLookup::Evicted`]) and
//! the job re-runs. Runs that export no certificate are simply not
//! cached.
//!
//! [`JobSpec::request_key`]: crate::JobSpec::request_key

use crate::fsio::{atomic_write, Injector};
use crate::ServeError;
use netpart_hypergraph::Hypergraph;
use netpart_rng::Fnv1a;
use netpart_verify::verify_text;
use std::path::{Path, PathBuf};

/// The entry-file header.
const HEADER: &str = "netpart-cache v1";

/// One persisted result: the human-readable summary replayed into the
/// job's result file, plus the certificate that makes it checkable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheEntry {
    /// The request key ([`JobSpec::request_key`](crate::JobSpec::request_key)).
    pub key: u64,
    /// Result summary text (the body of the `.result` artifact).
    pub summary: String,
    /// The solution certificate, in `netpart verify` text form.
    pub cert: String,
}

/// What a cache lookup found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheLookup {
    /// A verified entry; safe to serve.
    Hit(CacheEntry),
    /// No entry for the key.
    Miss,
    /// An entry existed but failed its checksum or certificate
    /// re-verification; it has been deleted.
    Evicted {
        /// Why the entry was rejected.
        reason: String,
    },
}

impl CacheEntry {
    /// Renders the entry file, including its trailing checksum line.
    pub fn to_text(&self) -> String {
        let mut s = format!("{HEADER}\nkey {:016x}\n", self.key);
        let sum: Vec<&str> = self.summary.lines().collect();
        s.push_str(&format!("summary-lines {}\n", sum.len()));
        for l in &sum {
            s.push_str(l);
            s.push('\n');
        }
        let cert: Vec<&str> = self.cert.lines().collect();
        s.push_str(&format!("cert-lines {}\n", cert.len()));
        for l in &cert {
            s.push_str(l);
            s.push('\n');
        }
        let mut h = Fnv1a::new();
        h.write(s.as_bytes());
        s.push_str(&format!("#fnv={:016x}\n", h.finish()));
        s
    }

    /// Parses and checksum-verifies an entry file (certificate
    /// *verification* is the caller's job — see [`DiskCache::load`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural or checksum
    /// problem.
    pub fn parse(text: &str) -> Result<CacheEntry, String> {
        let (body, tail) = text
            .rsplit_once("#fnv=")
            .ok_or_else(|| "missing #fnv= checksum line".to_string())?;
        let hex = tail
            .strip_suffix('\n')
            .ok_or("checksum line must end the file with a newline")?;
        let claimed = crate::parse_fnv_hex(hex)?;
        let mut h = Fnv1a::new();
        h.write(body.as_bytes());
        if h.finish() != claimed {
            return Err("checksum mismatch".into());
        }
        let mut lines = body.lines();
        if lines.next() != Some(HEADER) {
            return Err(format!("missing {HEADER:?} header"));
        }
        let key_line = lines.next().ok_or("missing key line")?;
        let key = key_line
            .strip_prefix("key ")
            .and_then(|v| u64::from_str_radix(v, 16).ok())
            .ok_or_else(|| format!("bad key line {key_line:?}"))?;
        let mut section = |name: &str| -> Result<String, String> {
            let head = lines
                .next()
                .ok_or_else(|| format!("missing {name} count"))?;
            let n: usize = head
                .strip_prefix(name)
                .and_then(|v| v.trim().parse().ok())
                .ok_or_else(|| format!("bad {name} count {head:?}"))?;
            let mut out = String::new();
            for i in 0..n {
                let l = lines
                    .next()
                    .ok_or_else(|| format!("{name} truncated at line {i}"))?;
                out.push_str(l);
                out.push('\n');
            }
            Ok(out)
        };
        let summary = section("summary-lines")?;
        let cert = section("cert-lines")?;
        if lines.next().is_some() {
            return Err("trailing lines after sections".into());
        }
        Ok(CacheEntry { key, summary, cert })
    }
}

/// The on-disk cache directory.
#[derive(Clone, Debug)]
pub struct DiskCache {
    dir: PathBuf,
}

impl DiskCache {
    /// Opens (creating if absent) the cache under `dir`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: &Path) -> Result<DiskCache, ServeError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| ServeError::io(format!("create cache dir {}: {e}", dir.display())))?;
        Ok(DiskCache {
            dir: dir.to_path_buf(),
        })
    }

    /// The entry path for `key`.
    pub fn path_of(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.entry"))
    }

    /// Persists `entry` atomically (temp + fsync + rename).
    ///
    /// # Errors
    ///
    /// Propagates write failures, including injected torn-write and
    /// disk-full faults.
    pub fn store(&self, entry: &CacheEntry, inj: &Injector) -> Result<(), ServeError> {
        atomic_write(&self.path_of(entry.key), entry.to_text().as_bytes(), inj)
    }

    /// Looks up `key`, re-verifying any entry found: the file checksum
    /// must hold, the recorded key must match, the certificate must
    /// parse, and the independent oracle must accept it against `hg`.
    /// A failing entry is deleted and reported as
    /// [`CacheLookup::Evicted`] — corrupt data is never served.
    pub fn load(&self, key: u64, hg: &Hypergraph) -> CacheLookup {
        let path = self.path_of(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CacheLookup::Miss,
            Err(e) => return self.evict(&path, format!("unreadable: {e}")),
        };
        let entry = match CacheEntry::parse(&text) {
            Ok(e) => e,
            Err(reason) => return self.evict(&path, reason),
        };
        if entry.key != key {
            return self.evict(
                &path,
                format!("key mismatch: entry says {:016x}", entry.key),
            );
        }
        match verify_text(hg, &entry.cert) {
            Ok(report) if report.is_clean() => CacheLookup::Hit(entry),
            Ok(report) => self.evict(
                &path,
                format!(
                    "certificate rejected with {} violation(s)",
                    report.violations().len()
                ),
            ),
            Err(e) => self.evict(&path, format!("certificate unparseable: {e}")),
        }
    }

    /// Number of entries currently on disk.
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter(|e| {
                    e.as_ref()
                        .map(|e| e.path().extension().is_some_and(|x| x == "entry"))
                        .unwrap_or(false)
                })
                .count()
            })
            .unwrap_or(0)
    }

    /// `true` when no entries are on disk.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn evict(&self, path: &Path, reason: String) -> CacheLookup {
        let _ = std::fs::remove_file(path);
        CacheLookup::Evicted { reason }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> CacheEntry {
        CacheEntry {
            key: 0xabc0_1234_5678_9def,
            summary: "10 runs: best cut 4, avg cut 5.2\nbest run: areas [12, 13]\n".into(),
            cert: "netpart-cert v1\nplaceholder body\n".into(),
        }
    }

    #[test]
    fn entry_round_trips() {
        let e = entry();
        let back = CacheEntry::parse(&e.to_text()).expect("parses");
        assert_eq!(back, e);
    }

    #[test]
    fn every_bit_flip_in_an_entry_is_detected() {
        let text = entry().to_text();
        let bytes = text.as_bytes();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut mutated = bytes.to_vec();
                mutated[i] ^= 1 << bit;
                let Ok(s) = String::from_utf8(mutated) else {
                    continue;
                };
                if let Ok(e) = CacheEntry::parse(&s) {
                    panic!(
                        "flip of bit {bit} at byte {i} survived parsing: {:?}",
                        e.key
                    );
                }
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        let text = entry().to_text();
        for cut in 1..text.len() {
            assert!(
                CacheEntry::parse(&text[..cut]).is_err(),
                "truncation at {cut} must not parse"
            );
        }
    }
}
