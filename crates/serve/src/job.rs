//! Job specification files.
//!
//! A job is a small checksummed text file dropped into `spool/jobs/`
//! next to a copy of its netlist, so the spool is self-contained — the
//! submitting process can disappear (or the original netlist change)
//! without affecting queued work:
//!
//! ```text
//! netpart-job v1
//! cmd kway
//! netlist jobs/j42.blif
//! seed 7
//! candidates 10
//! tasks 4
//! replication functional
//! threshold 0
//! budget-ms 2000
//! #fnv=4f1c33a09be2d718
//! ```
//!
//! The trailing `#fnv=` line covers every preceding byte; a spec that
//! fails its checksum (or does not parse) is never executed — the
//! server quarantines the job as invalid input.

use netpart_core::{BipartitionConfig, Budget, KWayConfig, PartitionError, ReplicationMode};
use netpart_fpga::DeviceLibrary;
use netpart_hypergraph::Hypergraph;
use netpart_rng::Fnv1a;

/// Which partitioning command a job runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobCmd {
    /// Multi-start equal-halves bipartitioning (`netpart bipartition`).
    Bipartition,
    /// Heterogeneous k-way partitioning (`netpart kway`).
    Kway,
}

impl JobCmd {
    /// The spec-file spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            JobCmd::Bipartition => "bipartition",
            JobCmd::Kway => "kway",
        }
    }
}

/// A parsed job specification.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// The command to run.
    pub cmd: JobCmd,
    /// Netlist path, relative to the spool root.
    pub netlist: String,
    /// Base RNG seed.
    pub seed: u64,
    /// Bipartition: number of portfolio runs.
    pub runs: usize,
    /// Bipartition: equal-halves area tolerance.
    pub epsilon: f64,
    /// K-way: feasible-candidate target.
    pub candidates: usize,
    /// K-way: portfolio task count (jobs-invariance pivot).
    pub tasks: usize,
    /// Replication moves enabled.
    pub replication: ReplicationMode,
    /// Wall budget in milliseconds (0 = unlimited).
    pub budget_ms: u64,
    /// Move budget (0 = unlimited).
    pub max_moves: u64,
    /// Per-job retry-allowance override (None = server default).
    pub max_retries: Option<u32>,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            cmd: JobCmd::Kway,
            netlist: String::new(),
            seed: 1,
            runs: 10,
            epsilon: 0.1,
            candidates: 10,
            tasks: 4,
            replication: ReplicationMode::functional(0),
            budget_ms: 0,
            max_moves: 0,
            max_retries: None,
        }
    }
}

/// Returns `true` for ids safe to embed in spool paths and journal
/// records: non-empty, `[A-Za-z0-9._-]`, no leading dot.
pub fn valid_job_id(id: &str) -> bool {
    !id.is_empty()
        && !id.starts_with('.')
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
}

/// FNV-1a digest of a whole spool file (specs, netlists) — the value
/// journaled by `submit` records to pin what was admitted.
pub fn file_fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

impl JobSpec {
    /// Renders the spec file, including its trailing checksum line.
    pub fn to_text(&self) -> String {
        let mut s = String::from("netpart-job v1\n");
        s.push_str(&format!("cmd {}\n", self.cmd.as_str()));
        s.push_str(&format!("netlist {}\n", self.netlist));
        s.push_str(&format!("seed {}\n", self.seed));
        match self.cmd {
            JobCmd::Bipartition => {
                s.push_str(&format!("runs {}\n", self.runs));
                s.push_str(&format!("epsilon {}\n", self.epsilon));
            }
            JobCmd::Kway => {
                s.push_str(&format!("candidates {}\n", self.candidates));
                s.push_str(&format!("tasks {}\n", self.tasks));
            }
        }
        match self.replication {
            ReplicationMode::None => s.push_str("replication none\n"),
            ReplicationMode::Traditional => s.push_str("replication traditional\n"),
            ReplicationMode::Functional { threshold } => {
                s.push_str("replication functional\n");
                s.push_str(&format!("threshold {threshold}\n"));
            }
        }
        if self.budget_ms > 0 {
            s.push_str(&format!("budget-ms {}\n", self.budget_ms));
        }
        if self.max_moves > 0 {
            s.push_str(&format!("max-moves {}\n", self.max_moves));
        }
        if let Some(n) = self.max_retries {
            s.push_str(&format!("max-retries {n}\n"));
        }
        let mut h = Fnv1a::new();
        h.write(s.as_bytes());
        s.push_str(&format!("#fnv={:016x}\n", h.finish()));
        s
    }

    /// Parses and checksum-verifies a spec file.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::InvalidInput`] — a permanent error, so
    /// a malformed or tampered spec quarantines immediately instead of
    /// burning retries.
    pub fn parse(text: &str) -> Result<JobSpec, PartitionError> {
        let bad = |what: &str| PartitionError::InvalidInput {
            what: format!("job spec: {what}"),
        };
        let (body, tail) = text
            .rsplit_once("#fnv=")
            .ok_or_else(|| bad("missing #fnv= checksum line"))?;
        let claimed = crate::parse_fnv_hex(tail.trim_end_matches('\n')).map_err(|e| bad(&e))?;
        let mut h = Fnv1a::new();
        h.write(body.as_bytes());
        if h.finish() != claimed {
            return Err(bad("checksum mismatch (spec corrupt or tampered)"));
        }
        let mut lines = body.lines();
        if lines.next() != Some("netpart-job v1") {
            return Err(bad("missing 'netpart-job v1' header"));
        }
        let mut spec = JobSpec::default();
        let mut cmd = None;
        let mut replication = None;
        let mut threshold = 0u32;
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, val) = line
                .split_once(' ')
                .ok_or_else(|| bad(&format!("malformed line {line:?}")))?;
            let int = |what: &str| -> Result<u64, PartitionError> {
                val.parse()
                    .map_err(|e| bad(&format!("bad {what} {val:?}: {e}")))
            };
            match key {
                "cmd" => {
                    cmd = Some(match val {
                        "bipartition" => JobCmd::Bipartition,
                        "kway" => JobCmd::Kway,
                        other => return Err(bad(&format!("unknown cmd {other:?}"))),
                    })
                }
                "netlist" => spec.netlist = val.to_string(),
                "seed" => spec.seed = int("seed")?,
                "runs" => spec.runs = int("runs")?.max(1) as usize,
                "epsilon" => {
                    spec.epsilon = val
                        .parse()
                        .map_err(|e| bad(&format!("bad epsilon {val:?}: {e}")))?;
                    if !(0.0..=1.0).contains(&spec.epsilon) {
                        return Err(bad(&format!("epsilon {val} outside [0, 1]")));
                    }
                }
                "candidates" => spec.candidates = int("candidates")?.max(1) as usize,
                "tasks" => spec.tasks = int("tasks")?.max(1) as usize,
                "replication" => replication = Some(val.to_string()),
                "threshold" => threshold = int("threshold")? as u32,
                "budget-ms" => spec.budget_ms = int("budget-ms")?,
                "max-moves" => spec.max_moves = int("max-moves")?,
                "max-retries" => spec.max_retries = Some(int("max-retries")? as u32),
                other => return Err(bad(&format!("unknown key {other:?}"))),
            }
        }
        spec.cmd = cmd.ok_or_else(|| bad("missing cmd line"))?;
        spec.replication = match replication.as_deref() {
            None | Some("functional") => ReplicationMode::functional(threshold),
            Some("none") => ReplicationMode::None,
            Some("traditional") => ReplicationMode::Traditional,
            Some(other) => return Err(bad(&format!("unknown replication mode {other:?}"))),
        };
        if spec.netlist.is_empty() {
            return Err(bad("missing netlist line"));
        }
        if spec.cmd == JobCmd::Kway && spec.replication == ReplicationMode::Traditional {
            return Err(bad("k-way does not support traditional replication"));
        }
        Ok(spec)
    }

    /// The key the result cache and the journal name this request by:
    /// an FNV-1a digest of the spec text with the netlist path and
    /// max-retries cleared, followed by the netlist file bytes. Two jobs
    /// share a key exactly when the engine sees the same request; the
    /// job id, where the netlist copy lives and how often a failure may
    /// be retried do not change the result.
    pub fn request_key(&self, netlist: &[u8]) -> u64 {
        let request = JobSpec {
            netlist: String::new(),
            max_retries: None,
            ..self.clone()
        };
        let mut h = Fnv1a::new();
        h.write(request.to_text().as_bytes());
        h.write(netlist);
        h.finish()
    }

    /// The work budget this spec requests.
    pub fn budget(&self) -> Budget {
        let mut b = Budget::none();
        if self.budget_ms > 0 {
            b = Budget::wall_ms(self.budget_ms);
        }
        if self.max_moves > 0 {
            b.max_moves = Some(self.max_moves);
        }
        b
    }

    /// The bipartition configuration for `hg` (equal halves at this
    /// spec's tolerance, seed, replication and budget).
    pub fn bipartition_config(&self, hg: &Hypergraph) -> BipartitionConfig {
        BipartitionConfig::equal(hg, self.epsilon)
            .with_seed(self.seed)
            .with_replication(self.replication)
            .with_budget(self.budget())
    }

    /// The k-way configuration over `lib` (mirrors the CLI defaults:
    /// pass limit 8).
    pub fn kway_config(&self, lib: DeviceLibrary) -> KWayConfig {
        KWayConfig::new(lib)
            .with_candidates(self.candidates)
            .with_seed(self.seed)
            .with_max_passes(8)
            .with_budget(self.budget())
            .with_replication(self.replication)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_both_commands() {
        let kway = JobSpec {
            cmd: JobCmd::Kway,
            netlist: "jobs/j1.blif".into(),
            seed: 9,
            candidates: 5,
            tasks: 2,
            replication: ReplicationMode::functional(3),
            budget_ms: 1500,
            max_retries: Some(1),
            ..JobSpec::default()
        };
        assert_eq!(JobSpec::parse(&kway.to_text()).expect("kway parses"), kway);

        let bi = JobSpec {
            cmd: JobCmd::Bipartition,
            netlist: "jobs/j2.blif".into(),
            runs: 3,
            epsilon: 0.25,
            replication: ReplicationMode::None,
            max_moves: 5000,
            ..JobSpec::default()
        };
        assert_eq!(JobSpec::parse(&bi.to_text()).expect("bi parses"), bi);
    }

    #[test]
    fn tampered_spec_is_rejected_as_invalid_input() {
        let text = JobSpec {
            netlist: "jobs/x.blif".into(),
            ..JobSpec::default()
        }
        .to_text();
        let tampered = text.replace("seed 1", "seed 2");
        let err = JobSpec::parse(&tampered).expect_err("checksum catches tampering");
        assert!(
            matches!(err, PartitionError::InvalidInput { .. }),
            "permanent error, not retryable: {err}"
        );
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn malformed_specs_name_the_problem() {
        for (text, needle) in [
            ("no checksum at all", "#fnv="),
            ("#fnv=zzzz", "bad checksum hex"),
        ] {
            let err = JobSpec::parse(text).expect_err("rejected");
            assert!(err.to_string().contains(needle), "{err} vs {needle}");
        }
        // A well-checksummed spec missing required lines still fails.
        let mut body = String::from("netpart-job v1\nseed 4\n");
        let mut h = Fnv1a::new();
        h.write(body.as_bytes());
        body.push_str(&format!("#fnv={:016x}\n", h.finish()));
        let err = JobSpec::parse(&body).expect_err("missing cmd");
        assert!(err.to_string().contains("missing cmd"), "{err}");
    }

    #[test]
    fn request_key_distinguishes_every_knob() {
        let nl = b".model m\n.end\n";
        let edited = |base: &JobSpec, edit: fn(&mut JobSpec)| {
            let mut spec = base.clone();
            edit(&mut spec);
            spec.request_key(nl)
        };
        let kw = JobSpec {
            netlist: "jobs/a.blif".into(),
            ..JobSpec::default()
        };
        let bi = JobSpec {
            cmd: JobCmd::Bipartition,
            ..kw.clone()
        };
        assert_ne!(bi.request_key(nl), kw.request_key(nl));
        let shared: [fn(&mut JobSpec); 5] = [
            |s| s.seed = 2,
            |s| s.replication = ReplicationMode::None,
            |s| s.replication = ReplicationMode::functional(1),
            |s| s.budget_ms = 5,
            |s| s.max_moves = 5,
        ];
        for base in [&bi, &kw] {
            let key = base.request_key(nl);
            // Where the netlist copy lives and the retry allowance name
            // or schedule the job; they do not change the request.
            assert_eq!(key, edited(base, |s| s.netlist = "jobs/b.blif".into()));
            assert_eq!(key, edited(base, |s| s.max_retries = Some(3)));
            for edit in shared {
                assert_ne!(key, edited(base, edit));
            }
            assert_ne!(key, base.request_key(b".model m\n.end\n\n"));
        }
        // Each command's own fields count; the other command's do not.
        let bi_only: [fn(&mut JobSpec); 2] = [|s| s.runs = 3, |s| s.epsilon = 0.2];
        let kw_only: [fn(&mut JobSpec); 2] = [|s| s.candidates = 3, |s| s.tasks = 2];
        for edit in bi_only {
            assert_ne!(bi.request_key(nl), edited(&bi, edit));
            assert_eq!(kw.request_key(nl), edited(&kw, edit));
        }
        for edit in kw_only {
            assert_ne!(kw.request_key(nl), edited(&kw, edit));
            assert_eq!(bi.request_key(nl), edited(&bi, edit));
        }
    }

    /// Request keys name cache files and journal records that outlive
    /// the process, so the encoding is pinned: a change here orphans
    /// every cache entry written before it.
    #[test]
    fn request_key_is_pinned() {
        let spec = JobSpec {
            netlist: "jobs/j1.blif".into(),
            seed: 7,
            budget_ms: 2000,
            ..JobSpec::default()
        };
        assert_eq!(
            spec.request_key(b".model m\n.end\n"),
            4_569_179_829_887_034_150
        );
    }

    #[test]
    fn job_id_validation() {
        assert!(valid_job_id("j42"));
        assert!(valid_job_id("net_list-v2.run1"));
        assert!(!valid_job_id(""));
        assert!(!valid_job_id(".hidden"));
        assert!(!valid_job_id("a/b"));
        assert!(!valid_job_id("sp ace"));
    }

    #[test]
    fn budget_assembly() {
        let spec = JobSpec {
            budget_ms: 100,
            max_moves: 7,
            ..JobSpec::default()
        };
        let b = spec.budget();
        assert_eq!(b.wall_ms, Some(100));
        assert_eq!(b.max_moves, Some(7));
        assert!(JobSpec::default().budget().wall_ms.is_none());
    }
}
