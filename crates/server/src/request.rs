//! The typed job-request API — the single front door to a simulation.
//!
//! A [`JobRequest`] is everything needed to run one simulation and emit
//! its [`RunArtifact`](dynapar_gpu::RunArtifact): a workload reference,
//! a policy, a seed, a metrics level, and a GPU preset. The CLI's `run`
//! subcommand and the daemon's `submit` request both construct this
//! type, and [`JobRequest::run`] and [`JobRequest::execute`] build the
//! same controller and the same run, so a `dynapar run` and a server
//! submit with equal configs produce *byte-identical* artifacts — that
//! identity is what makes config-hash memoization sound, and it is
//! pinned by the protocol test-suite and the CI smoke.

use dynapar_core::PolicySpec;
use dynapar_engine::fnv1a_64;
use dynapar_engine::json::Json;
use dynapar_gpu::{CanonicalConfig, GpuConfig, MetricsLevel, RunOutcome, WatchHook};
use dynapar_workloads::{suite, Benchmark, BenchmarkSpec, RunOptions, Scale};

/// A named GPU configuration preset.
///
/// The wire protocol carries presets (not raw config trees) so the
/// canonical hash always describes a config the binary can actually
/// instantiate; the full [`GpuConfig`] still enters the hash preimage
/// via [`CanonicalConfig`], so a preset whose *meaning* changes across
/// versions changes the hash too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GpuPreset {
    /// Tesla K20m (Table II) — the paper's machine and the default.
    #[default]
    KeplerK20m,
    /// The forward-looking Pascal-like variant.
    PascalLike,
    /// The tiny test machine (unit tests only).
    TestSmall,
}

impl GpuPreset {
    /// Canonical wire spelling.
    pub fn name(self) -> &'static str {
        match self {
            GpuPreset::KeplerK20m => "kepler-k20m",
            GpuPreset::PascalLike => "pascal-like",
            GpuPreset::TestSmall => "test-small",
        }
    }

    /// Parses the canonical spelling (inverse of [`name`](GpuPreset::name)).
    pub fn parse(s: &str) -> Option<GpuPreset> {
        match s {
            "kepler-k20m" => Some(GpuPreset::KeplerK20m),
            "pascal-like" => Some(GpuPreset::PascalLike),
            "test-small" => Some(GpuPreset::TestSmall),
            _ => None,
        }
    }

    /// Instantiates the preset.
    pub fn config(self) -> GpuConfig {
        match self {
            GpuPreset::KeplerK20m => GpuConfig::kepler_k20m(),
            GpuPreset::PascalLike => GpuConfig::pascal_like(),
            GpuPreset::TestSmall => GpuConfig::test_small(),
        }
    }
}

/// Which workload a job runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadRef {
    /// A Table I suite benchmark at a scale preset.
    Suite {
        /// Benchmark name (one of [`suite::NAMES`]).
        bench: String,
        /// Input-size preset.
        scale: Scale,
    },
    /// A benchmark described by an inline spec file (the
    /// [`BenchmarkSpec`] plain-text format, shipped in the request).
    Spec {
        /// The spec file's full text.
        text: String,
    },
}

impl WorkloadRef {
    /// The canonical workload identity string: `suite:NAME@SCALE` or
    /// `spec:HASH` (16-hex FNV-1a of the spec text). This is the
    /// `workload` member of [`CanonicalConfig`].
    pub fn canonical_id(&self) -> String {
        match self {
            WorkloadRef::Suite { bench, scale } => format!("suite:{bench}@{}", scale.name()),
            WorkloadRef::Spec { text } => format!("spec:{:016x}", fnv1a_64(text.as_bytes())),
        }
    }

    /// Builds the workload.
    ///
    /// # Errors
    ///
    /// Unknown suite benchmark names and spec parse errors (with line
    /// numbers) are reported as strings ready for the wire.
    pub fn build(&self, seed: u64) -> Result<Benchmark, String> {
        match self {
            WorkloadRef::Suite { bench, scale } => suite::by_name(bench, *scale, seed)
                .ok_or_else(|| format!("unknown benchmark {bench:?}; one of {:?}", suite::NAMES)),
            WorkloadRef::Spec { text } => Ok(BenchmarkSpec::parse(text)
                .map_err(|e| format!("spec: {e}"))?
                .build(seed)),
        }
    }
}

/// How a run starts: from cycle zero, armed to snapshot at a cycle, or
/// resumed from a previously captured snapshot.
#[derive(Debug, Clone, Copy)]
pub enum WarmStart<'a> {
    /// From cycle zero.
    Cold,
    /// From cycle zero, capturing a snapshot once simulated time passes
    /// `cycle`. The run still executes to completion, so the outcome
    /// carries both the full artifact *and* the snapshot bytes (in
    /// `RunOutcome::snapshot`; `None` when the run finished before
    /// `cycle`).
    Armed {
        /// The snapshot cycle.
        cycle: u64,
    },
    /// Warm-started from `snapshot`, captured by an armed run of a job
    /// sharing this job's warm-up identity. The resumed artifact is
    /// byte-identical to the cold run's — the fork-sweep invariant the
    /// snapshot layer pins.
    Resume {
        /// The snapshot container bytes.
        snapshot: &'a [u8],
    },
}

/// One simulation job: the request both the CLI and the daemon execute.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// The workload to run.
    pub workload: WorkloadRef,
    /// The launch policy.
    pub policy: PolicySpec,
    /// Workload-generator seed.
    pub seed: u64,
    /// Metrics level. `Off` produces no artifact, so the daemon rejects
    /// it at submit time.
    pub metrics: MetricsLevel,
    /// GPU preset.
    pub gpu: GpuPreset,
}

impl JobRequest {
    /// The canonical run identity (see [`CanonicalConfig`] for what is
    /// included and what is deliberately left out).
    pub fn canonical(&self) -> CanonicalConfig {
        CanonicalConfig {
            gpu: self.gpu.config(),
            workload: self.workload.canonical_id(),
            policy: self.policy.label(),
            seed: self.seed,
            metrics: self.metrics,
        }
    }

    /// Shorthand for `canonical().canonical_hash()`.
    pub fn canonical_hash(&self) -> u64 {
        self.canonical().canonical_hash()
    }

    /// Runs the job and returns the full outcome (report, optional
    /// trace, optional artifact). `trace_capacity` requests the bounded
    /// decision trace — pure observation, excluded from the canonical
    /// identity because it never changes artifact bytes.
    ///
    /// # Errors
    ///
    /// Workload construction errors (unknown benchmark, bad spec).
    pub fn run(&self, trace_capacity: Option<usize>) -> Result<RunOutcome, String> {
        let opts = RunOptions {
            trace_capacity,
            ..RunOptions::default()
        };
        self.launch(WarmStart::Cold, opts)
    }

    /// Runs the job from `start` (cold, armed, or resumed from a
    /// snapshot), handing every sampler tick to `watch` — how the
    /// daemon observes progress and cancels a run. The hook is pure
    /// observation: artifact bytes are identical with or without it.
    ///
    /// # Errors
    ///
    /// Workload errors, plus snapshot decode/compatibility errors for
    /// [`WarmStart::Resume`].
    pub fn execute(
        &self,
        start: WarmStart<'_>,
        watch: Option<WatchHook>,
    ) -> Result<RunOutcome, String> {
        let opts = RunOptions {
            watch,
            ..RunOptions::default()
        };
        self.launch(start, opts)
    }

    /// The warm-up identity attached to armed snapshots as metadata:
    /// enough for a human (or a test) to see which ramp a snapshot
    /// belongs to. Informational only — compatibility is enforced by
    /// the snapshot container itself.
    fn warmup_meta(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload.canonical_id())),
            ("gpu", Json::str(self.gpu.name())),
            ("seed", Json::U64(self.seed)),
            ("warmup_hash", Json::str(self.canonical().warmup_hex())),
        ])
    }

    fn launch(&self, start: WarmStart<'_>, mut opts: RunOptions) -> Result<RunOutcome, String> {
        let bench = self.workload.build(self.seed)?;
        let cfg = self.gpu.config();
        let ctrl = self
            .policy
            .controller(&cfg, bench.default_threshold(), self.metrics);
        match start {
            WarmStart::Cold => Ok(bench.run_full_opts(&cfg, ctrl, self.metrics, opts)),
            WarmStart::Armed { cycle } => {
                opts.snapshot_at = Some(cycle);
                opts.snapshot_meta = Some(self.warmup_meta());
                Ok(bench.run_full_opts(&cfg, ctrl, self.metrics, opts))
            }
            WarmStart::Resume { snapshot } => bench
                .run_resumed(&cfg, ctrl, self.metrics, opts, snapshot)
                .map_err(|e| format!("snapshot resume: {e}")),
        }
    }

    /// Renders the request in its wire form (the `job` object of a
    /// `submit` request). [`from_json`](JobRequest::from_json)
    /// round-trips it.
    pub fn to_json(&self) -> Json {
        let mut members: Vec<(&str, Json)> = Vec::new();
        match &self.workload {
            WorkloadRef::Suite { bench, scale } => {
                members.push(("bench", Json::str(bench.clone())));
                members.push(("scale", Json::str(scale.name())));
            }
            WorkloadRef::Spec { text } => members.push(("spec", Json::str(text.clone()))),
        }
        members.push(("policy", Json::str(self.policy.label())));
        members.push(("seed", Json::U64(self.seed)));
        members.push(("metrics", Json::str(self.metrics.as_str())));
        members.push(("gpu", Json::str(self.gpu.name())));
        Json::obj(members)
    }

    /// Parses the wire form. Strict: every key is validated, unknown
    /// keys are rejected by name (a typoed key must never silently run
    /// a default config), and exactly one of `bench`/`spec` is required.
    ///
    /// Defaults for omitted keys: `scale` paper, `seed` the suite
    /// default, `metrics` full, `gpu` kepler-k20m.
    ///
    /// # Errors
    ///
    /// A message naming the offending key.
    pub fn from_json(doc: &Json) -> Result<JobRequest, String> {
        let members = doc
            .as_object()
            .ok_or_else(|| "job must be a JSON object".to_string())?;
        const KNOWN: [&str; 7] = ["bench", "scale", "spec", "policy", "seed", "metrics", "gpu"];
        for (k, _) in members {
            if !KNOWN.contains(&k.as_str()) {
                return Err(format!("unknown job key {k:?}"));
            }
        }
        let str_key = |key: &str| -> Result<Option<&str>, String> {
            match doc.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_str()
                    .map(Some)
                    .ok_or_else(|| format!("job key {key:?} must be a string")),
            }
        };
        let u64_key = |key: &str| -> Result<Option<u64>, String> {
            match doc.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("job key {key:?} must be a non-negative integer")),
            }
        };

        let bench = str_key("bench")?;
        let spec = str_key("spec")?;
        let workload = match (bench, spec) {
            (Some(b), None) => {
                let scale = match str_key("scale")? {
                    None => Scale::Paper,
                    Some(s) => Scale::parse(s)
                        .ok_or_else(|| format!("bad scale {s:?}; expected tiny|small|paper"))?,
                };
                WorkloadRef::Suite {
                    bench: b.to_string(),
                    scale,
                }
            }
            (None, Some(text)) => {
                if doc.get("scale").is_some() {
                    return Err("`scale` only applies to `bench` jobs, not `spec` jobs".into());
                }
                WorkloadRef::Spec {
                    text: text.to_string(),
                }
            }
            (Some(_), Some(_)) => return Err("job has both `bench` and `spec`; pick one".into()),
            (None, None) => return Err("job needs `bench` or `spec`".into()),
        };
        let policy = match str_key("policy")? {
            Some(p) => PolicySpec::parse(p)?,
            None => return Err("job needs `policy`".into()),
        };
        let metrics = match str_key("metrics")? {
            None => MetricsLevel::Full,
            Some(m) => MetricsLevel::parse(m)
                .ok_or_else(|| format!("bad metrics {m:?}; expected {}", MetricsLevel::VALID_VALUES))?,
        };
        let gpu = match str_key("gpu")? {
            None => GpuPreset::KeplerK20m,
            Some(g) => GpuPreset::parse(g)
                .ok_or_else(|| format!("bad gpu {g:?}; expected kepler-k20m|pascal-like|test-small"))?,
        };
        Ok(JobRequest {
            workload,
            policy,
            seed: u64_key("seed")?.unwrap_or(suite::DEFAULT_SEED),
            metrics,
            gpu,
        })
    }
}

/// A threshold/policy sweep: one base job re-run under many policies.
///
/// The CLI `sweep` subcommand and the daemon's `sweep` request both
/// expand through [`SweepRequest::expand`], so the per-point configs —
/// and therefore the memo keys — are identical on both paths: a CLI
/// sweep warms the daemon's cache point by point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// The job every point shares (its `policy` is replaced per point).
    pub base: JobRequest,
    /// The policies to run, in order.
    pub policies: Vec<PolicySpec>,
    /// Warm-start fork point: when set, the daemon simulates the shared
    /// ramp once up to this cycle and forks every point from the
    /// snapshot instead of re-simulating the ramp per point. Pure
    /// optimization — per-point artifacts (and memo keys) are
    /// byte-identical either way, so omitting it only costs time.
    pub fork_warmup: Option<u64>,
}

impl SweepRequest {
    /// One [`JobRequest`] per policy, in input order.
    pub fn expand(&self) -> Vec<JobRequest> {
        self.policies
            .iter()
            .map(|p| JobRequest {
                policy: p.clone(),
                ..self.base.clone()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_req() -> JobRequest {
        JobRequest {
            workload: WorkloadRef::Suite {
                bench: "AMR".into(),
                scale: Scale::Tiny,
            },
            policy: PolicySpec::Spawn,
            seed: 7,
            metrics: MetricsLevel::Full,
            gpu: GpuPreset::KeplerK20m,
        }
    }

    #[test]
    fn wire_form_round_trips() {
        let req = tiny_req();
        let back = JobRequest::from_json(&req.to_json()).expect("round-trip");
        assert_eq!(back, req);
        let mut req = tiny_req();
        req.workload = WorkloadRef::Spec {
            text: "name demo\napp bfs\n".into(),
        };
        let back = JobRequest::from_json(&req.to_json()).expect("spec round-trip");
        assert_eq!(back, req);
    }

    #[test]
    fn from_json_rejects_unknown_keys_and_bad_shapes() {
        let bad = Json::parse(r#"{"bench":"AMR","policy":"spawn","bencch":"AMR"}"#).unwrap();
        let err = JobRequest::from_json(&bad).unwrap_err();
        assert!(err.contains("bencch"), "names the key: {err}");
        for (text, needle) in [
            (r#"{"policy":"spawn"}"#, "bench"),
            (r#"{"bench":"AMR","spec":"x","policy":"spawn"}"#, "pick one"),
            (r#"{"bench":"AMR"}"#, "policy"),
            (r#"{"bench":"AMR","policy":"warp9"}"#, "unknown policy"),
            (r#"{"bench":"AMR","policy":"spawn","scale":"huge"}"#, "bad scale"),
            (r#"{"bench":"AMR","policy":"spawn","seed":"x"}"#, "seed"),
            // Retired execution knobs: rejected like any unknown key.
            (
                r#"{"bench":"AMR","policy":"spawn","sim_jobs":2}"#,
                "unknown job key \"sim_jobs\"",
            ),
            (
                r#"{"bench":"AMR","policy":"spawn","sim_window":4}"#,
                "unknown job key \"sim_window\"",
            ),
            (r#"{"spec":"name x","policy":"spawn","scale":"tiny"}"#, "only applies"),
            (r#"[1]"#, "object"),
        ] {
            let doc = Json::parse(text).unwrap();
            let err = JobRequest::from_json(&doc).unwrap_err();
            assert!(err.contains(needle), "{text} -> {err}");
        }
    }

    #[test]
    fn canonical_identity_tracks_run_inputs() {
        let base = tiny_req();
        let mut other = tiny_req();
        other.seed += 1;
        assert_ne!(base.canonical_hash(), other.canonical_hash());
        let mut other = tiny_req();
        other.gpu = GpuPreset::TestSmall;
        assert_ne!(base.canonical_hash(), other.canonical_hash());
    }

    #[test]
    fn canonical_hash_is_pinned() {
        // Persisted `--store` entries are keyed by this hash, so a
        // daemon restarted on an existing store keeps hitting only while
        // the value stays put.
        assert_eq!(
            format!("{:016x}", tiny_req().canonical_hash()),
            "3a67e116f057a830"
        );
    }

    #[test]
    fn sweep_expands_in_order_with_base_fields() {
        let sweep = SweepRequest {
            base: tiny_req(),
            policies: vec![PolicySpec::Flat, PolicySpec::Threshold(8)],
            fork_warmup: None,
        };
        let jobs = sweep.expand();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].policy, PolicySpec::Flat);
        assert_eq!(jobs[1].policy, PolicySpec::Threshold(8));
        assert_eq!(jobs[1].seed, sweep.base.seed);
        assert_eq!(jobs[1].workload, sweep.base.workload);
    }

    #[test]
    fn armed_and_forked_runs_match_cold_artifacts() {
        let cold_out = tiny_req().run(None).expect("cold");
        let cold = cold_out.artifact.expect("artifact").to_string();
        let warmup = cold_out.report.total_cycles / 2;
        assert!(warmup > 0, "tiny run long enough to split");

        // Armed run: identical artifact, plus captured snapshot bytes.
        let armed = tiny_req()
            .execute(WarmStart::Armed { cycle: warmup }, None)
            .expect("armed");
        assert_eq!(armed.artifact.expect("artifact").to_string(), cold);
        let snap = armed.snapshot.expect("snapshot captured mid-run");

        // Same-identity fork resumes and reproduces the cold bytes.
        let forked = tiny_req()
            .execute(WarmStart::Resume { snapshot: &snap }, None)
            .expect("forked");
        assert_eq!(forked.artifact.expect("artifact").to_string(), cold);

        // Garbage bytes are rejected, not misinterpreted.
        let err = tiny_req()
            .execute(WarmStart::Resume { snapshot: b"not a snapshot" }, None)
            .unwrap_err();
        assert!(err.contains("snapshot"), "names the failure: {err}");
    }
}
