//! The typed job-request API — the single front door to a simulation.
//!
//! A [`JobRequest`] is everything needed to run one simulation and emit
//! its [`RunArtifact`]: a workload reference, a policy, a seed, a
//! metrics level, and a GPU preset. The CLI's `run` subcommand and the
//! daemon's `submit`
//! request both construct this type and both execute through
//! [`JobRequest::run`], so a `dynapar run` and a server submit with
//! equal configs produce *byte-identical* artifacts — that identity is
//! what makes config-hash memoization sound, and it is pinned by the
//! protocol test-suite and the CI smoke.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use dynapar_core::PolicySpec;
use dynapar_engine::fnv1a_64;
use dynapar_engine::json::Json;
use dynapar_gpu::{
    CanonicalConfig, ChildRequest, ControllerEvent, GpuConfig, LaunchController, LaunchDecision,
    MetricsLevel, MonitoredMetrics, RunArtifact, RunOutcome, WatchHook,
};
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

/// Daemon-side observation hooks for one run. All three are pure
/// observation: artifact bytes are identical with or without them
/// (pinned by `progress_tap_is_byte_invisible` and the gpu crate's
/// watch-hook test).
#[derive(Default)]
pub struct Observation {
    /// Receives the latest simulated cycle.
    pub progress: Option<Arc<AtomicU64>>,
    /// Aborts the run at the next launch decision (by unwinding; the
    /// daemon's worker catches it).
    pub cancel: Option<Arc<AtomicBool>>,
    /// Receives one [`dynapar_gpu::WatchSample`] per sampler firing —
    /// the daemon feeds these to `watch` streams.
    pub watch: Option<WatchHook>,
}

/// How a run starts: from cycle zero, armed to snapshot at a cycle, or
/// resumed from a previously captured snapshot.
enum WarmStart<'a> {
    Cold,
    Armed { cycle: u64 },
    Resume { snapshot: &'a [u8] },
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
    /// it at submit time; the CLI only routes artifact-producing runs
    /// through [`JobRequest::artifact`].
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
        self.run_observed(trace_capacity, None, None)
    }

    /// [`run`](JobRequest::run) with daemon-side observation hooks:
    /// `progress` receives the latest simulated cycle, `cancel` aborts
    /// the run at the next launch decision (by unwinding; the daemon's
    /// worker catches it). Both are pure observation — artifact bytes
    /// are identical with or without them.
    pub fn run_observed(
        &self,
        trace_capacity: Option<usize>,
        progress: Option<Arc<AtomicU64>>,
        cancel: Option<Arc<AtomicBool>>,
    ) -> Result<RunOutcome, String> {
        let obs = Observation {
            progress,
            cancel,
            watch: None,
        };
        self.run_with(trace_capacity, obs, WarmStart::Cold)
    }

    /// [`run`](JobRequest::run) with the full observation bundle
    /// (progress, cancel, watch) — the daemon's cold execution path.
    ///
    /// # Errors
    ///
    /// Workload construction errors.
    pub fn run_cold(&self, obs: Observation) -> Result<RunOutcome, String> {
        self.run_with(None, obs, WarmStart::Cold)
    }

    /// Runs the job armed to capture a snapshot once simulated time
    /// passes `cycle`. The run still executes to completion, so the
    /// outcome carries both the full artifact *and* the snapshot bytes
    /// (in `RunOutcome::snapshot`; `None` when the run finished before
    /// `cycle`).
    ///
    /// # Errors
    ///
    /// Workload construction errors.
    pub fn run_armed(&self, cycle: u64, obs: Observation) -> Result<RunOutcome, String> {
        self.run_with(None, obs, WarmStart::Armed { cycle })
    }

    /// Runs the job warm-started from `snapshot` (captured by
    /// [`run_armed`](JobRequest::run_armed) on a job sharing this job's
    /// warm-up identity). The resumed artifact is byte-identical to the
    /// cold run's — the fork-sweep invariant the snapshot layer pins.
    ///
    /// # Errors
    ///
    /// Workload errors, plus snapshot decode/compatibility errors
    /// (callers fall back to a cold run).
    pub fn run_forked(&self, snapshot: &[u8], obs: Observation) -> Result<RunOutcome, String> {
        self.run_with(None, obs, WarmStart::Resume { snapshot })
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

    fn run_with(
        &self,
        trace_capacity: Option<usize>,
        obs: Observation,
        warm: WarmStart<'_>,
    ) -> Result<RunOutcome, String> {
        let bench = self.workload.build(self.seed)?;
        let cfg = self.gpu.config();
        let inner = self
            .policy
            .controller(&cfg, bench.default_threshold(), self.metrics);
        let Observation {
            progress,
            cancel,
            watch,
        } = obs;
        let ctrl: Box<dyn LaunchController> = if progress.is_some() || cancel.is_some() {
            Box::new(ProgressTap {
                inner,
                progress,
                cancel,
            })
        } else {
            inner
        };
        let mut opts = RunOptions {
            trace_capacity,
            snapshot_at: None,
            snapshot_meta: None,
            watch,
        };
        match warm {
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

    /// Runs the job and returns its artifact — the daemon's execution
    /// path (and the byte-identity reference for the CLI's).
    ///
    /// # Errors
    ///
    /// Workload errors, plus `metrics: off` (no artifact to return).
    pub fn artifact(&self) -> Result<RunArtifact, String> {
        self.run(None)?
            .artifact
            .ok_or_else(|| "metrics level `off` produces no artifact; use summary|full|timeseries".to_string())
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

/// A delegating [`LaunchController`] wrapper that publishes the latest
/// simulated cycle and honours a cancel flag. Every trait method
/// forwards to the inner policy, so wrapping never changes simulated
/// behavior or artifact bytes — the tap only *reads*.
struct ProgressTap {
    inner: Box<dyn LaunchController>,
    progress: Option<Arc<AtomicU64>>,
    cancel: Option<Arc<AtomicBool>>,
}

impl ProgressTap {
    fn tick(&self, now: u64) {
        if let Some(p) = &self.progress {
            p.store(now, Ordering::Relaxed);
        }
        if let Some(c) = &self.cancel {
            if c.load(Ordering::Relaxed) {
                // Unwind out of the simulation; the daemon's worker
                // catches this and marks the job cancelled. The panic
                // message is a sentinel the worker recognizes.
                panic!("dynapar-server: job cancelled");
            }
        }
    }
}

impl LaunchController for ProgressTap {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, req: &ChildRequest) -> LaunchDecision {
        self.tick(req.now.0);
        self.inner.decide(req)
    }

    fn observe(&mut self, ev: &ControllerEvent) {
        let now = match *ev {
            ControllerEvent::ChildCtaStart { now } => now,
            ControllerEvent::ChildCtaFinish { now, .. } => now,
            ControllerEvent::ChildWarpFinish { now, .. } => now,
        };
        self.tick(now.0);
        self.inner.observe(ev);
    }

    fn monitored(&self) -> Option<MonitoredMetrics> {
        self.inner.monitored()
    }

    fn predictions(&self) -> Option<&[u64]> {
        self.inner.predictions()
    }

    fn export_metrics(&self, reg: &mut dynapar_gpu::MetricsRegistry) {
        self.inner.export_metrics(reg);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
}

/// The sentinel message [`ProgressTap`] panics with on cancellation.
pub(crate) const CANCEL_SENTINEL: &str = "dynapar-server: job cancelled";

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
            .run_armed(warmup, Observation::default())
            .expect("armed");
        assert_eq!(armed.artifact.expect("artifact").to_string(), cold);
        let snap = armed.snapshot.expect("snapshot captured mid-run");

        // Same-identity fork resumes and reproduces the cold bytes.
        let forked = tiny_req()
            .run_forked(&snap, Observation::default())
            .expect("forked");
        assert_eq!(forked.artifact.expect("artifact").to_string(), cold);

        // Garbage bytes are rejected, not misinterpreted.
        let err = tiny_req()
            .run_forked(b"not a snapshot", Observation::default())
            .unwrap_err();
        assert!(err.contains("snapshot"), "names the failure: {err}");
    }

    #[test]
    fn progress_tap_is_byte_invisible() {
        let req = tiny_req();
        let plain = req.artifact().expect("plain");
        let progress = Arc::new(AtomicU64::new(0));
        let out = req
            .run_observed(None, Some(progress.clone()), None)
            .expect("tapped");
        let tapped = out.artifact.expect("artifact");
        assert_eq!(plain.to_string(), tapped.to_string());
        assert!(progress.load(Ordering::Relaxed) > 0, "tap saw progress");
    }
}
