//! Runs one workload: set-up, measured passes, output checks, and the
//! metrics they yield.
//!
//! A pass runs every job of the workload once. An untraced run makes
//! untraced passes until `seconds` have elapsed; a traced run alternates
//! untraced and traced passes (at least one of each), so the tracing
//! overhead is measured in the same process.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dynapar_engine::fnv1a_64;
use dynapar_gpu::{Json, SimReport};
use dynapar_server::proto::Request;
use dynapar_server::request::JobRequest;
use dynapar_server::{Client, Server, ServerConfig};
use dynapar_workloads::{RunOptions, Scale};

use crate::jobs::{job, Workload, PAPER_BENCHES};
use crate::report::{Value, Values};
use crate::stats::{median, per_job_medians, quantile};
use crate::trace::{layer_total_ms, Tracer};

/// Worker threads of the in-process daemon.
pub const DAEMON_WORKERS: usize = 2;
/// Set-up repetitions of `run-paper` whose median is its `setup_s`.
const SETUP_REPEATS: usize = 3;
/// Binds of a cold daemon per run (at least one per pass): a bind on
/// an empty store takes well under a millisecond, so the median needs
/// many.
const COLD_BINDS: usize = 11;
/// Most failure messages kept for the report.
const MAX_PROBLEMS: usize = 20;

/// What to run.
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Workload seed: every job gets it.
    pub seed: u64,
    /// Measure for at least this long (at least one pass is made).
    pub seconds: f64,
    /// Make a traced run (per-layer metrics) instead of an untraced one.
    pub trace: bool,
    /// Input scale; `None` is the workload's own.
    pub scale: Option<Scale>,
    /// Scratch directory for artifacts and stores (created if absent).
    pub work_dir: PathBuf,
    /// The `perfbench-profiled` binary for the profiled sub-run of a
    /// traced run; `None` reports the phase shares as 0.
    pub profiled_bin: Option<PathBuf>,
}

/// Simulated counts summed over the jobs of one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Events processed.
    pub events: u64,
    /// Simulated cycles.
    pub total_cycles: u64,
    /// L1 accesses.
    pub l1_accesses: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// DRAM accesses.
    pub dram_accesses: u64,
    /// Launch requests seen by the policy.
    pub launch_requests: u64,
    /// Child kernels launched.
    pub child_kernels_launched: u64,
}

impl Counts {
    fn of(r: &SimReport) -> Counts {
        Counts {
            events: r.events_processed,
            total_cycles: r.total_cycles,
            l1_accesses: r.mem.l1_accesses,
            l2_accesses: r.mem.l2_accesses,
            l2_hits: r.mem.l2_hits,
            dram_accesses: r.mem.dram_accesses,
            launch_requests: r.launch_requests,
            child_kernels_launched: r.child_kernels_launched,
        }
    }

    fn add(&mut self, o: &Counts) {
        self.events += o.events;
        self.total_cycles += o.total_cycles;
        self.l1_accesses += o.l1_accesses;
        self.l2_accesses += o.l2_accesses;
        self.l2_hits += o.l2_hits;
        self.dram_accesses += o.dram_accesses;
        self.launch_requests += o.launch_requests;
        self.child_kernels_launched += o.child_kernels_launched;
    }

    fn insert_into(&self, v: &mut Values) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        for (name, value) in [
            ("gpu.events", self.events as f64),
            ("gpu.total_cycles", self.total_cycles as f64),
            ("gpu.l1_accesses", self.l1_accesses as f64),
            ("gpu.l2_accesses", self.l2_accesses as f64),
            ("gpu.dram_accesses", self.dram_accesses as f64),
            ("gpu.l2_hit_rate", ratio(self.l2_hits, self.l2_accesses)),
            ("gpu.dram_per_event", ratio(self.dram_accesses, self.events)),
            ("core.launch_requests", self.launch_requests as f64),
            (
                "core.child_kernels_launched",
                self.child_kernels_launched as f64,
            ),
        ] {
            v.insert(name, Value { value, samples: 1 });
        }
    }
}

/// What a run measured and found.
pub struct Outcome {
    /// End-to-end metrics always; per-layer metrics too in a traced run.
    pub values: Values,
    /// Operations attempted (jobs run or served, plus daemon-level checks).
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// The first failure messages.
    pub problems: Vec<String>,
    /// FNV-1a over the per-job artifact digests, in job order.
    pub digest: u64,
    /// Artifact bytes of one pass.
    pub artifact_bytes: u64,
    /// Simulated counts of one pass.
    pub counts: Counts,
    /// Each job's latency in ms, median over the untraced passes: the
    /// values the latency percentiles are taken over.
    pub job_latencies_ms: Vec<f64>,
    /// The traced run's spans (empty when untraced).
    pub tracer: Tracer,
}

#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checks {
    fn op(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.problems.len() < MAX_PROBLEMS {
                self.problems.push(format!("{what}: {e}"));
            }
        }
    }
}

/// One job's output, as passes compare it: the digest and length of
/// its artifact text (without the trailing newline `--emit-json` adds)
/// and its simulated counts. Texts are not kept, so the benchmark's own
/// memory does not grow with the number of passes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Done {
    digest: u64,
    len: u64,
    counts: Counts,
}

impl Done {
    fn new(text: &str, counts: Counts) -> Done {
        Done {
            digest: fnv1a_64(text.as_bytes()),
            len: text.len() as u64,
            counts,
        }
    }
}

/// Everything the passes of one run collect.
#[derive(Default)]
struct Measure {
    setup_s: Vec<f64>,
    /// Per untraced pass, each job's latency in job order.
    latencies_ms: Vec<Vec<f64>>,
    pass_ms: Vec<f64>,
    jobs_per_s: Vec<f64>,
    events_per_s: Vec<f64>,
    traced_pass_ms: Vec<f64>,
    traced_self_ms: Vec<BTreeMap<&'static str, f64>>,
    decoded_bytes: Vec<u64>,
}

impl Measure {
    fn record_pass(&mut self, traced: bool, t: &Tracer, pass: &Pass, events: u64) {
        if traced {
            self.traced_pass_ms.push(pass.wall_ms);
            self.traced_self_ms.push(t.self_ms_under(pass.span));
            self.decoded_bytes.push(pass.decoded_bytes);
        } else {
            let wall_s = pass.wall_ms / 1e3;
            self.pass_ms.push(pass.wall_ms);
            self.latencies_ms.push(pass.latencies_ms.clone());
            self.jobs_per_s
                .push(pass.latencies_ms.len() as f64 / wall_s);
            self.events_per_s.push(events as f64 / wall_s);
        }
    }

    /// Median per-pass self time of span `name` over the traced passes.
    fn layer_ms(&self, name: &str) -> f64 {
        let per_pass: Vec<f64> = self
            .traced_self_ms
            .iter()
            .map(|m| m.get(name).copied().unwrap_or(0.0))
            .collect();
        median(&per_pass).unwrap_or(0.0)
    }
}

/// One pass's timing; `span` is the index of its `pass` span.
struct Pass {
    wall_ms: f64,
    latencies_ms: Vec<f64>,
    span: usize,
    decoded_bytes: u64,
}

/// Runs `cfg.workload` and returns what it measured.
///
/// # Errors
///
/// Set-up failures that leave nothing to measure (a daemon that does not
/// bind, an unwritable work directory). Wrong outputs are not errors:
/// they are counted in [`Outcome::failed`].
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("creating {}: {e}", cfg.work_dir.display()))?;
    let scale = cfg.scale.unwrap_or(cfg.workload.scale());
    let jobs = cfg.workload.jobs(cfg.seed, scale);
    let mut t = Tracer::new(cfg.trace);
    let mut m = Measure::default();
    let mut c = Checks::default();
    let mut layers = Values::new();
    // Another pass is made until `seconds` have passed since set-up
    // ended; a traced run needs an untraced and a traced pass.
    let more = |passes: usize, since: Instant| {
        passes < if cfg.trace { 2 } else { 1 } || since.elapsed().as_secs_f64() < cfg.seconds
    };
    let passes = match cfg.workload {
        Workload::RunPaper => run_paper(cfg, &jobs, &mut t, &mut m, &mut c, more)?,
        Workload::DaemonCold | Workload::DaemonWarm => {
            run_daemon(cfg, &jobs, &mut t, &mut m, &mut c, &mut layers, more)?
        }
    };
    let first = passes.first().ok_or("no pass was made")?;
    for (i, pass) in passes.iter().enumerate().skip(1) {
        for (j, (a, b)) in first.iter().zip(pass).enumerate() {
            c.op(
                "pass consistency",
                same_output(a, b, &format!("job {} pass {i}", j + 1)),
            );
        }
    }
    let mut counts = Counts::default();
    let mut acc = Vec::new();
    let mut artifact_bytes = 0u64;
    for d in first.iter().flatten() {
        counts.add(&d.counts);
        acc.extend_from_slice(&d.digest.to_le_bytes());
        artifact_bytes += d.len + 1;
    }

    let mut values = Values::new();
    let med = |v: &[f64]| Value {
        value: median(v).unwrap_or(0.0),
        samples: v.len(),
    };
    values.insert("setup_s", med(&m.setup_s));
    values.insert("jobs_per_s", med(&m.jobs_per_s));
    values.insert("events_per_s", med(&m.events_per_s));
    // Each job's median over passes first, then an interpolated quantile
    // over the jobs: a pass repeats the same jobs, so pooling the raw
    // samples would make a percentile jump between neighbouring jobs
    // with the number of passes and with noise.
    let job_latencies_ms = per_job_medians(&m.latencies_ms);
    let samples = m.latencies_ms.iter().map(Vec::len).sum();
    let pct = |q| Value {
        value: quantile(&job_latencies_ms, q).unwrap_or(0.0),
        samples,
    };
    values.insert("latency_p50_ms", pct(0.5));
    values.insert("latency_p90_ms", pct(0.9));
    values.insert(
        "peak_rss_mb",
        Value {
            value: peak_rss_mb(),
            samples: 1,
        },
    );

    if cfg.trace {
        per_layer(cfg, &m, &counts, artifact_bytes, &mut layers);
        values.extend(layers);
    }
    Ok(Outcome {
        values,
        attempted: c.attempted,
        failed: c.failed,
        problems: c.problems,
        digest: fnv1a_64(&acc),
        artifact_bytes,
        counts,
        job_latencies_ms,
        tracer: t,
    })
}

fn same_output(a: &Option<Done>, b: &Option<Done>, what: &str) -> Result<(), String> {
    match (a, b) {
        (Some(a), Some(b)) if a.counts != b.counts => {
            Err(format!("{what}: simulated counts differ"))
        }
        (Some(a), Some(b)) if a != b => Err(format!("{what}: artifact bytes differ")),
        _ => Ok(()),
    }
}

/// The per-layer metrics of a traced run, added to `v`. Values already
/// in `v` (those the daemon workloads measure their own way) are kept.
fn per_layer(cfg: &Config, m: &Measure, counts: &Counts, artifact_bytes: u64, v: &mut Values) {
    let samples = m.traced_pass_ms.len();
    let mut put = |name: &'static str, value: f64| {
        v.entry(name).or_insert(Value { value, samples });
    };
    let traced_ms = median(&m.traced_pass_ms).unwrap_or(0.0);
    let untraced_ms = median(&m.pass_ms).unwrap_or(0.0);
    let coverage: Vec<f64> = m
        .traced_self_ms
        .iter()
        .zip(&m.traced_pass_ms)
        .map(|(s, wall)| layer_total_ms(s) / wall)
        .collect();
    put("trace.coverage", median(&coverage).unwrap_or(0.0));
    put(
        "trace.overhead",
        if untraced_ms > 0.0 {
            traced_ms / untraced_ms
        } else {
            0.0
        },
    );
    for (span, metric) in [
        ("workloads.synth", "workloads.synth_ms"),
        ("gpu.sim", "gpu.sim_ms"),
        ("artifact.encode", "artifact.encode_ms"),
        ("json.decode", "json.decode_ms"),
        ("store.write", "store.write_ms"),
        ("server.submit_ack", "server.submit_ack_ms"),
        ("server.result_wire", "server.result_wire_ms"),
    ] {
        put(metric, m.layer_ms(span));
    }
    let decode_ms = m.layer_ms("json.decode");
    let decoded = median(
        &m.decoded_bytes
            .iter()
            .map(|&b| b as f64)
            .collect::<Vec<_>>(),
    );
    put(
        "json.decode_mb_per_s",
        match decoded {
            Some(bytes) if decode_ms > 0.0 => bytes / 1e6 / (decode_ms / 1e3),
            _ => 0.0,
        },
    );
    put("artifact.bytes", artifact_bytes as f64);
    for name in [
        "store.preload_ms",
        "store.entries",
        "store.bytes",
        "server.queue_wait_ms",
        "server.execute_ms",
        "server.memo_lookup_ms",
        "server.memo_hit_ratio",
    ] {
        put(name, 0.0);
    }
    let sim_ms = v.get("gpu.sim_ms").map_or(0.0, |x| x.value);
    let events_per_s = if sim_ms > 0.0 {
        counts.events as f64 / (sim_ms / 1e3)
    } else {
        0.0
    };
    v.insert(
        "gpu.events_per_s",
        Value {
            value: events_per_s,
            samples,
        },
    );
    counts.insert_into(v);
    profiled_subrun(cfg, sim_ms, v);
}

/// Runs the workload's jobs once more under the simulator's
/// self-profiler, in the separate `perfbench-profiled` binary, and
/// reports the phase shares and the profiler's overhead against the
/// unprofiled `gpu.sim_ms`.
fn profiled_subrun(cfg: &Config, sim_ms: f64, v: &mut Values) {
    const PHASES: [&str; 6] = ["cache", "dram", "coalesce", "wakeup", "round", "sched"];
    const NAMES: [&str; 6] = [
        "gpu.phase.cache_share",
        "gpu.phase.dram_share",
        "gpu.phase.coalesce_share",
        "gpu.phase.wakeup_share",
        "gpu.phase.round_share",
        "gpu.phase.sched_share",
    ];
    let mut shares = [0.0; 6];
    let mut overhead = 0.0;
    let profile = match (&cfg.profiled_bin, cfg.workload.simulates()) {
        (Some(bin), true) => Some(profile_of(bin, cfg)),
        _ => None,
    };
    match profile {
        Some(Ok((wall_ms, phases))) => {
            let total: f64 = phases.values().sum();
            for (share, phase) in shares.iter_mut().zip(PHASES) {
                *share = phases.get(phase).copied().unwrap_or(0.0) / total.max(1.0);
            }
            overhead = if sim_ms > 0.0 { wall_ms / sim_ms } else { 0.0 };
        }
        Some(Err(e)) => eprintln!("perfbench: profiled sub-run failed: {e}"),
        None => {}
    }
    for (name, share) in NAMES.iter().zip(shares) {
        v.insert(
            name,
            Value {
                value: share,
                samples: 1,
            },
        );
    }
    v.insert(
        "gpu.phase.overhead",
        Value {
            value: overhead,
            samples: 1,
        },
    );
}

/// Runs the profiled binary and reads its one-line JSON answer:
/// `{"wall_ms": .., "phases": {name: ns, ..}}`.
fn profile_of(bin: &Path, cfg: &Config) -> Result<(f64, BTreeMap<String, f64>), String> {
    let out = std::process::Command::new(bin)
        .args([
            "--workload",
            cfg.workload.name(),
            "--seed",
            &cfg.seed.to_string(),
        ])
        .args(["--scale", cfg.scale.unwrap_or(cfg.workload.scale()).name()])
        .output()
        .map_err(|e| format!("starting {}: {e}", bin.display()))?;
    if !out.status.success() {
        return Err(format!("{} exited with {}", bin.display(), out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let doc = Json::parse(text.trim()).map_err(|e| format!("profiled output: {e}"))?;
    let wall_ms = doc
        .get("wall_ms")
        .and_then(Json::as_f64)
        .ok_or("no wall_ms")?;
    let phases = doc
        .get("phases")
        .and_then(Json::as_object)
        .ok_or("no phases")?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect();
    Ok((wall_ms, phases))
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------- run-paper

/// Runs one job in this process the way `JobRequest::run` does, with a
/// span around each layer's call, and returns its `--emit-json` text.
fn traced_job(t: &mut Tracer, req: &JobRequest, id: u64) -> Result<(String, SimReport), String> {
    let bench = t.span("workloads.synth", id, |_| req.workload.build(req.seed))?;
    let gpu = req.gpu.config();
    let ctrl = t.span("core.controller", id, |_| {
        req.policy
            .controller(&gpu, bench.default_threshold(), req.metrics)
    });
    let out = t.span("gpu.sim", id, |_| {
        bench.run_full_opts(&gpu, ctrl, req.metrics, RunOptions::default())
    });
    let artifact = out.artifact.ok_or("job produced no artifact")?;
    let text = t.span("artifact.encode", id, |_| format!("{artifact}\n"));
    Ok((text, out.report))
}

/// The user's path: `JobRequest::run`, then the artifact's text.
fn plain_job(req: &JobRequest) -> Result<(String, SimReport), String> {
    let out = req.run(None)?;
    let artifact = out.artifact.ok_or("job produced no artifact")?;
    Ok((format!("{artifact}\n"), out.report))
}

type Passes = Vec<Vec<Option<Done>>>;

fn run_paper(
    cfg: &Config,
    jobs: &[JobRequest],
    t: &mut Tracer,
    m: &mut Measure,
    c: &mut Checks,
    more: impl Fn(usize, Instant) -> bool,
) -> Result<Passes, String> {
    let dir = cfg.work_dir.join("artifacts");
    // Set-up: a fresh output directory and one tiny-scale run of each
    // benchmark, so code and allocator are warm before timing.
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        for bench in PAPER_BENCHES {
            std::hint::black_box(plain_job(&job(bench, Scale::Tiny, "spawn", cfg.seed))?);
        }
        m.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut passes: Passes = Vec::new();
    let mut off = Tracer::new(false);
    let since = Instant::now();
    while more(passes.len(), since) {
        let traced = cfg.trace && passes.len() % 2 == 1;
        let tr = if traced { &mut *t } else { &mut off };
        let span = tr.spans().len();
        let mut latencies_ms = Vec::new();
        let t0 = Instant::now();
        let results: Vec<Result<Done, String>> = tr.span("pass", 0, |tr| {
            jobs.iter()
                .enumerate()
                .map(|(i, req)| {
                    let id = i as u64 + 1;
                    let path = dir.join(format!("job{id}.json"));
                    let start = Instant::now();
                    let r = tr.span("job", id, |tr| {
                        let (text, report) = if tr.is_on() {
                            traced_job(tr, req, id)?
                        } else {
                            plain_job(req)?
                        };
                        tr.span("store.write", id, |_| std::fs::write(&path, &text))
                            .map_err(|e| format!("writing {}: {e}", path.display()))?;
                        Ok((text, report))
                    });
                    latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
                    // Checked after the clock stops, and reduced to a
                    // digest so no pass holds every artifact at once.
                    r.and_then(|(text, report)| {
                        let on_disk = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
                        if on_disk != text {
                            return Err("file on disk differs from the encoded artifact".into());
                        }
                        if report.events_processed == 0 {
                            return Err("simulated no events".into());
                        }
                        Ok(Done::new(text.trim_end_matches('\n'), Counts::of(&report)))
                    })
                })
                .collect()
        });
        let pass = Pass {
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            latencies_ms,
            span,
            decoded_bytes: 0,
        };
        let mut events = 0;
        let mut done = Vec::new();
        for (req, r) in jobs.iter().zip(results) {
            let what = format!("{} {}", req.workload.canonical_id(), req.policy.label());
            events += r.as_ref().map_or(0, |d| d.counts.events);
            done.push(r.as_ref().ok().copied());
            c.op(&what, r.map(|_| ()));
        }
        m.record_pass(traced, t, &pass, events);
        passes.push(done);
    }
    Ok(passes)
}

// ------------------------------------------------------------------ daemons

/// A daemon serving on its own thread.
struct Daemon {
    addr: String,
    handle: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    /// Binds a daemon on `store`; returns the bound server and the time
    /// `Server::bind` took (the store preload included).
    fn bind(store: &Path) -> Result<(Server, f64), String> {
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: DAEMON_WORKERS,
            store: Some(store.to_path_buf()),
            ..ServerConfig::default()
        };
        let t0 = Instant::now();
        let server = Server::bind(&cfg).map_err(|e| format!("binding the daemon: {e}"))?;
        Ok((server, t0.elapsed().as_secs_f64()))
    }

    fn serve(server: Server) -> Result<Daemon, String> {
        let addr = server
            .local_addr()
            .map_err(|e| format!("daemon address: {e}"))?
            .to_string();
        let handle = std::thread::spawn(move || server.run());
        Ok(Daemon {
            addr,
            handle: Some(handle),
        })
    }

    /// Asks the daemon to exit and joins its thread.
    fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(handle) = self.handle.take() else {
            return Ok(());
        };
        let asked = Client::connect(&self.addr)
            .map_err(|e| format!("connecting for shutdown: {e}"))
            .and_then(|mut client| client.shutdown());
        asked?;
        match handle.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon exited with an error: {e}")),
            Err(_) => Err("daemon thread panicked".to_string()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// A raw line connection for traced passes: it times the wire and the
/// response decode apart, which `Client` does in one call.
struct Wire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    read_bytes: u64,
}

impl Wire {
    fn connect(addr: &str) -> Result<Wire, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("connect: {e}"))?;
        Ok(Wire {
            reader: BufReader::new(stream),
            writer,
            read_bytes: 0,
        })
    }

    /// Sends `req` and reads the response line inside span `span`, then
    /// decodes it inside a `json.decode` span.
    fn call(
        &mut self,
        t: &mut Tracer,
        span: &'static str,
        job: u64,
        req: &Request,
    ) -> Result<Json, String> {
        let mut line = req.to_json().to_string();
        line.push('\n');
        let text = t.span(span, job, |_| -> Result<String, String> {
            self.writer
                .write_all(line.as_bytes())
                .map_err(|e| format!("send: {e}"))?;
            let mut resp = String::new();
            match self.reader.read_line(&mut resp) {
                Ok(0) => Err("daemon closed the connection".to_string()),
                Ok(_) => Ok(resp),
                Err(e) => Err(format!("recv: {e}")),
            }
        })?;
        self.read_bytes += text.len() as u64;
        let doc = t
            .span("json.decode", job, |_| Json::parse(text.trim_end()))
            .map_err(|e| format!("bad response JSON: {e}"))?;
        match doc.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(doc),
            _ => Err(doc
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("daemon error")
                .to_string()),
        }
    }
}

/// The client side of one pass: `Client` in untraced passes, a `Wire`
/// in traced ones.
enum Conn {
    Plain(Client),
    Traced(Wire),
}

impl Conn {
    fn open(addr: &str, traced: bool) -> Result<Conn, String> {
        if traced {
            Wire::connect(addr).map(Conn::Traced)
        } else {
            Client::connect(addr)
                .map(Conn::Plain)
                .map_err(|e| format!("connect: {e}"))
        }
    }

    /// Submits `req`; returns the daemon's job id and whether it was
    /// answered from the memo cache.
    fn submit(
        &mut self,
        t: &mut Tracer,
        req: &JobRequest,
        job: u64,
    ) -> Result<(u64, bool), String> {
        match self {
            Conn::Plain(c) => c.submit(req).map(|a| (a.id, a.cached)),
            Conn::Traced(w) => {
                let doc = w.call(t, "server.submit_ack", job, &Request::Submit(req.clone()))?;
                let id = doc
                    .get("id")
                    .and_then(Json::as_u64)
                    .ok_or("ack has no id")?;
                let cached = doc
                    .get("cached")
                    .and_then(Json::as_bool)
                    .ok_or("ack has no cached")?;
                Ok((id, cached))
            }
        }
    }

    /// Waits for job `id`; returns its `cached` flag and artifact.
    fn result(&mut self, t: &mut Tracer, id: u64, job: u64) -> Result<(bool, Json), String> {
        match self {
            Conn::Plain(c) => c.result(id).map(|r| (r.cached, r.artifact)),
            Conn::Traced(w) => {
                let doc = w.call(t, "server.result_wire", job, &Request::Result { id })?;
                let cached = doc
                    .get("cached")
                    .and_then(Json::as_bool)
                    .ok_or("result has no cached")?;
                let Json::Obj(members) = doc else {
                    return Err("result is not an object".into());
                };
                let artifact = members
                    .into_iter()
                    .find(|(k, _)| k == "artifact")
                    .map(|(_, v)| v)
                    .ok_or("result has no artifact")?;
                Ok((cached, artifact))
            }
        }
    }

    fn request(&mut self, req: &Request) -> Result<Json, String> {
        match self {
            Conn::Plain(c) => c.roundtrip(req),
            Conn::Traced(w) => w.call(&mut Tracer::new(false), "server.other", 0, req),
        }
    }

    fn read_bytes(&self) -> u64 {
        match self {
            Conn::Plain(_) => 0,
            Conn::Traced(w) => w.read_bytes,
        }
    }
}

/// The reference outputs of the daemon jobs, run in this process.
struct Reference {
    texts: Vec<String>,
    done: Vec<Done>,
    /// Span index of the `reference` span (traced runs).
    span: usize,
}

fn reference(jobs: &[JobRequest], t: &mut Tracer) -> Result<Reference, String> {
    let span = t.spans().len();
    let (texts, done) = t.span("reference", 0, |t| {
        jobs.iter()
            .enumerate()
            .map(|(i, req)| {
                let id = i as u64 + 1;
                let (mut text, report) = if t.is_on() {
                    traced_job(t, req, id)?
                } else {
                    plain_job(req)?
                };
                text.truncate(text.trim_end_matches('\n').len());
                let done = Done::new(&text, Counts::of(&report));
                Ok((text, done))
            })
            .collect::<Result<(Vec<_>, Vec<_>), String>>()
    })?;
    Ok(Reference { texts, done, span })
}

/// Daemon lifetime counters that the checks read.
#[derive(Default, Clone, Copy)]
struct DaemonStats {
    submitted: u64,
    executed: u64,
    memo_hits: u64,
}

fn daemon_stats(conn: &mut Conn) -> Result<DaemonStats, String> {
    let doc = conn.request(&Request::Stats)?;
    let get = |k: &str| {
        doc.get(k)
            .and_then(Json::as_u64)
            .ok_or(format!("stats has no {k}"))
    };
    Ok(DaemonStats {
        submitted: get("submitted")?,
        executed: get("executed")?,
        memo_hits: get("memo_hits")?,
    })
}

/// Mean of each daemon histogram in ms, pooled over policy classes:
/// `(queue_wait, execute, memo_lookup)`.
fn daemon_means(conn: &mut Conn) -> Result<[f64; 3], String> {
    let doc = conn.request(&Request::Metrics)?;
    let classes = doc
        .get("latencies")
        .and_then(Json::as_object)
        .ok_or("metrics has no latencies")?;
    let mut out = [0.0; 3];
    for (slot, phase) in out
        .iter_mut()
        .zip(["queue_wait_us", "execute_us", "memo_lookup_us"])
    {
        let (mut sum, mut count) = (0u64, 0u64);
        for (_, hists) in classes {
            if let Some(h) = hists.get(phase) {
                sum += h.get("sum_us").and_then(Json::as_u64).unwrap_or(0);
                count += h.get("count").and_then(Json::as_u64).unwrap_or(0);
            }
        }
        *slot = if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64 / 1e3
        };
    }
    Ok(out)
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).map_err(|e| format!("creating {}: {e}", path.display()))
}

/// One job as the daemon served it: the submit's and the result's
/// `cached` flags, and the artifact.
type Served = Result<(bool, bool, Json), String>;

/// Submits every job back to back, then collects each result in order.
/// A job's latency runs from sending its submit until its result is
/// decoded.
fn daemon_pass(conn: &mut Conn, jobs: &[JobRequest], t: &mut Tracer) -> (Pass, Vec<Served>) {
    let span = t.spans().len();
    let bytes_before = conn.read_bytes();
    let t0 = Instant::now();
    let (latencies_ms, results) = t.span("pass", 0, |t| {
        let mut starts = Vec::new();
        let mut acks = Vec::new();
        for (i, req) in jobs.iter().enumerate() {
            let id = i as u64 + 1;
            starts.push(Instant::now());
            acks.push(t.span("job", id, |t| conn.submit(t, req, id)));
        }
        let mut latencies_ms = Vec::new();
        let mut results = Vec::new();
        for (i, ack) in acks.into_iter().enumerate() {
            let id = i as u64 + 1;
            let r = ack.and_then(|(daemon_id, submit_cached)| {
                let (result_cached, artifact) =
                    t.span("job", id, |t| conn.result(t, daemon_id, id))?;
                Ok((submit_cached, result_cached, artifact))
            });
            latencies_ms.push(starts[i].elapsed().as_secs_f64() * 1e3);
            results.push(r);
        }
        (latencies_ms, results)
    });
    let pass = Pass {
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        latencies_ms,
        span,
        decoded_bytes: conn.read_bytes() - bytes_before,
    };
    (pass, results)
}

/// Checks one pass's results against the in-process reference (and, on
/// the warm daemon, against the artifacts the cold daemon stored).
fn check_daemon_results(
    results: Vec<Served>,
    want_cached: bool,
    refs: &Reference,
    stored: Option<&[String]>,
    c: &mut Checks,
) -> Vec<Option<Done>> {
    results
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            let checked = r.and_then(|(submit_cached, result_cached, artifact)| {
                if submit_cached != want_cached || result_cached != want_cached {
                    return Err(format!(
                        "cached={submit_cached}/{result_cached}, expected {want_cached}"
                    ));
                }
                let text = artifact.to_string();
                if text != refs.texts[i] {
                    return Err("artifact differs from in-process JobRequest::artifact()".into());
                }
                if let Some(stored) = stored {
                    if stored[i] != text {
                        return Err("memo-hit artifact differs from the cold one".into());
                    }
                }
                Ok(refs.done[i])
            });
            c.op(
                &format!("daemon job {}", i + 1),
                checked.as_ref().map(|_| ()).map_err(Clone::clone),
            );
            checked.ok()
        })
        .collect()
}

fn run_daemon(
    cfg: &Config,
    jobs: &[JobRequest],
    t: &mut Tracer,
    m: &mut Measure,
    c: &mut Checks,
    layers: &mut Values,
    more: impl Fn(usize, Instant) -> bool,
) -> Result<Passes, String> {
    let warm = cfg.workload == Workload::DaemonWarm;
    let refs = reference(jobs, t)?;
    let events: u64 = refs.done.iter().map(|d| d.counts.events).sum();
    let mut off = Tracer::new(false);
    let mut passes: Passes = Vec::new();
    let mut means = Vec::new();
    let mut hit_ratio = 0.0;

    let mut run_pass = |daemon: &Daemon,
                        t: &mut Tracer,
                        m: &mut Measure,
                        c: &mut Checks,
                        passes: &mut Passes,
                        stored: Option<&[String]>|
     -> Result<(), String> {
        let traced = cfg.trace && passes.len() % 2 == 1;
        let mut conn = Conn::open(&daemon.addr, traced)?;
        let before = daemon_stats(&mut conn)?;
        let (pass, results) = daemon_pass(&mut conn, jobs, if traced { &mut *t } else { &mut off });
        let after = daemon_stats(&mut conn)?;
        let n = jobs.len() as u64;
        let (executed, hits) = (
            after.executed - before.executed,
            after.memo_hits - before.memo_hits,
        );
        let want = if warm { (0, n) } else { (n, 0) };
        c.op(
            "daemon counters",
            if (executed, hits) == want {
                Ok(())
            } else {
                Err(format!(
                    "executed {executed}, memo hits {hits}; expected {want:?}"
                ))
            },
        );
        if traced {
            means.push(daemon_means(&mut conn)?);
            hit_ratio = after.memo_hits as f64 / after.submitted.max(1) as f64;
        }
        let done = check_daemon_results(results, warm, &refs, stored, c);
        m.record_pass(traced, t, &pass, events);
        passes.push(done);
        Ok(())
    };

    let (entries, store_bytes, preload_ms);
    if warm {
        // Untimed preparation: a cold daemon executes the jobs into the
        // store, then the store's files are read back.
        let store = cfg.work_dir.join("warm-store");
        fresh_dir(&store)?;
        let (server, empty_bind_s) = Daemon::bind(&store)?;
        let daemon = Daemon::serve(server)?;
        let hashes = fill_store(&daemon, jobs)?;
        daemon.stop()?;
        let mut stored = Vec::new();
        for hash in &hashes {
            let path = store.join(format!("{hash}.json"));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            stored.push(text.trim_end_matches('\n').to_string());
        }
        (entries, store_bytes) = store_size(&store);
        // One restart per run: it preloads the whole store, which takes
        // longer than a pass, so `setup_s` is a single bind here.
        let (server, bind_s) = Daemon::bind(&store)?;
        m.setup_s.push(bind_s);
        preload_ms = (bind_s - empty_bind_s).max(0.0) * 1e3;
        let daemon = Daemon::serve(server)?;
        let since = Instant::now();
        while more(passes.len(), since) {
            run_pass(&daemon, t, m, c, &mut passes, Some(&stored))?;
        }
        daemon.stop()?;
    } else {
        (entries, store_bytes, preload_ms) = (0, 0, 0.0);
        let mut k = 0;
        let since = Instant::now();
        while more(passes.len(), since) || m.setup_s.len() < COLD_BINDS {
            let store = cfg.work_dir.join(format!("cold-store-{k}"));
            k += 1;
            fresh_dir(&store)?;
            let (server, bind_s) = Daemon::bind(&store)?;
            m.setup_s.push(bind_s);
            let daemon = Daemon::serve(server)?;
            if more(passes.len(), since) {
                run_pass(&daemon, t, m, c, &mut passes, None)?;
            }
            daemon.stop()?;
            let _ = std::fs::remove_dir_all(&store);
        }
    }

    if cfg.trace {
        let inner = t.self_ms_under(refs.span);
        let executed = !warm;
        let get = |name: &str| inner.get(name).copied().unwrap_or(0.0);
        let mean = |k: usize| {
            median(&means.iter().map(|m: &[f64; 3]| m[k]).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        let one = |value: f64| Value { value, samples: 1 };
        // The daemon's own synthesis and simulation are measured on the
        // same jobs in this process, and count only where the daemon
        // executed them; every served result is encoded, so encode
        // counts on both daemons.
        layers.insert(
            "workloads.synth_ms",
            one(if executed {
                get("workloads.synth")
            } else {
                0.0
            }),
        );
        layers.insert(
            "gpu.sim_ms",
            one(if executed { get("gpu.sim") } else { 0.0 }),
        );
        layers.insert("artifact.encode_ms", one(get("artifact.encode")));
        layers.insert("store.preload_ms", one(preload_ms));
        layers.insert("store.entries", one(entries as f64));
        layers.insert("store.bytes", one(store_bytes as f64));
        layers.insert("server.queue_wait_ms", one(mean(0)));
        layers.insert("server.execute_ms", one(mean(1)));
        layers.insert("server.memo_lookup_ms", one(mean(2)));
        layers.insert("server.memo_hit_ratio", one(hit_ratio));
    }
    Ok(passes)
}

/// Submits every job to `daemon` and waits (by polling `status`, which
/// decodes no artifact) until each is done. Returns the config hashes.
fn fill_store(daemon: &Daemon, jobs: &[JobRequest]) -> Result<Vec<String>, String> {
    let mut client = Client::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
    let acks = jobs
        .iter()
        .map(|j| client.submit(j))
        .collect::<Result<Vec<_>, _>>()?;
    for ack in &acks {
        loop {
            let doc = client.roundtrip(&Request::Status { id: ack.id })?;
            match doc.get("state").and_then(Json::as_str) {
                Some("done") => break,
                Some("queued" | "running") => std::thread::sleep(Duration::from_millis(5)),
                other => return Err(format!("store job {} ended as {other:?}", ack.id)),
            }
        }
    }
    Ok(acks.into_iter().map(|a| a.hash).collect())
}

/// Number and total size of the store's artifact files.
fn store_size(store: &Path) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(store) else {
        return (0, 0);
    };
    entries
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .fold((0, 0), |(n, bytes), e| {
            (n + 1, bytes + e.metadata().map_or(0, |m| m.len()))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done(text: &str, events: u64) -> Done {
        Done::new(
            text,
            Counts {
                events,
                ..Counts::default()
            },
        )
    }

    #[test]
    fn daemon_results_are_checked_against_reference_and_store() {
        let texts = vec!["{\"a\":1}".to_string(), "{\"b\":2}".to_string()];
        let done = texts.iter().map(|t| done(t, 5)).collect();
        let refs = Reference {
            texts,
            done,
            span: 0,
        };
        let artifact = |text: &str| Json::parse(text).unwrap();
        let mut c = Checks::default();
        let ok = check_daemon_results(
            vec![
                Ok((false, false, artifact("{\"a\":1}"))),
                Ok((false, false, artifact("{\"b\":2}"))),
            ],
            false,
            &refs,
            None,
            &mut c,
        );
        assert_eq!((c.attempted, c.failed), (2, 0));
        assert!(ok.iter().all(Option::is_some));

        let mut c = Checks::default();
        let stored = ["{\"a\":1}".to_string(), "{\"b\":3}".to_string()];
        let bad = check_daemon_results(
            vec![
                Ok((false, true, artifact("{\"a\":1}"))), // executed on a warm daemon
                Ok((true, true, artifact("{\"b\":2}"))),  // differs from the stored one
            ],
            true,
            &refs,
            Some(&stored),
            &mut c,
        );
        assert_eq!((c.attempted, c.failed), (2, 2));
        assert!(bad.iter().all(Option::is_none));
        assert!(c.problems[0].contains("cached") && c.problems[1].contains("cold one"));

        let mut c = Checks::default();
        check_daemon_results(
            vec![
                Ok((false, false, artifact("{\"a\":9}"))),
                Err("recv: reset".into()),
            ],
            false,
            &refs,
            None,
            &mut c,
        );
        assert_eq!(c.failed, 2);
        assert!(c.problems[0].contains("in-process"));
    }

    #[test]
    fn passes_must_agree_on_bytes_and_counts() {
        let a = Some(done("x", 1));
        assert!(same_output(&a, &Some(done("x", 1)), "j").is_ok());
        assert!(same_output(&a, &Some(done("y", 1)), "j")
            .unwrap_err()
            .contains("bytes"));
        assert!(same_output(&a, &Some(done("x", 2)), "j")
            .unwrap_err()
            .contains("counts"));
        assert!(
            same_output(&a, &None, "j").is_ok(),
            "a failed job is counted where it failed"
        );
    }
}
