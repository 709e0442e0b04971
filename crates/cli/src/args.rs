//! Hand-rolled argument parsing for the `dynapar` CLI (kept
//! dependency-free on purpose — the workspace's sanctioned crates don't
//! include an argument parser).
//!
//! Policy strings parse through [`PolicySpec`] — the same typed spec
//! the daemon's request API uses — so `--policy spawn` here and
//! `"policy":"spawn"` on the wire are one code path.

use dynapar_core::PolicySpec;
use dynapar_engine::log::Level;
use dynapar_gpu::MetricsLevel;
use dynapar_workloads::Scale;

/// The CLI's subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one benchmark (or spec file) under one policy.
    Run {
        /// Benchmark name (`--bench`); exclusive with `spec`.
        bench: Option<String>,
        /// Spec-file path (`--spec`); exclusive with `bench`.
        spec: Option<String>,
        /// Policy to run it under.
        policy: PolicySpec,
        /// Trace-capacity request, if tracing.
        trace: Option<usize>,
        /// Write the timeline as CSV to this path.
        timeline_csv: Option<String>,
        /// Write the per-kernel table as CSV to this path.
        kernels_csv: Option<String>,
        /// Write the run artifact (JSON) to this path.
        emit_json: Option<String>,
        /// Write a Perfetto/Chrome `trace_event` timeline to this path.
        emit_timeline: Option<String>,
        /// Metrics collection level for the run artifact.
        metrics: MetricsLevel,
        /// Capture a snapshot once simulated time passes this cycle.
        snapshot_at: Option<u64>,
        /// Write the captured snapshot to this path.
        snapshot_out: Option<String>,
        /// Resume from a snapshot file instead of starting cold.
        resume: Option<String>,
    },
    /// Level-synchronous BFS (multi-kernel) under one policy vs flat.
    Levels {
        /// Graph input: citation | graph500.
        input: String,
        /// Policy to evaluate.
        policy: PolicySpec,
    },
    /// Threshold sweep on one benchmark.
    Sweep {
        /// Benchmark name; exclusive with `spec`.
        bench: Option<String>,
        /// Spec-file path; exclusive with `bench`.
        spec: Option<String>,
        /// Number of sweep points.
        points: usize,
        /// Warm-start fork point: simulate the shared ramp once up to
        /// this cycle, then fork every sweep point from the snapshot.
        fork_warmup: Option<u64>,
    },
    /// All policies side by side on one benchmark.
    Compare {
        /// Benchmark name.
        bench: String,
    },
    /// Whole Table I suite under one policy vs flat.
    Suite {
        /// Policy to evaluate.
        policy: PolicySpec,
    },
    /// Run a benchmark described by a plain-text spec file.
    Spec {
        /// Path to the spec file.
        file: String,
        /// Policy to run it under.
        policy: PolicySpec,
    },
    /// Parse and validate a run-artifact JSON file.
    CheckArtifact {
        /// Path to the artifact file.
        file: String,
    },
    /// Parse and sanity-check a Perfetto timeline JSON file.
    CheckTimeline {
        /// Path to the timeline file.
        file: String,
    },
    /// Start the simulation daemon.
    Serve {
        /// Bind address (port 0 = ephemeral).
        listen: String,
        /// Worker threads executing jobs.
        workers: usize,
        /// Write the bound port (one line) to this path once listening.
        port_file: Option<String>,
        /// Artifact store directory: persists the memo cache across
        /// daemon restarts.
        store: Option<String>,
        /// Byte budget for the artifact store: least-recently-used
        /// entries are evicted once the persisted total exceeds it.
        store_max_bytes: Option<u64>,
        /// Structured-log sink: one JSON object per line with daemon
        /// lifecycle, request, and job events.
        log_file: Option<String>,
        /// Minimum level written to `--log-file` (default `info`).
        log_level: Level,
        /// Perfetto trace output: job-lifecycle spans collected while
        /// serving, written once when the daemon exits.
        trace_out: Option<String>,
    },
    /// Compare two snapshot files field by field.
    SnapDiff {
        /// First snapshot path.
        a: String,
        /// Second snapshot path.
        b: String,
    },
    /// Submit a job to a running daemon and wait for its artifact.
    Submit {
        /// Daemon address (`HOST:PORT`).
        addr: String,
        /// Benchmark name; exclusive with `spec`.
        bench: Option<String>,
        /// Spec-file path (shipped to the daemon inline); exclusive
        /// with `bench`.
        spec: Option<String>,
        /// Policy to run under.
        policy: PolicySpec,
        /// Metrics collection level.
        metrics: MetricsLevel,
        /// Write the returned artifact (JSON) to this path.
        emit_json: Option<String>,
    },
    /// Print a running daemon's lifetime counters.
    ServerStats {
        /// Daemon address (`HOST:PORT`).
        addr: String,
    },
    /// Print a running daemon's latency histograms and gauges.
    ServerMetrics {
        /// Daemon address (`HOST:PORT`).
        addr: String,
    },
    /// Probe a running daemon's liveness (uptime, workers, queue).
    ServerHealth {
        /// Daemon address (`HOST:PORT`).
        addr: String,
    },
    /// Ask a running daemon to exit.
    ServerShutdown {
        /// Daemon address (`HOST:PORT`).
        addr: String,
    },
    /// Print the simulated-GPU configuration.
    Config,
    /// List available benchmarks.
    List,
    /// Print usage.
    Help,
}

/// Fully parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The subcommand.
    pub command: Command,
    /// Input scale (default paper).
    pub scale: Scale,
    /// Generator seed.
    pub seed: u64,
    /// Worker threads for multi-simulation subcommands (sweep,
    /// compare, suite).
    pub jobs: usize,
}

/// Usage text.
pub const USAGE: &str = "\
dynapar — GPU dynamic-parallelism simulator (SPAWN, HPCA 2017)

USAGE:
  dynapar run (--bench <NAME> | --spec <PATH>) --policy <POLICY>
              [--trace N] [--timeline-csv F] [--kernels-csv F]
              [--metrics off|summary|full|timeseries] [--emit-json F]
              [--emit-timeline F] [--snapshot-at C --snapshot-out F]
              [--resume F] [options]
  dynapar levels --input citation|graph500 --policy <POLICY> [options]
  dynapar sweep (--bench <NAME> | --spec <PATH>) [--points N]
                [--fork-warmup C] [options]
  dynapar compare --bench <NAME> [options]
  dynapar suite --policy <POLICY> [options]
  dynapar spec --file <PATH> --policy <POLICY> [options]
  dynapar check-artifact --file <PATH>
  dynapar check-timeline --file <PATH>
  dynapar serve [--listen ADDR] [--workers N] [--port-file F] [--store DIR]
                [--store-max-bytes N] [--log-file F [--log-level L]]
                [--trace-out F]
  dynapar submit --addr HOST:PORT (--bench <NAME> | --spec <PATH>)
                 --policy <POLICY> [--metrics L] [--emit-json F] [options]
  dynapar snap-diff A.snap B.snap
  dynapar server-stats --addr HOST:PORT
  dynapar server-metrics --addr HOST:PORT
  dynapar server-health --addr HOST:PORT
  dynapar server-shutdown --addr HOST:PORT
  dynapar config
  dynapar list

POLICIES:  flat | baseline | spawn | dtbl | always | adaptive | freelaunch | threshold:N
OPTIONS:   --scale tiny|small|paper (default paper) · --seed N
           --jobs N (worker threads for sweep/compare/suite;
           default: DYNAPAR_JOBS or the CPU count)
BENCHES:   the 13 Table I names, e.g. BFS-graph500, SA-thaliana (see `list`)
ARTIFACTS: --emit-json writes the deterministic run-artifact JSON
           (implies --metrics full unless --metrics is given);
           `check-artifact` re-parses and validates such a file.
           --metrics timeseries adds the windowed-telemetry section
           (dynapar-timeseries/1) to the artifact.
TIMELINE:  --emit-timeline writes a Perfetto/Chrome trace_event JSON
           (implies --trace 100000 unless --trace is given); open it
           at ui.perfetto.dev. `check-timeline` validates such a file
SNAPSHOT:  `run --snapshot-at C --snapshot-out F` runs to completion and
           also captures the deterministic state at cycle C;
           `run --resume F` warm-starts from it — the resumed run's
           artifact is byte-identical to an uninterrupted run.
           `sweep --fork-warmup C` simulates the shared ramp once and
           forks every sweep point from the cycle-C snapshot.
SERVER:    `serve` starts the line-JSON v1 daemon (docs/SERVER.md);
           `submit` runs a job on it and waits — identical configs are
           answered from the daemon's memo cache without re-simulating,
           and artifacts are byte-identical to a local `run --emit-json`.
           `serve --store DIR` persists completed artifacts so the memo
           cache survives daemon restarts; --store-max-bytes N caps the
           store, evicting least-recently-used entries.
           `serve --log-file F` writes structured JSON logs (one object
           per line; --log-level debug|info|warn|error, default info);
           `serve --trace-out F` writes a Perfetto job timeline at exit.
           `server-metrics` prints latency histograms + gauges (JSON
           with an embedded Prometheus text rendering); `server-health`
           is a cheap liveness probe. See docs/OBSERVABILITY.md.
           `snap-diff A B` compares two snapshot files: differing header
           fields, then the first divergent byte of the binary state
";

fn take_value<'a>(
    args: &'a [String],
    i: &mut usize,
    flag: &str,
) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} expects a value"))
}

/// Parses the full argument vector (excluding the program name).
///
/// # Errors
///
/// Returns a message suitable for printing alongside [`USAGE`].
pub fn parse(args: &[String]) -> Result<Cli, String> {
    let mut scale = Scale::Paper;
    let mut seed = dynapar_workloads::suite::DEFAULT_SEED;
    let mut jobs = dynapar_engine::par::default_jobs();
    let mut bench: Option<String> = None;
    let mut spec: Option<String> = None;
    let mut policy: Option<PolicySpec> = None;
    let mut trace: Option<usize> = None;
    let mut points = 8usize;
    let mut timeline_csv: Option<String> = None;
    let mut kernels_csv: Option<String> = None;
    let mut input: Option<String> = None;
    let mut file: Option<String> = None;
    let mut emit_json: Option<String> = None;
    let mut emit_timeline: Option<String> = None;
    let mut metrics: Option<MetricsLevel> = None;
    let mut listen = "127.0.0.1:0".to_string();
    let mut workers = 1usize;
    let mut port_file: Option<String> = None;
    let mut addr: Option<String> = None;
    let mut snapshot_at: Option<u64> = None;
    let mut snapshot_out: Option<String> = None;
    let mut resume: Option<String> = None;
    let mut fork_warmup: Option<u64> = None;
    let mut store: Option<String> = None;
    let mut store_max_bytes: Option<u64> = None;
    let mut log_file: Option<String> = None;
    let mut log_level: Option<Level> = None;
    let mut trace_out: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();
    let sub = args.first().map(String::as_str).unwrap_or("help");

    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                let v = take_value(args, &mut i, "--scale")?;
                scale = Scale::parse(v).ok_or_else(|| format!("unknown scale {v:?}"))?;
            }
            "--seed" => {
                seed = take_value(args, &mut i, "--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an integer".to_string())?;
            }
            "--jobs" => {
                jobs = take_value(args, &mut i, "--jobs")?
                    .parse()
                    .map_err(|_| "--jobs expects an integer".to_string())?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
            }
            "--bench" => bench = Some(take_value(args, &mut i, "--bench")?.to_string()),
            "--spec" => spec = Some(take_value(args, &mut i, "--spec")?.to_string()),
            "--policy" => {
                policy = Some(PolicySpec::parse(take_value(args, &mut i, "--policy")?)?)
            }
            "--trace" => {
                trace = Some(
                    take_value(args, &mut i, "--trace")?
                        .parse()
                        .map_err(|_| "--trace expects a capacity".to_string())?,
                );
            }
            "--timeline-csv" => {
                timeline_csv = Some(take_value(args, &mut i, "--timeline-csv")?.to_string());
            }
            "--kernels-csv" => {
                kernels_csv = Some(take_value(args, &mut i, "--kernels-csv")?.to_string());
            }
            "--input" => input = Some(take_value(args, &mut i, "--input")?.to_string()),
            "--emit-json" => {
                emit_json = Some(take_value(args, &mut i, "--emit-json")?.to_string());
            }
            "--emit-timeline" => {
                emit_timeline = Some(take_value(args, &mut i, "--emit-timeline")?.to_string());
            }
            "--metrics" => {
                let v = take_value(args, &mut i, "--metrics")?;
                metrics = Some(MetricsLevel::parse(v).ok_or_else(|| {
                    format!(
                        "--metrics expects {}, got {v:?}",
                        MetricsLevel::VALID_VALUES
                    )
                })?);
            }
            "--file" => file = Some(take_value(args, &mut i, "--file")?.to_string()),
            "--points" => {
                points = take_value(args, &mut i, "--points")?
                    .parse()
                    .map_err(|_| "--points expects an integer".to_string())?;
            }
            "--listen" => listen = take_value(args, &mut i, "--listen")?.to_string(),
            "--workers" => {
                workers = take_value(args, &mut i, "--workers")?
                    .parse()
                    .map_err(|_| "--workers expects an integer".to_string())?;
                if workers == 0 {
                    return Err("--workers must be at least 1".to_string());
                }
            }
            "--port-file" => {
                port_file = Some(take_value(args, &mut i, "--port-file")?.to_string());
            }
            "--addr" => addr = Some(take_value(args, &mut i, "--addr")?.to_string()),
            "--snapshot-at" => {
                snapshot_at = Some(
                    take_value(args, &mut i, "--snapshot-at")?
                        .parse()
                        .map_err(|_| "--snapshot-at expects a cycle number".to_string())?,
                );
            }
            "--snapshot-out" => {
                snapshot_out = Some(take_value(args, &mut i, "--snapshot-out")?.to_string());
            }
            "--resume" => resume = Some(take_value(args, &mut i, "--resume")?.to_string()),
            "--fork-warmup" => {
                fork_warmup = Some(
                    take_value(args, &mut i, "--fork-warmup")?
                        .parse()
                        .map_err(|_| "--fork-warmup expects a cycle number".to_string())?,
                );
            }
            "--store" => store = Some(take_value(args, &mut i, "--store")?.to_string()),
            "--store-max-bytes" => {
                let n: u64 = take_value(args, &mut i, "--store-max-bytes")?
                    .parse()
                    .map_err(|_| "--store-max-bytes expects a byte count".to_string())?;
                if n == 0 {
                    return Err("--store-max-bytes must be at least 1".to_string());
                }
                store_max_bytes = Some(n);
            }
            "--log-file" => {
                log_file = Some(take_value(args, &mut i, "--log-file")?.to_string());
            }
            "--log-level" => {
                log_level = Some(Level::parse(take_value(args, &mut i, "--log-level")?)?);
            }
            "--trace-out" => {
                trace_out = Some(take_value(args, &mut i, "--trace-out")?.to_string());
            }
            other if !other.starts_with('-') => positional.push(other.to_string()),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }

    let need_bench = || bench.clone().ok_or_else(|| "--bench is required".to_string());
    let need_addr = || addr.clone().ok_or_else(|| "--addr is required".to_string());
    let need_workload = |bench: &Option<String>, spec: &Option<String>| match (bench, spec) {
        (Some(_), Some(_)) => Err("pass --bench or --spec, not both".to_string()),
        (None, None) => Err("--bench or --spec is required".to_string()),
        _ => Ok(()),
    };
    let command = match sub {
        "run" => {
            need_workload(&bench, &spec)?;
            // Snapshots and the decision trace are mutually exclusive
            // (the trace is unsupported across a capture/resume), and
            // arming without a destination would silently discard the
            // snapshot.
            if snapshot_at.is_some() != snapshot_out.is_some() {
                return Err("--snapshot-at and --snapshot-out go together".to_string());
            }
            if resume.is_some() && snapshot_at.is_some() {
                return Err("--resume cannot also arm a snapshot (--snapshot-at)".to_string());
            }
            if (snapshot_at.is_some() || resume.is_some())
                && (trace.is_some() || emit_timeline.is_some())
            {
                return Err("snapshots are incompatible with --trace/--emit-timeline".to_string());
            }
            Command::Run {
                bench,
                spec,
                policy: policy.ok_or("--policy is required")?,
                timeline_csv,
                kernels_csv,
                // --emit-json without an explicit level means "collect
                // everything": an artifact request should never silently
                // produce no artifact.
                metrics: metrics.unwrap_or(if emit_json.is_some() {
                    MetricsLevel::Full
                } else {
                    MetricsLevel::Off
                }),
                emit_json,
                // --emit-timeline without --trace implies a default trace
                // capacity: a timeline request should never come out empty.
                trace: trace.or(if emit_timeline.is_some() {
                    Some(100_000)
                } else {
                    None
                }),
                emit_timeline,
                snapshot_at,
                snapshot_out,
                resume,
            }
        }
        "levels" => Command::Levels {
            input: input.ok_or("--input is required (citation|graph500)")?,
            policy: policy.ok_or("--policy is required")?,
        },
        "sweep" => {
            need_workload(&bench, &spec)?;
            Command::Sweep {
                bench,
                spec,
                points,
                fork_warmup,
            }
        }
        "compare" => Command::Compare {
            bench: need_bench()?,
        },
        "suite" => Command::Suite {
            policy: policy.ok_or("--policy is required")?,
        },
        "spec" => Command::Spec {
            file: file.ok_or("--file is required")?,
            policy: policy.ok_or("--policy is required")?,
        },
        "check-artifact" => Command::CheckArtifact {
            file: file.ok_or("--file is required")?,
        },
        "check-timeline" => Command::CheckTimeline {
            file: file.ok_or("--file is required")?,
        },
        "serve" => {
            if store_max_bytes.is_some() && store.is_none() {
                return Err("--store-max-bytes needs --store".to_string());
            }
            if log_level.is_some() && log_file.is_none() {
                return Err("--log-level needs --log-file".to_string());
            }
            Command::Serve {
                listen,
                workers,
                port_file,
                store,
                store_max_bytes,
                log_file,
                log_level: log_level.unwrap_or(Level::Info),
                trace_out,
            }
        }
        "snap-diff" => {
            let [a, b] = positional.as_slice() else {
                return Err("snap-diff expects exactly two snapshot paths".to_string());
            };
            Command::SnapDiff {
                a: a.clone(),
                b: b.clone(),
            }
        }
        "submit" => {
            need_workload(&bench, &spec)?;
            Command::Submit {
                addr: need_addr()?,
                bench,
                spec,
                policy: policy.ok_or("--policy is required")?,
                metrics: metrics.unwrap_or(MetricsLevel::Full),
                emit_json,
            }
        }
        "server-stats" => Command::ServerStats { addr: need_addr()? },
        "server-metrics" => Command::ServerMetrics { addr: need_addr()? },
        "server-health" => Command::ServerHealth { addr: need_addr()? },
        "server-shutdown" => Command::ServerShutdown { addr: need_addr()? },
        "config" => Command::Config,
        "list" => Command::List,
        "help" | "--help" | "-h" => Command::Help,
        other => return Err(format!("unknown command {other:?}")),
    };
    if !matches!(command, Command::SnapDiff { .. }) {
        if let Some(p) = positional.first() {
            return Err(format!("unexpected argument {p:?}"));
        }
    }
    Ok(Cli {
        command,
        scale,
        seed,
        jobs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_run() {
        let cli = parse(&v(&[
            "run", "--bench", "AMR", "--policy", "spawn", "--scale", "tiny", "--seed", "9",
        ]))
        .expect("valid");
        assert_eq!(
            cli.command,
            Command::Run {
                bench: Some("AMR".into()),
                spec: None,
                policy: PolicySpec::Spawn,
                trace: None,
                timeline_csv: None,
                kernels_csv: None,
                emit_json: None,
                emit_timeline: None,
                metrics: MetricsLevel::Off,
                snapshot_at: None,
                snapshot_out: None,
                resume: None,
            }
        );
        assert_eq!(cli.scale, Scale::Tiny);
        assert_eq!(cli.seed, 9);
    }

    #[test]
    fn parses_threshold_policy() {
        assert_eq!(
            PolicySpec::parse("threshold:42"),
            Ok(PolicySpec::Threshold(42))
        );
        assert!(PolicySpec::parse("threshold:x").is_err());
        assert!(PolicySpec::parse("nope").is_err());
        assert_eq!(PolicySpec::Threshold(7).label(), "threshold:7");
    }

    #[test]
    fn missing_required_flags_error() {
        assert!(parse(&v(&["run", "--bench", "AMR"])).is_err());
        assert!(parse(&v(&["run", "--policy", "spawn"])).is_err());
        assert!(parse(&v(&["suite"])).is_err());
    }

    #[test]
    fn unknown_inputs_error() {
        assert!(parse(&v(&["frobnicate"])).is_err());
        assert!(parse(&v(&["run", "--wat"])).is_err());
        assert!(parse(&v(&["run", "--scale", "huge"])).is_err());
        // The retired intra-run backend flags are unknown like any other.
        for (flag, value) in [("--sim-jobs", "2"), ("--sim-window", "4")] {
            let err = parse(&v(&[
                "run", "--bench", "AMR", "--policy", "spawn", flag, value,
            ]))
            .unwrap_err();
            assert_eq!(err, format!("unknown argument {flag:?}"));
        }
    }

    #[test]
    fn jobs_flag() {
        let cli = parse(&v(&["suite", "--policy", "spawn", "--jobs", "4"])).expect("valid");
        assert_eq!(cli.jobs, 4);
        assert!(parse(&v(&["suite", "--policy", "spawn", "--jobs", "0"])).is_err());
        assert!(parse(&v(&["suite", "--policy", "spawn", "--jobs", "many"])).is_err());
        let cli = parse(&v(&["list"])).expect("valid");
        assert!(cli.jobs >= 1);
    }

    #[test]
    fn serve_store_max_bytes_flag() {
        let cli = parse(&v(&[
            "serve", "--store", "/tmp/s", "--store-max-bytes", "4096",
        ]))
        .expect("valid");
        match cli.command {
            Command::Serve { store, store_max_bytes, .. } => {
                assert_eq!(store.as_deref(), Some("/tmp/s"));
                assert_eq!(store_max_bytes, Some(4096));
            }
            other => panic!("wrong command {other:?}"),
        }
        let cli = parse(&v(&["serve", "--store", "/tmp/s"])).expect("valid");
        match cli.command {
            Command::Serve { store_max_bytes, .. } => assert_eq!(store_max_bytes, None),
            other => panic!("wrong command {other:?}"),
        }
        // The cap only means something with a store to cap.
        assert!(parse(&v(&["serve", "--store-max-bytes", "4096"])).is_err());
        assert!(parse(&v(&["serve", "--store", "/tmp/s", "--store-max-bytes", "0"])).is_err());
        assert!(parse(&v(&["serve", "--store", "/tmp/s", "--store-max-bytes", "x"])).is_err());
    }

    #[test]
    fn snap_diff_takes_exactly_two_paths() {
        let cli = parse(&v(&["snap-diff", "a.snap", "b.snap"])).expect("valid");
        assert_eq!(
            cli.command,
            Command::SnapDiff {
                a: "a.snap".into(),
                b: "b.snap".into(),
            }
        );
        assert!(parse(&v(&["snap-diff", "a.snap"])).is_err());
        assert!(parse(&v(&["snap-diff", "a", "b", "c"])).is_err());
        // Positional operands are snap-diff's alone: other commands
        // still reject strays.
        assert!(parse(&v(&["list", "stray"])).is_err());
    }

    #[test]
    fn run_spec_flag_is_exclusive_with_bench() {
        let cli = parse(&v(&["run", "--spec", "x.spec", "--policy", "spawn"])).expect("valid");
        match cli.command {
            Command::Run { bench, spec, .. } => {
                assert_eq!(bench, None);
                assert_eq!(spec.as_deref(), Some("x.spec"));
            }
            other => panic!("unexpected {other:?}"),
        }
        let err = parse(&v(&[
            "run", "--bench", "AMR", "--spec", "x.spec", "--policy", "spawn",
        ]))
        .unwrap_err();
        assert!(err.contains("not both"), "{err}");
        assert!(parse(&v(&["run", "--policy", "spawn"])).is_err());
    }

    #[test]
    fn bare_invocation_is_help() {
        let cli = parse(&[]).expect("help");
        assert_eq!(cli.command, Command::Help);
    }

    #[test]
    fn sweep_and_compare() {
        let cli = parse(&v(&["sweep", "--bench", "Mandel", "--points", "5"])).expect("valid");
        assert_eq!(
            cli.command,
            Command::Sweep {
                bench: Some("Mandel".into()),
                spec: None,
                points: 5,
                fork_warmup: None,
            }
        );
        parse(&v(&["sweep", "--spec", "ramp.spec", "--fork-warmup", "2000"]))
            .expect("spec sweeps are valid");
        parse(&v(&["sweep", "--points", "3"])).expect_err("workload is required");
        let cli = parse(&v(&["compare", "--bench", "Mandel"])).expect("valid");
        assert_eq!(
            cli.command,
            Command::Compare {
                bench: "Mandel".into()
            }
        );
    }

    #[test]
    fn trace_flag() {
        let cli = parse(&v(&[
            "run", "--bench", "AMR", "--policy", "flat", "--trace", "1000",
        ]))
        .expect("valid");
        match cli.command {
            Command::Run { trace, .. } => assert_eq!(trace, Some(1000)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn levels_subcommand() {
        let cli = parse(&v(&["levels", "--input", "graph500", "--policy", "spawn"])).expect("valid");
        assert_eq!(
            cli.command,
            Command::Levels {
                input: "graph500".into(),
                policy: PolicySpec::Spawn
            }
        );
        assert!(parse(&v(&["levels", "--policy", "spawn"])).is_err());
    }

    #[test]
    fn spec_subcommand() {
        let cli = parse(&v(&["spec", "--file", "x.spec", "--policy", "baseline"])).expect("valid");
        assert_eq!(
            cli.command,
            Command::Spec {
                file: "x.spec".into(),
                policy: PolicySpec::Baseline
            }
        );
        assert!(parse(&v(&["spec", "--policy", "baseline"])).is_err());
    }

    #[test]
    fn artifact_flags() {
        let cli = parse(&v(&[
            "run", "--bench", "AMR", "--policy", "flat", "--emit-json", "out.json",
        ]))
        .expect("valid");
        match cli.command {
            Command::Run {
                emit_json, metrics, ..
            } => {
                assert_eq!(emit_json.as_deref(), Some("out.json"));
                assert_eq!(metrics, MetricsLevel::Full, "--emit-json implies full");
            }
            other => panic!("unexpected {other:?}"),
        }
        let cli = parse(&v(&[
            "run", "--bench", "AMR", "--policy", "flat", "--metrics", "summary",
            "--emit-json", "out.json",
        ]))
        .expect("valid");
        match cli.command {
            Command::Run { metrics, .. } => assert_eq!(metrics, MetricsLevel::Summary),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&v(&["run", "--bench", "AMR", "--policy", "flat", "--metrics", "loud"]))
            .is_err());
    }

    #[test]
    fn metrics_errors_list_valid_values_and_accept_any_case() {
        let err = parse(&v(&[
            "run", "--bench", "AMR", "--policy", "flat", "--metrics", "loud",
        ]))
        .unwrap_err();
        assert!(
            err.contains(MetricsLevel::VALID_VALUES),
            "error must list the valid values: {err}"
        );
        let cli = parse(&v(&[
            "run", "--bench", "AMR", "--policy", "flat", "--metrics", "TimeSeries",
        ]))
        .expect("case-insensitive");
        match cli.command {
            Command::Run { metrics, .. } => assert_eq!(metrics, MetricsLevel::Timeseries),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn timeline_flags() {
        let cli = parse(&v(&[
            "run", "--bench", "AMR", "--policy", "spawn", "--emit-timeline", "t.json",
        ]))
        .expect("valid");
        match cli.command {
            Command::Run {
                emit_timeline,
                trace,
                ..
            } => {
                assert_eq!(emit_timeline.as_deref(), Some("t.json"));
                assert_eq!(trace, Some(100_000), "--emit-timeline implies tracing");
            }
            other => panic!("unexpected {other:?}"),
        }
        // An explicit --trace wins over the implied default.
        let cli = parse(&v(&[
            "run", "--bench", "AMR", "--policy", "spawn", "--emit-timeline", "t.json",
            "--trace", "64",
        ]))
        .expect("valid");
        match cli.command {
            Command::Run { trace, .. } => assert_eq!(trace, Some(64)),
            other => panic!("unexpected {other:?}"),
        }
        let cli = parse(&v(&["check-timeline", "--file", "t.json"])).expect("valid");
        assert_eq!(
            cli.command,
            Command::CheckTimeline {
                file: "t.json".into()
            }
        );
        assert!(parse(&v(&["check-timeline"])).is_err());
    }

    #[test]
    fn check_artifact_subcommand() {
        let cli = parse(&v(&["check-artifact", "--file", "a.json"])).expect("valid");
        assert_eq!(
            cli.command,
            Command::CheckArtifact {
                file: "a.json".into()
            }
        );
        assert!(parse(&v(&["check-artifact"])).is_err());
    }

    #[test]
    fn csv_flags() {
        let cli = parse(&v(&[
            "run", "--bench", "AMR", "--policy", "flat", "--timeline-csv", "t.csv",
            "--kernels-csv", "k.csv",
        ]))
        .expect("valid");
        match cli.command {
            Command::Run {
                timeline_csv,
                kernels_csv,
                ..
            } => {
                assert_eq!(timeline_csv.as_deref(), Some("t.csv"));
                assert_eq!(kernels_csv.as_deref(), Some("k.csv"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn serve_subcommand() {
        let cli = parse(&v(&["serve"])).expect("valid");
        assert_eq!(
            cli.command,
            Command::Serve {
                listen: "127.0.0.1:0".into(),
                workers: 1,
                port_file: None,
                store: None,
                store_max_bytes: None,
                log_file: None,
                log_level: Level::Info,
                trace_out: None,
            }
        );
        let cli = parse(&v(&[
            "serve", "--listen", "127.0.0.1:7070", "--workers", "4", "--port-file", "p.txt",
            "--store", "cache/",
        ]))
        .expect("valid");
        assert_eq!(
            cli.command,
            Command::Serve {
                listen: "127.0.0.1:7070".into(),
                workers: 4,
                port_file: Some("p.txt".into()),
                store: Some("cache/".into()),
                store_max_bytes: None,
                log_file: None,
                log_level: Level::Info,
                trace_out: None,
            }
        );
        assert!(parse(&v(&["serve", "--workers", "0"])).is_err());
    }

    #[test]
    fn serve_observability_flags() {
        let cli = parse(&v(&[
            "serve", "--log-file", "d.log", "--log-level", "debug", "--trace-out", "t.json",
        ]))
        .expect("valid");
        match cli.command {
            Command::Serve {
                log_file,
                log_level,
                trace_out,
                ..
            } => {
                assert_eq!(log_file.as_deref(), Some("d.log"));
                assert_eq!(log_level, Level::Debug);
                assert_eq!(trace_out.as_deref(), Some("t.json"));
            }
            other => panic!("wrong command {other:?}"),
        }
        // The level only means something with a file to filter into.
        assert!(parse(&v(&["serve", "--log-level", "debug"])).is_err());
        assert!(parse(&v(&["serve", "--log-file", "d.log", "--log-level", "loud"])).is_err());
    }

    #[test]
    fn server_metrics_and_health_subcommands() {
        let cli = parse(&v(&["server-metrics", "--addr", "h:1"])).expect("valid");
        assert_eq!(cli.command, Command::ServerMetrics { addr: "h:1".into() });
        let cli = parse(&v(&["server-health", "--addr", "h:1"])).expect("valid");
        assert_eq!(cli.command, Command::ServerHealth { addr: "h:1".into() });
        assert!(parse(&v(&["server-metrics"])).is_err());
        assert!(parse(&v(&["server-health"])).is_err());
    }

    #[test]
    fn snapshot_flags() {
        let cli = parse(&v(&[
            "run", "--bench", "AMR", "--policy", "spawn", "--snapshot-at", "5000",
            "--snapshot-out", "s.snap",
        ]))
        .expect("valid");
        match cli.command {
            Command::Run {
                snapshot_at,
                snapshot_out,
                resume,
                ..
            } => {
                assert_eq!(snapshot_at, Some(5000));
                assert_eq!(snapshot_out.as_deref(), Some("s.snap"));
                assert_eq!(resume, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        let cli = parse(&v(&[
            "run", "--bench", "AMR", "--policy", "spawn", "--resume", "s.snap",
        ]))
        .expect("valid");
        match cli.command {
            Command::Run { resume, .. } => assert_eq!(resume.as_deref(), Some("s.snap")),
            other => panic!("unexpected {other:?}"),
        }
        // Invalid combinations are rejected with a reason.
        for bad in [
            &["run", "--bench", "AMR", "--policy", "spawn", "--snapshot-at", "5"][..],
            &["run", "--bench", "AMR", "--policy", "spawn", "--snapshot-out", "f"][..],
            &[
                "run", "--bench", "AMR", "--policy", "spawn", "--resume", "f",
                "--snapshot-at", "5", "--snapshot-out", "g",
            ][..],
            &[
                "run", "--bench", "AMR", "--policy", "spawn", "--resume", "f", "--trace", "10",
            ][..],
        ] {
            assert!(parse(&v(bad)).is_err(), "{bad:?} should be rejected");
        }
        // Sweep grows the fork point.
        let cli = parse(&v(&[
            "sweep", "--bench", "Mandel", "--fork-warmup", "40000",
        ]))
        .expect("valid");
        match cli.command {
            Command::Sweep { fork_warmup, .. } => assert_eq!(fork_warmup, Some(40000)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn submit_subcommand() {
        let cli = parse(&v(&[
            "submit", "--addr", "127.0.0.1:7070", "--bench", "AMR", "--policy", "spawn",
        ]))
        .expect("valid");
        assert_eq!(
            cli.command,
            Command::Submit {
                addr: "127.0.0.1:7070".into(),
                bench: Some("AMR".into()),
                spec: None,
                policy: PolicySpec::Spawn,
                metrics: MetricsLevel::Full,
                emit_json: None,
            }
        );
        assert!(parse(&v(&["submit", "--bench", "AMR", "--policy", "spawn"])).is_err());
        assert!(parse(&v(&["submit", "--addr", "x", "--policy", "spawn"])).is_err());
        let cli = parse(&v(&["server-stats", "--addr", "h:1"])).expect("valid");
        assert_eq!(cli.command, Command::ServerStats { addr: "h:1".into() });
        let cli = parse(&v(&["server-shutdown", "--addr", "h:1"])).expect("valid");
        assert_eq!(cli.command, Command::ServerShutdown { addr: "h:1".into() });
    }
}
