//! `dynapar` — command-line front end to the SPAWN reproduction.
//!
//! ```sh
//! dynapar run --bench SA-thaliana --policy spawn --scale small
//! dynapar compare --bench AMR --scale small
//! dynapar sweep --bench BFS-graph500 --points 6
//! dynapar suite --policy spawn --scale small
//! dynapar serve --listen 127.0.0.1:7070
//! dynapar submit --addr 127.0.0.1:7070 --bench AMR --policy spawn
//! ```
//!
//! Single-run execution goes through the same typed
//! [`JobRequest`](dynapar_server::JobRequest) API the daemon serves, so
//! `dynapar run --emit-json` and a server `submit` with equal configs
//! write byte-identical artifacts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;

use std::process::ExitCode;

use args::{Cli, Command, USAGE};
use dynapar_core::PolicySpec;
use dynapar_engine::par::par_map;
use dynapar_gpu::{GpuConfig, MetricsLevel, SimReport};
use dynapar_server::{
    Client, GpuPreset, JobRequest, Server, ServerConfig, SweepRequest, WarmStart, WorkloadRef,
    PROTOCOL_VERSION,
};
use dynapar_workloads::{suite, Benchmark};

fn summarize(label: &str, r: &SimReport, flat_cycles: Option<u64>) {
    let speedup = flat_cycles
        .map(|f| format!(" ({:.2}x vs flat)", r.speedup_over(f)))
        .unwrap_or_default();
    println!("{label:<14} {:>10} cycles{speedup}", r.total_cycles);
    println!(
        "{:<14} kernels={} agg-ctas={} offload={:.1}% occupancy={:.1}% L2={:.1}% queue-lat={:.0}",
        "",
        r.child_kernels_launched,
        r.aggregated_ctas,
        r.offload_fraction() * 100.0,
        r.occupancy * 100.0,
        r.mem.l2_hit_rate() * 100.0,
        r.avg_child_queue_latency,
    );
}

fn get_bench(name: &str, cli: &Cli) -> Result<Benchmark, String> {
    suite::by_name(name, cli.scale, cli.seed)
        .ok_or_else(|| format!("unknown benchmark {name:?}; try `dynapar list`"))
}

/// Builds the workload reference from the mutually-exclusive
/// `--bench`/`--spec` pair (exclusivity was enforced at parse time).
fn workload_ref(
    bench: &Option<String>,
    spec: &Option<String>,
    cli: &Cli,
) -> Result<WorkloadRef, String> {
    match (bench, spec) {
        (Some(name), None) => Ok(WorkloadRef::Suite {
            bench: name.clone(),
            scale: cli.scale,
        }),
        (None, Some(path)) => Ok(WorkloadRef::Spec {
            text: std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?,
        }),
        _ => unreachable!("parse() enforces exactly one of --bench/--spec"),
    }
}

fn exec(cli: Cli) -> Result<(), String> {
    let cfg = GpuConfig::kepler_k20m();
    match &cli.command {
        Command::Help => print!("{USAGE}"),
        Command::List => {
            for n in suite::NAMES {
                println!("{n}");
            }
            println!("SA-elegans (extra input for the Fig. 21 comparison)");
        }
        Command::Config => {
            println!("{cfg:#?}");
        }
        Command::Spec { file, policy } => {
            let text = std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
            let spec = dynapar_workloads::BenchmarkSpec::parse(&text).map_err(|e| e.to_string())?;
            let b = spec.build(cli.seed);
            println!(
                "# spec {}: {} threads, {} items",
                b.name(),
                b.threads(),
                b.total_items()
            );
            let flat = b.run_flat(&cfg);
            summarize("flat", &flat, None);
            let ctrl = policy.controller(&cfg, b.default_threshold(), MetricsLevel::Off);
            let r = b.run(&cfg, ctrl);
            summarize(&policy.label(), &r, Some(flat.total_cycles));
        }
        Command::Levels { input, policy } => {
            use dynapar_workloads::apps::{bfs::levels, GraphInput};
            let gi = match input.as_str() {
                "citation" => GraphInput::Citation,
                "graph500" => GraphInput::Graph500,
                other => return Err(format!("unknown input {other:?} (citation|graph500)")),
            };
            let flat = levels::run(gi, cli.scale, cli.seed, &cfg, Box::new(dynapar_gpu::InlineAll));
            summarize("flat", &flat, None);
            // Build a throwaway benchmark handle for policy construction.
            let b = suite::by_name("BFS-graph500", cli.scale, cli.seed).expect("known");
            let ctrl = policy.controller(&cfg, b.default_threshold(), MetricsLevel::Off);
            let r = levels::run(gi, cli.scale, cli.seed, &cfg, ctrl);
            summarize(&policy.label(), &r, Some(flat.total_cycles));
        }
        Command::Run {
            bench,
            spec,
            policy,
            trace,
            timeline_csv,
            kernels_csv,
            emit_json,
            emit_timeline,
            metrics,
            snapshot_at,
            snapshot_out,
            resume,
        } => {
            let job = JobRequest {
                workload: workload_ref(bench, spec, &cli)?,
                policy: policy.clone(),
                seed: cli.seed,
                metrics: *metrics,
                gpu: GpuPreset::KeplerK20m,
            };
            // Built once here for the header line (and the friendly
            // unknown-benchmark error before any simulation starts);
            // the run itself rebuilds deterministically inside `job`.
            let b = job.workload.build(cli.seed).map_err(|e| {
                if e.starts_with("unknown benchmark") {
                    format!("{e}; try `dynapar list`")
                } else {
                    e
                }
            })?;
            println!(
                "# {} at {} scale: {} threads, {} items",
                b.name(),
                cli.scale.name(),
                b.threads(),
                b.total_items()
            );
            let out = if let Some(path) = resume {
                let snap =
                    std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
                println!("# resuming from snapshot {path} ({} bytes)", snap.len());
                job.execute(WarmStart::Resume { snapshot: &snap }, None)?
            } else if let Some(cycle) = snapshot_at {
                job.execute(WarmStart::Armed { cycle: *cycle }, None)?
            } else {
                job.run(*trace)?
            };
            if let Some(path) = snapshot_out {
                let snap = out.snapshot.as_ref().ok_or_else(|| {
                    format!(
                        "run finished before cycle {} — no snapshot captured",
                        snapshot_at.expect("--snapshot-out implies --snapshot-at")
                    )
                })?;
                std::fs::write(path, snap).map_err(|e| format!("writing {path}: {e}"))?;
                println!("# snapshot written to {path} ({} bytes)", snap.len());
            }
            let r = &out.report;
            summarize(&policy.label(), r, None);
            if let Some(tr) = &out.trace {
                println!("# trace: {} events ({} dropped)", tr.events().len(), tr.dropped());
                for ev in tr.events().iter().take(40) {
                    println!("  {ev}");
                }
                if tr.events().len() > 40 {
                    println!("  ... ({} more)", tr.events().len() - 40);
                }
            }
            if let Some(path) = timeline_csv {
                std::fs::write(path, r.timeline_csv())
                    .map_err(|e| format!("writing {path}: {e}"))?;
                println!("# timeline written to {path}");
            }
            if let Some(path) = kernels_csv {
                std::fs::write(path, r.kernels_csv())
                    .map_err(|e| format!("writing {path}: {e}"))?;
                println!("# kernel table written to {path}");
            }
            if let Some(path) = emit_json {
                let artifact = out
                    .artifact
                    .as_ref()
                    .ok_or("--emit-json needs --metrics summary|full|timeseries")?;
                std::fs::write(path, format!("{artifact}\n"))
                    .map_err(|e| format!("writing {path}: {e}"))?;
                println!("# artifact written to {path}");
            }
            if let Some(path) = emit_timeline {
                let tr = out
                    .trace
                    .as_ref()
                    .expect("--emit-timeline implies tracing");
                let doc = dynapar_gpu::perfetto::timeline_json(tr);
                std::fs::write(path, format!("{}\n", doc.pretty()))
                    .map_err(|e| format!("writing {path}: {e}"))?;
                println!("# perfetto timeline written to {path} (open at ui.perfetto.dev)");
            }
        }
        Command::SnapDiff { a, b } => {
            let bytes_a = std::fs::read(a).map_err(|e| format!("reading {a}: {e}"))?;
            let bytes_b = std::fs::read(b).map_err(|e| format!("reading {b}: {e}"))?;
            print!("{}", dynapar_gpu::diff_snapshots(&bytes_a, &bytes_b));
        }
        Command::CheckArtifact { file } => {
            let text =
                std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
            let artifact = dynapar_gpu::RunArtifact::parse(&text).map_err(|e| e.to_string())?;
            println!(
                "ok: {} level={:?} ccqs_samples={}",
                dynapar_gpu::ARTIFACT_SCHEMA,
                artifact.level(),
                artifact.ccqs_samples().len()
            );
        }
        Command::CheckTimeline { file } => {
            let text =
                std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
            let json = dynapar_gpu::Json::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
            let events = json
                .get("traceEvents")
                .and_then(dynapar_gpu::Json::as_array)
                .ok_or("timeline has no `traceEvents` array")?;
            if events.is_empty() {
                return Err("timeline has an empty `traceEvents` array".into());
            }
            let spans = events
                .iter()
                .filter(|e| e.get("ph").and_then(dynapar_gpu::Json::as_str) == Some("X"))
                .count();
            println!("ok: {} trace events ({spans} spans)", events.len());
        }
        Command::Compare { bench } => {
            let b = get_bench(bench, &cli)?;
            let flat = b.run_flat(&cfg);
            summarize("flat", &flat, None);
            let policies = vec![
                PolicySpec::Baseline,
                PolicySpec::Spawn,
                PolicySpec::Dtbl,
                PolicySpec::Always,
                PolicySpec::Adaptive,
                PolicySpec::FreeLaunch,
            ];
            let runs = par_map(policies, cli.jobs, |p| {
                let ctrl = p.controller(&cfg, b.default_threshold(), MetricsLevel::Off);
                let r = b.run(&cfg, ctrl);
                (p, r)
            });
            for (p, r) in &runs {
                summarize(&p.label(), r, Some(flat.total_cycles));
            }
        }
        Command::Sweep {
            bench,
            spec,
            points,
            fork_warmup,
        } => {
            let workload = workload_ref(bench, spec, &cli)?;
            let b = workload.build(cli.seed).map_err(|e| {
                if e.starts_with("unknown benchmark") {
                    format!("{e}; try `dynapar list`")
                } else {
                    e
                }
            })?;
            let flat = b.run_flat(&cfg);
            let fracs: Vec<f64> = (1..=*points)
                .map(|i| i as f64 / (*points as f64 + 1.0))
                .collect();
            let mut grid = b.threshold_grid(&fracs);
            grid.push(b.default_threshold());
            grid.sort_unstable();
            grid.dedup();
            // The sweep expands through the same SweepRequest the
            // daemon's `sweep` request uses, so the per-point configs
            // (and memo keys) are identical on both paths.
            let sweep = SweepRequest {
                base: JobRequest {
                    workload,
                    policy: PolicySpec::Flat,
                    seed: cli.seed,
                    metrics: MetricsLevel::Off,
                    gpu: GpuPreset::KeplerK20m,
                },
                policies: grid.iter().map(|&t| PolicySpec::Threshold(t)).collect(),
                fork_warmup: *fork_warmup,
            };
            let jobs: Vec<(u32, JobRequest)> =
                grid.iter().copied().zip(sweep.expand()).collect();
            // With --fork-warmup, simulate the shared policy-independent
            // ramp once, then branch every remaining point from the
            // snapshot. Only a pristine ramp (no launch decisions yet)
            // is policy-independent; otherwise fall back to cold runs.
            let warm_snapshot = match fork_warmup {
                Some(cycle) if jobs.len() > 1 => {
                    let first = jobs[0].1.clone();
                    let out = first.execute(WarmStart::Armed { cycle: *cycle }, None)?;
                    let snap = out.snapshot.filter(|s| {
                        dynapar_gpu::parse_snapshot(s)
                            .ok()
                            .and_then(|(job, _)| {
                                job.get("pristine").and_then(dynapar_gpu::Json::as_bool)
                            })
                            == Some(true)
                    });
                    match &snap {
                        Some(s) => println!(
                            "# warm-start: ramped to cycle {cycle} once ({} bytes), forking {} branches",
                            s.len(),
                            jobs.len() - 1
                        ),
                        None => println!(
                            "# warm-start: cycle {cycle} is past the policy-independent ramp; running cold"
                        ),
                    }
                    snap.map(|s| (s, out.report))
                }
                _ => None,
            };
            let runs = if let Some((snap, first_report)) = warm_snapshot {
                let rest: Vec<(u32, JobRequest)> = jobs[1..].to_vec();
                let mut runs = vec![(jobs[0].0, first_report)];
                runs.extend(par_map(rest, cli.jobs, |(t, job)| {
                    let out = job
                        .execute(WarmStart::Resume { snapshot: &snap }, None)
                        .or_else(|_| job.run(None))
                        .expect("benchmark validated above");
                    (t, out.report)
                }));
                runs
            } else {
                par_map(jobs, cli.jobs, |(t, job)| {
                    let out = job.run(None).expect("benchmark validated above");
                    (t, out.report)
                })
            };
            println!("{:>10} {:>9} {:>8} {:>9}", "THRESHOLD", "offload%", "speedup", "kernels");
            for (t, r) in &runs {
                println!(
                    "{:>10} {:>8.1}% {:>7.2}x {:>9}",
                    t,
                    r.offload_fraction() * 100.0,
                    r.speedup_over(flat.total_cycles),
                    r.child_kernels_launched
                );
            }
            let best = runs
                .iter()
                .min_by_key(|(_, r)| r.total_cycles)
                .expect("non-empty grid");
            println!(
                "best: THRESHOLD={} -> {:.2}x",
                best.0,
                best.1.speedup_over(flat.total_cycles)
            );
        }
        Command::Suite { policy } => {
            println!("{:<15} {:>9} {:>9}", "benchmark", policy.label(), "kernels");
            let mut speedups = Vec::new();
            let runs = par_map(suite::all(cli.scale, cli.seed), cli.jobs, |b| {
                let flat = b.run_flat(&cfg);
                let ctrl = policy.controller(&cfg, b.default_threshold(), MetricsLevel::Off);
                let r = b.run(&cfg, ctrl);
                (b.name().to_string(), flat, r)
            });
            for (name, flat, r) in &runs {
                let s = r.speedup_over(flat.total_cycles);
                speedups.push(s);
                println!(
                    "{:<15} {:>8.2}x {:>9}",
                    name,
                    s,
                    r.child_kernels_launched
                );
            }
            println!(
                "{:<15} {:>8.2}x",
                "GEOMEAN",
                suite::geomean(&speedups)
            );
        }
        Command::Serve {
            listen,
            workers,
            port_file,
            store,
            store_max_bytes,
            log_file,
            log_level,
            trace_out,
        } => {
            let server = Server::bind(&ServerConfig {
                addr: listen.clone(),
                workers: *workers,
                store: store.clone().map(std::path::PathBuf::from),
                store_max_bytes: *store_max_bytes,
                log_file: log_file.clone().map(std::path::PathBuf::from),
                log_level: *log_level,
                trace_out: trace_out.clone().map(std::path::PathBuf::from),
            })
            .map_err(|e| format!("bind {listen}: {e}"))?;
            if let Some(path) = log_file {
                println!("# structured log ({log_level}+) at {path}");
            }
            if let Some(path) = trace_out {
                println!("# Perfetto trace will be written to {path} on exit");
            }
            if let Some(dir) = store {
                match store_max_bytes {
                    Some(cap) => println!("# memo cache persisted under {dir} (cap {cap} bytes)"),
                    None => println!("# memo cache persisted under {dir}"),
                }
            }
            let addr = server.local_addr().map_err(|e| format!("local_addr: {e}"))?;
            if let Some(path) = port_file {
                std::fs::write(path, format!("{}\n", addr.port()))
                    .map_err(|e| format!("writing {path}: {e}"))?;
            }
            println!(
                "# dynapar-server v{PROTOCOL_VERSION} listening on {addr} ({workers} worker{})",
                if *workers == 1 { "" } else { "s" }
            );
            server.run().map_err(|e| format!("serve: {e}"))?;
            println!("# dynapar-server stopped");
        }
        Command::Submit {
            addr,
            bench,
            spec,
            policy,
            metrics,
            emit_json,
        } => {
            let job = JobRequest {
                workload: workload_ref(bench, spec, &cli)?,
                policy: policy.clone(),
                seed: cli.seed,
                metrics: *metrics,
                gpu: GpuPreset::KeplerK20m,
            };
            let mut client =
                Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            let res = client.run(&job)?;
            println!("# job {} hash {} cached={}", res.id, res.hash, res.cached);
            if let Some(cycles) = res
                .artifact
                .get("report")
                .and_then(|r| r.get("total_cycles"))
                .and_then(dynapar_gpu::Json::as_u64)
            {
                println!("{:<14} {cycles:>10} cycles", policy.label());
            }
            if let Some(path) = emit_json {
                std::fs::write(path, format!("{}\n", res.artifact))
                    .map_err(|e| format!("writing {path}: {e}"))?;
                println!("# artifact written to {path}");
            }
        }
        Command::ServerStats { addr } => {
            let mut client =
                Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            println!("{}", client.stats()?.pretty());
        }
        Command::ServerMetrics { addr } => {
            let mut client =
                Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            println!("{}", client.metrics()?.pretty());
        }
        Command::ServerHealth { addr } => {
            let mut client =
                Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            println!("{}", client.health()?.pretty());
        }
        Command::ServerShutdown { addr } => {
            let mut client =
                Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            client.shutdown()?;
            println!("# daemon at {addr} stopping");
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Ok(cli) => match exec(cli) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
