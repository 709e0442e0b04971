//! The profiled sub-run of a traced benchmark run: runs a workload's
//! jobs once under the simulator's self-profiler and prints one JSON
//! line, `{"wall_ms": .., "events": .., "phases": {name: ns, ..}}`.
//!
//! Built with the `profile` feature, which the measuring binary is not,
//! so the profiler's timers never distort the end-to-end figures.
//!
//! Usage: `perfbench-profiled --workload NAME --seed N --scale S`

use dynapar_engine::profile::ProfileReport;
use dynapar_gpu::Json;
use dynapar_perfbench::jobs::Workload;
use dynapar_workloads::{RunOptions, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| fail(&format!("missing {flag}")))
    };
    let workload = Workload::parse(&arg("--workload")).unwrap_or_else(|| fail("unknown workload"));
    let seed: u64 = arg("--seed").parse().unwrap_or_else(|_| fail("bad --seed"));
    let scale = Scale::parse(&arg("--scale")).unwrap_or_else(|| fail("bad --scale"));
    let mut merged = ProfileReport::default();
    let (mut wall_ms, mut events) = (0.0, 0u64);
    for req in workload.jobs(seed, scale) {
        let bench = req.workload.build(req.seed).unwrap_or_else(|e| fail(&e));
        let gpu = req.gpu.config();
        let ctrl = req
            .policy
            .controller(&gpu, bench.default_threshold(), req.metrics);
        let out = bench.run_full_profiled(&gpu, ctrl, RunOptions::default());
        let profile = out
            .profile
            .unwrap_or_else(|| fail("no profile: built without the profile feature"));
        if merged.phases.is_empty() {
            merged = profile;
        } else {
            merged.merge(&profile);
        }
        wall_ms += out.report.wall_ms;
        events += out.report.events_processed;
    }
    let phases = merged.phases.iter().map(|p| (p.name, Json::U64(p.ns)));
    let doc = Json::obj([
        ("wall_ms", Json::F64(wall_ms)),
        ("events", Json::U64(events)),
        ("phases", Json::obj(phases)),
    ]);
    println!("{doc}");
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench-profiled: {msg}");
    std::process::exit(2);
}
