//! `perfbench` — runs one workload and prints every metric by name.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench compare BASE.result.json NEW.result.json
//! ```
//!
//! Run it from the repository root (normally through `run.py`, which
//! builds it first). The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer ones (`--trace 1`). The full
//! record, with the host and every metric's sample count, goes to
//! `.bench_out/<workload>-seed<N>-trace<T>.result.json`; a traced run
//! also writes its spans as a Chrome trace beside it.

use std::path::{Path, PathBuf};

use dynapar_gpu::Json;
use dynapar_perfbench::host::Host;
use dynapar_perfbench::jobs::Workload;
use dynapar_perfbench::report::{self, check_complete, result_line, END_TO_END, PER_LAYER};
use dynapar_perfbench::run::{run, Config, Outcome};
use dynapar_perfbench::stats::samples_beyond;

const OUT_DIR: &str = ".bench_out";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        _ => measure(&args),
    };
    std::process::exit(code);
}

fn usage(msg: &str) -> i32 {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload run-paper|daemon-cold|daemon-warm --seed N --seconds S --trace 0|1");
    eprintln!("       perfbench compare BASE.result.json NEW.result.json");
    2
}

fn compare(args: &[String]) -> i32 {
    let [base, new] = args else {
        return usage("compare takes two result files");
    };
    let read = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    match read(base).and_then(|b| report::compare(&b, &read(new)?)) {
        Ok(table) => {
            print!("{table}");
            0
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            3
        }
    }
}

fn measure(args: &[String]) -> i32 {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage(
            "--workload, --seed, --seconds and --trace are all required and must be valid",
        );
    };
    let root = Path::new(".");
    let out_dir = root.join(OUT_DIR);
    let stem = format!("{}-seed{seed}-trace{}", workload.name(), u8::from(trace));
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        scale: None,
        work_dir: out_dir.join(format!("work-{}", std::process::id())),
        profiled_bin: std::env::current_exe()
            .ok()
            .map(|exe| exe.with_file_name("perfbench-profiled"))
            .filter(|p| p.exists()),
    };
    let host = Host::probe(root);
    println!(
        "# perfbench {} seed={seed} seconds={seconds} trace={}",
        workload.name(),
        u8::from(trace)
    );
    println!("# host {}", host.to_json());
    if !host.profile_matches_root {
        println!("# warning: the benchmark's release profile differs from the root Cargo.toml's");
    }
    let outcome = run(&cfg);
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 1;
        }
    };
    let catalogue: &[report::Decl] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut reported = outcome.values.clone();
    reported.retain(|name, _| catalogue.iter().any(|d| d.0 == *name));
    if let Err(e) = check_complete(&reported, catalogue) {
        eprintln!("perfbench: {e}");
        return 1;
    }
    print!("{}", report::table(&outcome.values));
    for (name, q) in [("latency_p50_ms", 0.5), ("latency_p90_ms", 0.9)] {
        let beyond = samples_beyond(&outcome.job_latencies_ms, q);
        let caveat = if beyond < 10 {
            ": fewer than 10, read it as a tail bound"
        } else {
            ""
        };
        println!("# {name}: {beyond} samples lie beyond it{caveat}");
    }
    let ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "failed_ratio {ratio} ({} of {} operations failed)",
        outcome.failed, outcome.attempted
    );
    for p in &outcome.problems {
        println!("# failed: {p}");
    }
    println!(
        "# digest {} {:016x} ({} artifact bytes per pass)",
        workload.name(),
        outcome.digest,
        outcome.artifact_bytes
    );
    println!("# counts {:?}", outcome.counts);
    match write_records(&out_dir, &stem, workload, seed, &host, &outcome) {
        Ok(paths) => {
            for p in paths {
                println!("# wrote {}", p.display());
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 1;
        }
    }
    println!(
        "{}",
        result_line(outcome.attempted, outcome.failed, &reported, catalogue)
    );
    0
}

/// Writes the full result record and, for a traced run, the Chrome trace.
fn write_records(
    dir: &Path,
    stem: &str,
    workload: Workload,
    seed: u64,
    host: &Host,
    o: &Outcome,
) -> Result<Vec<PathBuf>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let metrics = o.values.iter().map(|(name, v)| {
        let unit = report::decl(name).map_or("", |d| d.1);
        (
            name.to_string(),
            Json::obj([
                ("value", Json::F64(v.value)),
                ("unit", Json::str(unit)),
                ("samples", Json::U64(v.samples as u64)),
            ]),
        )
    });
    let record = Json::obj([
        ("workload", Json::str(workload.name())),
        ("seed", Json::U64(seed)),
        ("host", host.to_json()),
        ("attempted", Json::U64(o.attempted)),
        ("failed", Json::U64(o.failed)),
        ("digest", Json::str(format!("{:016x}", o.digest))),
        ("artifact_bytes", Json::U64(o.artifact_bytes)),
        ("metrics", Json::Obj(metrics.collect())),
    ]);
    let mut written = Vec::new();
    let path = dir.join(format!("{stem}.result.json"));
    std::fs::write(&path, format!("{}\n", record.pretty()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    written.push(path);
    if o.tracer.is_on() {
        let path = dir.join(format!("{stem}.trace.json"));
        let doc = o
            .tracer
            .chrome_trace(&format!("perfbench {}", workload.name()));
        std::fs::write(&path, format!("{doc}\n"))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        written.push(path);
    }
    Ok(written)
}
