//! Tiny-scale smoke of every workload, traced and untraced: every
//! output check runs, no operation fails, every declared metric is
//! reported, and the layer predictions that hold at any scale hold.

use std::path::PathBuf;

use dynapar_gpu::Json;
use dynapar_perfbench::jobs::{Workload, ALL};
use dynapar_perfbench::report::{check_complete, Values, END_TO_END, PER_LAYER};
use dynapar_perfbench::run::{run, Config, Outcome};
use dynapar_workloads::Scale;

fn smoke(workload: Workload, trace: bool) -> Outcome {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{}-{}",
        workload.name(),
        u8::from(trace)
    ));
    let cfg = Config {
        workload,
        seed: 5,
        seconds: 0.0,
        trace,
        scale: Some(Scale::Tiny),
        work_dir: work_dir.clone(),
        profiled_bin: None,
    };
    let out = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    let _ = std::fs::remove_dir_all(work_dir);
    assert_eq!(out.failed, 0, "{}: {:?}", workload.name(), out.problems);
    assert!(out.attempted >= workload.jobs(5, Scale::Tiny).len() as u64);
    out
}

fn value(values: &Values, name: &str) -> f64 {
    values
        .get(name)
        .unwrap_or_else(|| panic!("{name} missing"))
        .value
}

fn only(values: &Values, catalogue: &[(&'static str, &'static str, &'static str)]) -> Values {
    let mut v = values.clone();
    v.retain(|name, _| catalogue.iter().any(|d| d.0 == *name));
    v
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    for w in ALL {
        let out = smoke(w, false);
        check_complete(&out.values, &END_TO_END).unwrap();
        for (name, _, _) in END_TO_END {
            assert!(value(&out.values, name) > 0.0, "{}: {name} is 0", w.name());
        }
        assert!(out.tracer.spans().is_empty());
    }
}

#[test]
fn traced_runs_report_every_layer_and_follow_the_predictions() {
    let mut digests = Vec::new();
    for w in ALL {
        let out = smoke(w, true);
        let v = &out.values;
        check_complete(&only(v, &PER_LAYER), &PER_LAYER).unwrap();
        let coverage = value(v, "trace.coverage");
        assert!(
            coverage > 0.5 && coverage <= 1.0,
            "{}: coverage {coverage}",
            w.name()
        );
        assert!(value(v, "trace.overhead") > 0.0);
        assert!(
            value(v, "gpu.events") > 0.0,
            "model counts are reported on every workload"
        );
        match w {
            Workload::RunPaper => {
                assert_eq!(value(v, "json.decode_ms"), 0.0);
                assert!(value(v, "gpu.sim_ms") > 0.0);
                assert!(value(v, "store.write_ms") > 0.0);
            }
            Workload::DaemonCold => {
                assert_eq!(value(v, "server.memo_hit_ratio"), 0.0);
                assert!(value(v, "gpu.sim_ms") > 0.0);
                assert!(value(v, "json.decode_ms") > 0.0);
                assert_eq!(value(v, "store.entries"), 0.0);
            }
            Workload::DaemonWarm => {
                assert_eq!(value(v, "server.memo_hit_ratio"), 1.0);
                assert_eq!(value(v, "gpu.sim_ms"), 0.0);
                assert_eq!(value(v, "workloads.synth_ms"), 0.0);
                assert_eq!(value(v, "server.execute_ms"), 0.0);
                assert_eq!(value(v, "store.entries"), 6.0);
                assert!(value(v, "json.decode_ms") > 0.0);
            }
        }
        let doc = out.tracer.chrome_trace("smoke");
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("X")));
        digests.push((w, out.digest, out.counts));
    }
    // The two daemons serve the same six jobs, so the same bytes.
    assert_eq!(digests[1].1, digests[2].1);
    assert_eq!(digests[1].2, digests[2].2);
}
