//! Golden event-count regression test.
//!
//! `events_processed` is a pure function of the simulated behavior: any
//! refactor that preserves semantics leaves every count bit-identical,
//! and any drift means the simulation itself changed. The perf gate
//! checks the same invariant but only at the scale/seed a committed
//! baseline was recorded with; this test pins the counts at tiny scale
//! so `cargo test` catches behavioral drift without running the
//! benchmark suite.
//!
//! When a change *deliberately* alters simulated behavior, regenerate
//! the table with:
//!
//! ```text
//! DYNAPAR_GOLDEN=print cargo test --test golden_counts -- --nocapture
//! ```
//!
//! and paste the printed rows over `GOLDEN` below (then explain the
//! behavioral change in the commit message).

use dynapar::core::{BaselineDp, SpawnPolicy};
use dynapar::gpu::{GpuConfig, InlineAll, LaunchController};
use dynapar::workloads::{suite, Scale};

/// `(benchmark, scheme, events_processed)` at tiny scale with the
/// default seed and the Table II config.
const GOLDEN: &[(&str, &str, u64)] = &[
    ("BFS-graph500", "flat", 1127),
    ("BFS-graph500", "baseline", 893),
    ("BFS-graph500", "spawn", 938),
    ("AMR", "flat", 77888),
    ("AMR", "baseline", 27493),
    ("AMR", "spawn", 19983),
    ("SA-thaliana", "flat", 100718),
    ("SA-thaliana", "baseline", 42279),
    ("SA-thaliana", "spawn", 42311),
    ("MM-small", "flat", 57085),
    ("MM-small", "baseline", 9318),
    ("MM-small", "spawn", 9656),
];

fn controller(scheme: &str, cfg: &GpuConfig) -> Box<dyn LaunchController> {
    match scheme {
        "flat" => Box::new(InlineAll),
        "baseline" => Box::new(BaselineDp::new()),
        "spawn" => Box::new(SpawnPolicy::from_config(cfg)),
        other => panic!("unknown scheme {other:?}"),
    }
}

#[test]
fn event_counts_match_golden() {
    let cfg = GpuConfig::kepler_k20m();
    let print = std::env::var_os("DYNAPAR_GOLDEN").is_some_and(|v| v == "print");
    let mut drift = Vec::new();
    for &(bench, scheme, expected) in GOLDEN {
        let b = suite::by_name(bench, Scale::Tiny, suite::DEFAULT_SEED)
            .expect("known benchmark");
        let got = b.run(&cfg, controller(scheme, &cfg)).events_processed;
        if print {
            println!("    (\"{bench}\", \"{scheme}\", {got}),");
        } else if got != expected {
            drift.push(format!("{bench}/{scheme}: golden {expected}, got {got}"));
        }
    }
    assert!(
        drift.is_empty(),
        "simulated behavior drifted from the golden event counts:\n  {}\n\
         If the change is intentional, regenerate with \
         DYNAPAR_GOLDEN=print cargo test --test golden_counts -- --nocapture",
        drift.join("\n  ")
    );
}
