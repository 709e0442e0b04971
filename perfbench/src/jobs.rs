//! The workloads and the jobs each one submits.
//!
//! Jobs are built through `JobRequest::from_json`, the daemon's own
//! wire form, so the benchmark names only what a user would send.

use dynapar_gpu::Json;
use dynapar_server::request::JobRequest;
use dynapar_workloads::Scale;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `dynapar run --emit-json` on the `perf` pairs at paper scale.
    RunPaper,
    /// A fresh daemon on an empty store: every submit executes.
    DaemonCold,
    /// A daemon restarted on the store `DaemonCold`'s jobs wrote: every
    /// submit is a memo hit.
    DaemonWarm,
}

/// Every workload, in the order the benchmark documents them.
pub const ALL: [Workload; 3] = [
    Workload::RunPaper,
    Workload::DaemonCold,
    Workload::DaemonWarm,
];

/// The `perf` benchmark × policy pairs `run-paper` runs.
pub const PAPER_BENCHES: [&str; 4] = ["BFS-graph500", "AMR", "SA-thaliana", "MM-small"];
/// The policies each `run-paper` benchmark runs under.
pub const PAPER_POLICIES: [&str; 3] = ["flat", "baseline", "spawn"];
/// The six `spawn` jobs both daemon workloads submit, in the order they
/// are submitted and collected: largest artifact first (about 970 KB
/// down to 130 KB at small scale). Results are collected in order on one
/// connection, so each job's wait includes the decode of every larger
/// artifact before it — the head-of-line blocking such a client sees.
/// It also makes the median job's wait a long measurement, which this
/// kind of shared host disturbs less than a one-second one.
pub const DAEMON_BENCHES: [&str; 6] = [
    "SA-thaliana",
    "BFS-citation",
    "AMR",
    "MM-large",
    "Mandel",
    "MM-small",
];

impl Workload {
    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RunPaper => "run-paper",
            Workload::DaemonCold => "daemon-cold",
            Workload::DaemonWarm => "daemon-warm",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The input scale the workload runs at.
    pub fn scale(self) -> Scale {
        match self {
            Workload::RunPaper => Scale::Paper,
            Workload::DaemonCold | Workload::DaemonWarm => Scale::Small,
        }
    }

    /// Whether the workload's jobs are simulated (by the benchmark or
    /// by the daemon) while it is measured.
    pub fn simulates(self) -> bool {
        self != Workload::DaemonWarm
    }

    /// The workload's jobs for `seed`, at `scale`.
    pub fn jobs(self, seed: u64, scale: Scale) -> Vec<JobRequest> {
        match self {
            Workload::RunPaper => PAPER_BENCHES
                .iter()
                .flat_map(|b| PAPER_POLICIES.iter().map(move |p| job(b, scale, p, seed)))
                .collect(),
            Workload::DaemonCold | Workload::DaemonWarm => DAEMON_BENCHES
                .iter()
                .map(|b| job(b, scale, "spawn", seed))
                .collect(),
        }
    }
}

/// One summary-metrics job on the default GPU.
pub fn job(bench: &str, scale: Scale, policy: &str, seed: u64) -> JobRequest {
    let wire = Json::obj([
        ("bench", Json::str(bench)),
        ("scale", Json::str(scale.name())),
        ("policy", Json::str(policy)),
        ("seed", Json::U64(seed)),
        ("metrics", Json::str("summary")),
    ]);
    JobRequest::from_json(&wire).expect("the benchmark's jobs are well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_the_documented_jobs() {
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
        let paper = Workload::RunPaper.jobs(3, Scale::Paper);
        assert_eq!(paper.len(), 12);
        assert!(paper.iter().all(|j| j.seed == 3));
        let cold = Workload::DaemonCold.jobs(3, Scale::Small);
        assert_eq!(cold, Workload::DaemonWarm.jobs(3, Scale::Small));
        assert_eq!(cold.len(), 6);
        assert_eq!(cold[0].policy.label(), "spawn");
    }
}
