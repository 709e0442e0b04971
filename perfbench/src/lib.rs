//! # dynapar-perfbench
//!
//! The repository's benchmark: end-to-end and per-layer measurements of
//! what a dynapar user waits for — `dynapar run --emit-json` on paper-
//! scale inputs, and `submit`→`result` against a cold and a restarted
//! daemon. It drives the system only through its public API
//! (`JobRequest`, `Benchmark`, `RunArtifact`, `Json`, `Server`,
//! `Client`). See `perfbench/README.md` for the workloads, the metrics
//! and the recorded baseline.

pub mod host;
pub mod jobs;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
