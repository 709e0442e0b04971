//! # dynapar-server
//!
//! Simulation-as-a-service for the dynapar GPU simulator: a persistent
//! daemon that accepts simulation jobs over TCP, executes them on a
//! panic-isolated worker pool, and memoizes results by canonical config
//! hash so an identical config+seed is never simulated twice.
//!
//! Layers, bottom up:
//!
//! * [`request`] — [`JobRequest`], the typed job description both the
//!   CLI and the daemon execute through (this is what guarantees a
//!   `dynapar run` and a server `submit` with equal configs produce
//!   byte-identical artifacts), plus [`SweepRequest`] for policy sweeps;
//! * [`registry`] — the shared job table: one lifecycle record per job
//!   (states and their instants), memoization, in-flight coalescing,
//!   FIFO fairness, lifetime stats;
//! * [`proto`] — the frozen v1 line-JSON wire protocol
//!   (`submit`/`status`/`result`/`watch`/`cancel`/`sweep`/`stats`/
//!   `metrics`/`health`/`shutdown`);
//! * [`metrics`] — service-level telemetry: per-class latency
//!   histograms (queue-wait / execute / end-to-end / memo-lookup) and
//!   live gauges, rendered as JSON and Prometheus exposition text;
//! * [`trace`] — the daemon-level Perfetto trace (`serve --trace-out
//!   F`), a pure rendering of the registry's job records: one span per
//!   executed job, memo hits as instants;
//! * [`daemon`] — the TCP accept loop, connection handlers and the
//!   [`WorkQueue`](dynapar_engine::par::WorkQueue)-backed executor;
//! * [`client`] — a minimal blocking client (what `dynapar submit` and
//!   the protocol tests speak through).
//!
//! See `docs/SERVER.md` for the protocol reference and failure-mode
//! semantics.
//!
//! # Examples
//!
//! An in-process daemon round-trip on an ephemeral port:
//!
//! ```
//! use dynapar_server::daemon::{Server, ServerConfig};
//! use dynapar_server::client::Client;
//! use dynapar_server::request::{GpuPreset, JobRequest, WorkloadRef};
//! use dynapar_core::PolicySpec;
//! use dynapar_gpu::MetricsLevel;
//! use dynapar_workloads::Scale;
//!
//! let server = Server::bind(&ServerConfig::default()).unwrap();
//! let addr = server.local_addr().unwrap().to_string();
//! let handle = std::thread::spawn(move || server.run().unwrap());
//!
//! let mut client = Client::connect(&addr).unwrap();
//! let job = JobRequest {
//!     workload: WorkloadRef::Suite { bench: "AMR".into(), scale: Scale::Tiny },
//!     policy: PolicySpec::Flat,
//!     seed: 1,
//!     metrics: MetricsLevel::Summary,
//!     gpu: GpuPreset::KeplerK20m,
//! };
//! let res = client.run(&job).unwrap();
//! assert!(!res.cached, "first run simulates");
//! let again = client.run(&job).unwrap();
//! assert!(again.cached, "second identical run is a memo hit");
//! assert_eq!(res.artifact.to_string(), again.artifact.to_string());
//!
//! client.shutdown().unwrap();
//! handle.join().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod metrics;
pub mod proto;
pub mod registry;
pub mod request;
pub mod trace;

pub use client::{Client, ResultAck, SubmitAck};
pub use daemon::{Server, ServerConfig};
pub use metrics::{
    health_response, metrics_response, ClassMetrics, Gauges, Phase, ServerMetrics,
};
pub use proto::{Request, MAX_LINE_BYTES, PROTOCOL_VERSION};
pub use registry::{
    Admission, JobHandles, JobRecord, JobSnapshot, JobState, Registry, RegistryStats, SampleRing,
};
pub use request::{GpuPreset, JobRequest, SweepRequest, WarmStart, WorkloadRef};
