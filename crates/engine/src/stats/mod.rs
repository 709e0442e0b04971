//! Statistics primitives used to monitor the simulated GPU and to
//! regenerate the paper's figures.
//!
//! * [`RunningMean`] — exact running average (used for `t_cta`, Eq. 1),
//! * [`WindowedTimeAvg`] — time-weighted average over power-of-two cycle
//!   windows with shift-based division, mirroring the hardware the paper
//!   proposes for `n_con` (§IV-B: 1024-cycle windows, shift right by 10),
//! * [`WindowedEventAvg`] — per-window average of discrete samples (`t_warp`),
//! * [`TimeWeighted`] — exact time integral of a step function (occupancy),
//! * [`Histogram`] — fixed-bin histogram with PDF output (Fig. 12),
//! * [`LatencyHistogram`] — fixed power-of-two-bucket histogram over
//!   microsecond samples, the storage behind the server's latency
//!   telemetry (always-mergeable, byte-stable JSON),
//! * [`Cdf`] — empirical CDF over recorded values (Fig. 20),
//! * [`Summary`] — one-pass descriptive statistics (mean/sd/percentiles).

mod cdf;
mod histogram;
mod latency;
mod mean;
mod summary;
mod weighted;
mod windowed;

pub use cdf::Cdf;
pub use histogram::Histogram;
pub use latency::{LatencyHistogram, LATENCY_BUCKETS};
pub use mean::RunningMean;
pub use summary::Summary;
pub use weighted::TimeWeighted;
pub use windowed::{WindowedEventAvg, WindowedTimeAvg};
