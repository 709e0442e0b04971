//! The simulator's windowed telemetry series, recorded at
//! [`MetricsLevel::Timeseries`](dynapar_engine::metrics::MetricsLevel).
//!
//! [`SimSeries`] owns one [`TimeSeries`] per monitored quantity: the
//! GMU pending-queue depth, HWQ utilization, the controller's four
//! §IV-B monitored metrics (`n`, `n_con`, `t_cta`, `t_warp`), the
//! per-window launch-decision rates, and one occupancy series per SMX.
//! Everything is preallocated at build time and recorded through
//! bounded rings, so telemetry keeps the simulator's zero-allocation
//! steady state; at the other levels the container is simply never
//! constructed, so `off|summary|full` runs take no new branches beyond
//! one `Option` check per sample/decision.
//!
//! The whole set renders as the artifact's `timeseries` section under
//! the [`TIMESERIES_SCHEMA`] tag.

use dynapar_engine::json::Json;
use dynapar_engine::snap::{ByteReader, ByteWriter, SnapError};
use dynapar_engine::timeseries::TimeSeries;

use crate::config::GpuConfig;
use crate::controller::{LaunchDecision, MonitoredMetrics};
use crate::smx::Smx;

/// Schema tag of the artifact's `timeseries` section.
pub const TIMESERIES_SCHEMA: &str = "dynapar-timeseries/1";

/// Maximum buckets per series; past this the rings decimate (window
/// width doubles) instead of dropping the tail. 256 buckets of the
/// 1024-cycle base window cover a quarter-million cycles at full
/// resolution and any longer run at proportionally coarser grain.
const BUCKET_CAP: usize = 256;

/// All telemetry series of one run; see the [module docs](self).
#[derive(Debug)]
pub(crate) struct SimSeries {
    base_window_log2: u32,
    /// GMU pending-pool depth plus approved-but-not-yet-arrived
    /// launches — the backlog SPAWN's queue term reacts to.
    queue_depth: TimeSeries,
    /// Occupied fraction of the hardware queues.
    hwq_utilization: TimeSeries,
    /// Controller-monitored `n` (child CTAs in the system).
    n: TimeSeries,
    /// Controller-monitored windowed concurrency average.
    n_con: TimeSeries,
    /// Controller-monitored average child-CTA execution time.
    t_cta: TimeSeries,
    /// Controller-monitored windowed child-warp execution time.
    t_warp: TimeSeries,
    /// Decisions that launched work off the parent (Kernel/Aggregated).
    decisions_allowed: TimeSeries,
    /// Decisions that kept the work inline in the parent thread.
    decisions_denied: TimeSeries,
    /// Decisions that deferred the work into the warp (Redistribute).
    decisions_deferred: TimeSeries,
    /// Per-SMX occupancy (max of thread/register/shared-memory use).
    smx_occupancy: Vec<TimeSeries>,
}

impl SimSeries {
    /// Preallocates every series with the config's CCQS window width so
    /// telemetry windows line up with monitoring windows.
    pub(crate) fn new(cfg: &GpuConfig) -> Self {
        let w = cfg.metric_window_log2;
        let gauge = |name: &str| TimeSeries::gauge(name, w, BUCKET_CAP);
        let counter = |name: &str| TimeSeries::counter(name, w, BUCKET_CAP);
        SimSeries {
            base_window_log2: w,
            queue_depth: gauge("queue_depth"),
            hwq_utilization: gauge("hwq_utilization"),
            n: gauge("n"),
            n_con: gauge("n_con"),
            t_cta: gauge("t_cta"),
            t_warp: gauge("t_warp"),
            decisions_allowed: counter("decisions_allowed"),
            decisions_denied: counter("decisions_denied"),
            decisions_deferred: counter("decisions_deferred"),
            smx_occupancy: (0..cfg.smx_count)
                .map(|i| TimeSeries::gauge(format!("smx{i}_occupancy"), w, BUCKET_CAP))
                .collect(),
        }
    }

    /// Records one periodic sample of every gauge series.
    pub(crate) fn sample(
        &mut self,
        now: u64,
        queue_depth: f64,
        hwq_utilization: f64,
        monitored: Option<MonitoredMetrics>,
        smxs: &[Smx],
    ) {
        self.queue_depth.record(now, queue_depth);
        self.hwq_utilization.record(now, hwq_utilization);
        if let Some(m) = monitored {
            self.n.record(now, m.in_system as f64);
            self.n_con.record(now, m.n_con as f64);
            self.t_cta.record(now, m.t_cta as f64);
            self.t_warp.record(now, m.t_warp as f64);
        }
        for (smx, series) in smxs.iter().zip(self.smx_occupancy.iter_mut()) {
            let (t, r, m) = smx.utilization();
            series.record(now, t.max(r).max(m));
        }
    }

    /// Counts one launch decision into its per-window rate series.
    pub(crate) fn decision(&mut self, now: u64, decision: LaunchDecision) {
        match decision {
            LaunchDecision::Kernel | LaunchDecision::Aggregated => {
                self.decisions_allowed.add(now, 1)
            }
            LaunchDecision::Inline => self.decisions_denied.add(now, 1),
            LaunchDecision::Redistribute => self.decisions_deferred.add(now, 1),
        }
    }

    /// Serializes every series' bucket state in the fixed construction
    /// order (mirrors [`to_json`](SimSeries::to_json)).
    pub(crate) fn encode_state(&self, w: &mut ByteWriter) {
        self.queue_depth.encode_state(w);
        self.hwq_utilization.encode_state(w);
        self.n.encode_state(w);
        self.n_con.encode_state(w);
        self.t_cta.encode_state(w);
        self.t_warp.encode_state(w);
        self.decisions_allowed.encode_state(w);
        self.decisions_denied.encode_state(w);
        self.decisions_deferred.encode_state(w);
        w.put_len(self.smx_occupancy.len());
        for s in &self.smx_occupancy {
            s.encode_state(w);
        }
    }

    /// Restores [`encode_state`](SimSeries::encode_state) bytes into a
    /// config-constructed series set.
    ///
    /// # Errors
    ///
    /// Rejects an SMX series count that differs from this set's
    /// configuration, and malformed series state.
    pub(crate) fn decode_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), SnapError> {
        self.queue_depth.decode_state(r)?;
        self.hwq_utilization.decode_state(r)?;
        self.n.decode_state(r)?;
        self.n_con.decode_state(r)?;
        self.t_cta.decode_state(r)?;
        self.t_warp.decode_state(r)?;
        self.decisions_allowed.decode_state(r)?;
        self.decisions_denied.decode_state(r)?;
        self.decisions_deferred.decode_state(r)?;
        if r.get_len()? != self.smx_occupancy.len() {
            return Err(SnapError::Invalid("SMX series count differs from config"));
        }
        for s in &mut self.smx_occupancy {
            s.decode_state(r)?;
        }
        Ok(())
    }

    /// Renders the whole set as the artifact's `timeseries` section:
    /// the schema tag, the base window, and every series in a fixed
    /// construction order (deterministic byte-for-byte).
    pub(crate) fn to_json(&self) -> Json {
        let mut series: Vec<Json> = vec![
            self.queue_depth.to_json(),
            self.hwq_utilization.to_json(),
            self.n.to_json(),
            self.n_con.to_json(),
            self.t_cta.to_json(),
            self.t_warp.to_json(),
            self.decisions_allowed.to_json(),
            self.decisions_denied.to_json(),
            self.decisions_deferred.to_json(),
        ];
        series.extend(self.smx_occupancy.iter().map(TimeSeries::to_json));
        Json::obj([
            ("schema", Json::str(TIMESERIES_SCHEMA)),
            (
                "base_window_log2",
                Json::U64(self.base_window_log2 as u64),
            ),
            ("series", Json::Arr(series)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_set_renders_schema_and_named_series() {
        let cfg = GpuConfig::test_small();
        let mut s = SimSeries::new(&cfg);
        s.sample(0, 3.0, 0.5, None, &[]);
        s.decision(10, LaunchDecision::Kernel);
        s.decision(20, LaunchDecision::Inline);
        s.decision(30, LaunchDecision::Redistribute);
        let j = s.to_json();
        assert_eq!(
            j.get("schema").unwrap().as_str(),
            Some(TIMESERIES_SCHEMA)
        );
        let series = j.get("series").unwrap().as_array().unwrap();
        let names: Vec<&str> = series
            .iter()
            .map(|s| s.get("name").unwrap().as_str().unwrap())
            .collect();
        for required in ["queue_depth", "n_con", "t_cta", "decisions_allowed"] {
            assert!(names.contains(&required), "missing series {required}");
        }
        assert_eq!(
            names.iter().filter(|n| n.starts_with("smx")).count(),
            cfg.smx_count as usize
        );
    }

    #[test]
    fn state_round_trips_through_snapshot_bytes() {
        let cfg = GpuConfig::test_small();
        let mut s = SimSeries::new(&cfg);
        s.sample(0, 3.0, 0.5, None, &[]);
        s.sample(2048, 5.0, 0.75, None, &[]);
        s.decision(10, LaunchDecision::Kernel);
        s.decision(2100, LaunchDecision::Inline);

        let mut w = ByteWriter::new();
        s.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut back = SimSeries::new(&cfg);
        let mut r = ByteReader::new(&bytes);
        back.decode_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.to_json().to_string(), s.to_json().to_string());
        // Continuing both keeps them byte-identical.
        back.sample(4096, 9.0, 1.0, None, &[]);
        s.sample(4096, 9.0, 1.0, None, &[]);
        back.decision(4100, LaunchDecision::Redistribute);
        s.decision(4100, LaunchDecision::Redistribute);
        assert_eq!(back.to_json().to_string(), s.to_json().to_string());
    }

    #[test]
    fn monitored_metrics_feed_the_ccqs_series() {
        let cfg = GpuConfig::test_small();
        let mut s = SimSeries::new(&cfg);
        s.sample(
            0,
            0.0,
            0.0,
            Some(MonitoredMetrics {
                in_system: 7,
                t_cta: 500,
                n_con: 3,
                t_warp: 90,
            }),
            &[],
        );
        let j = s.to_json();
        let series = j.get("series").unwrap().as_array().unwrap();
        let mean_of = |name: &str| {
            series
                .iter()
                .find(|s| s.get("name").unwrap().as_str() == Some(name))
                .and_then(|s| s.get("points"))
                .and_then(Json::as_array)
                .and_then(|p| p.first())
                .and_then(|p| p.get("mean"))
                .and_then(Json::as_f64)
        };
        assert_eq!(mean_of("n"), Some(7.0));
        assert_eq!(mean_of("n_con"), Some(3.0));
        assert_eq!(mean_of("t_cta"), Some(500.0));
        assert_eq!(mean_of("t_warp"), Some(90.0));
    }
}
