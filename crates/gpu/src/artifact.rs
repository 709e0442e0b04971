//! Run outcomes and the JSON run artifact.
//!
//! [`Simulation::run`](crate::Simulation::run) returns a [`RunOutcome`]
//! bundling the [`SimReport`], the optional [`Trace`], the controller
//! (for policy-state inspection), and — when metrics are enabled — a
//! [`RunArtifact`]: a self-describing JSON record of the whole run
//! (config echo, report, component metrics, CCQS estimate-vs-actual
//! samples, and the decision trace). Artifacts deliberately exclude
//! wall-clock fields so a fixed-seed run emits byte-identical JSON
//! regardless of host speed or worker count.

use std::fmt;

use dynapar_engine::json::{Json, ParseError};
use dynapar_engine::metrics::{MetricsLevel, MetricsRegistry};
use dynapar_engine::profile::ProfileReport;

use crate::config::GpuConfig;
use crate::controller::LaunchController;
use crate::stats::SimReport;
use crate::trace::Trace;

/// The schema tag stamped into every artifact (`"schema"` key).
pub const ARTIFACT_SCHEMA: &str = "dynapar.run_artifact/v1";

/// Everything a finished simulation hands back.
pub struct RunOutcome {
    /// Aggregate statistics of the run.
    pub report: SimReport,
    /// The event trace, if tracing was enabled on the builder.
    pub trace: Option<Trace>,
    /// The launch controller, returned so callers can downcast (via
    /// [`LaunchController::as_any`]) and read policy-side state.
    pub controller: Box<dyn LaunchController>,
    /// The JSON run artifact, unless metrics were
    /// [`Off`](MetricsLevel::Off).
    pub artifact: Option<RunArtifact>,
    /// Host-side phase profile, when profiling was requested via
    /// [`SimulationBuilder::profile`](crate::SimulationBuilder::profile)
    /// *and* the `profile` cargo feature is compiled in. Deliberately
    /// not part of [`RunArtifact`]: artifacts stay byte-identical
    /// whether or not the run was profiled.
    pub profile: Option<ProfileReport>,
    /// The captured snapshot container
    /// ([`SNAPSHOT_SCHEMA`](crate::SNAPSHOT_SCHEMA)), when the builder
    /// armed one via
    /// [`SimulationBuilder::snapshot_at`](crate::SimulationBuilder::snapshot_at)
    /// and the run reached that cycle. Feed the bytes back through
    /// [`SimulationBuilder::build_resumed`](crate::SimulationBuilder::build_resumed)
    /// or write them to disk as-is.
    pub snapshot: Option<Vec<u8>>,
}

impl fmt::Debug for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunOutcome")
            .field("report", &self.report)
            .field("trace", &self.trace.is_some())
            .field("controller", &self.controller.name())
            .field("artifact", &self.artifact.is_some())
            .field("profile", &self.profile.is_some())
            .field("snapshot", &self.snapshot.as_ref().map(Vec::len))
            .finish()
    }
}

/// One CCQS estimate-vs-actual pair: the policy's Eq. 1 completion-time
/// prediction for a child kernel against the kernel's simulated
/// completion latency (creation to own-work-done).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CcqsSample {
    /// The child kernel's id.
    pub kernel: u32,
    /// Predicted completion time (cycles from the decision).
    pub estimate: u64,
    /// Observed creation-to-completion latency, if the kernel finished.
    pub actual: Option<u64>,
}

impl CcqsSample {
    fn to_json(self) -> Json {
        Json::obj([
            ("kernel", Json::U64(self.kernel as u64)),
            ("estimate", Json::U64(self.estimate)),
            (
                "actual",
                self.actual.map_or(Json::Null, Json::U64),
            ),
        ])
    }
}

/// A parse or schema-validation failure in [`RunArtifact::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// The text is not well-formed JSON.
    Json(ParseError),
    /// The JSON is well-formed but not a valid run artifact.
    Schema(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Json(e) => write!(f, "invalid JSON: {e}"),
            ArtifactError::Schema(msg) => write!(f, "invalid artifact: {msg}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<ParseError> for ArtifactError {
    fn from(e: ParseError) -> Self {
        ArtifactError::Json(e)
    }
}

/// A validated JSON run artifact.
///
/// Construction happens inside [`Simulation::run`](crate::Simulation::run)
/// (when the builder enabled metrics) or by [`parse`](RunArtifact::parse)
/// from previously emitted text; either way the tree is guaranteed to
/// carry the `schema` tag and the required sections.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArtifact {
    json: Json,
}

impl RunArtifact {
    pub(crate) fn build(
        level: MetricsLevel,
        cfg: &GpuConfig,
        report: &SimReport,
        registry: &MetricsRegistry,
        samples: &[CcqsSample],
        timeseries: Option<Json>,
        trace: Option<&Trace>,
    ) -> Self {
        let mut members: Vec<(&str, Json)> = vec![
            ("schema", Json::str(ARTIFACT_SCHEMA)),
            ("metrics_level", Json::str(level.as_str())),
            ("config", cfg.to_json()),
            ("report", report.to_json(level)),
            ("metrics", registry.to_json()),
            (
                "ccqs_samples",
                Json::Arr(samples.iter().map(|s| s.to_json()).collect()),
            ),
        ];
        // Only the timeseries level carries the section at all; lower
        // levels keep their key sets (and thus their bytes) unchanged.
        if let Some(ts) = timeseries {
            members.push(("timeseries", ts));
        }
        members.push(("trace", trace.map_or(Json::Null, Trace::to_json)));
        RunArtifact {
            json: Json::obj(members),
        }
    }

    /// The underlying JSON tree.
    pub fn json(&self) -> &Json {
        &self.json
    }

    /// The artifact's recording level.
    pub fn level(&self) -> MetricsLevel {
        self.json
            .get("metrics_level")
            .and_then(Json::as_str)
            .and_then(MetricsLevel::parse)
            .unwrap_or(MetricsLevel::Summary)
    }

    /// The windowed-telemetry section (`dynapar-timeseries/1`), present
    /// only when the run recorded at
    /// [`Timeseries`](MetricsLevel::Timeseries).
    pub fn timeseries(&self) -> Option<&Json> {
        self.json.get("timeseries")
    }

    /// The CCQS estimate-vs-actual samples, decoded from the tree.
    pub fn ccqs_samples(&self) -> Vec<CcqsSample> {
        let Some(arr) = self.json.get("ccqs_samples").and_then(Json::as_array) else {
            return Vec::new();
        };
        arr.iter()
            .filter_map(|s| {
                Some(CcqsSample {
                    kernel: s.get("kernel")?.as_u64()? as u32,
                    estimate: s.get("estimate")?.as_u64()?,
                    actual: s.get("actual").and_then(Json::as_u64),
                })
            })
            .collect()
    }

    /// Parses and validates previously emitted artifact text.
    ///
    /// Validation checks the `schema` tag and the presence and shape of
    /// every required section, so downstream tooling can trust a parsed
    /// artifact without re-probing each key.
    pub fn parse(text: &str) -> Result<RunArtifact, ArtifactError> {
        let json = Json::parse(text)?;
        let schema = json
            .get("schema")
            .and_then(Json::as_str)
            .ok_or_else(|| ArtifactError::Schema("missing `schema` tag".into()))?;
        if schema != ARTIFACT_SCHEMA {
            return Err(ArtifactError::Schema(format!(
                "unsupported schema `{schema}` (expected `{ARTIFACT_SCHEMA}`)"
            )));
        }
        let level = json
            .get("metrics_level")
            .and_then(Json::as_str)
            .ok_or_else(|| ArtifactError::Schema("missing `metrics_level`".into()))?;
        if MetricsLevel::parse(level).is_none() {
            return Err(ArtifactError::Schema(format!(
                "unknown metrics_level `{level}`"
            )));
        }
        for key in ["config", "report", "metrics"] {
            if json.get(key).and_then(Json::as_object).is_none() {
                return Err(ArtifactError::Schema(format!(
                    "missing or non-object `{key}` section"
                )));
            }
        }
        if json.get("ccqs_samples").and_then(Json::as_array).is_none() {
            return Err(ArtifactError::Schema(
                "missing or non-array `ccqs_samples`".into(),
            ));
        }
        let report = json.get("report").expect("checked above");
        for key in ["controller", "total_cycles", "kernels"] {
            if report.get(key).is_none() {
                return Err(ArtifactError::Schema(format!(
                    "report section missing `{key}`"
                )));
            }
        }
        if let Some(ts) = json.get("timeseries") {
            let schema = ts.get("schema").and_then(Json::as_str);
            if schema != Some(crate::telemetry::TIMESERIES_SCHEMA) {
                return Err(ArtifactError::Schema(format!(
                    "timeseries section has schema {schema:?} (expected `{}`)",
                    crate::telemetry::TIMESERIES_SCHEMA
                )));
            }
            if ts.get("series").and_then(Json::as_array).is_none() {
                return Err(ArtifactError::Schema(
                    "timeseries section missing `series` array".into(),
                ));
            }
        }
        Ok(RunArtifact { json })
    }
}

impl fmt::Display for RunArtifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_malformed_and_foreign_json() {
        assert!(matches!(
            RunArtifact::parse("{nope"),
            Err(ArtifactError::Json(_))
        ));
        assert!(matches!(
            RunArtifact::parse("{\"schema\":\"other/v9\"}"),
            Err(ArtifactError::Schema(_))
        ));
        assert!(matches!(
            RunArtifact::parse("{\"x\":1}"),
            Err(ArtifactError::Schema(_))
        ));
    }

    #[test]
    fn errors_display_their_cause() {
        let e = RunArtifact::parse("{\"schema\":\"other/v9\"}").unwrap_err();
        assert!(e.to_string().contains("other/v9"));
        let e = RunArtifact::parse("[").unwrap_err();
        assert!(e.to_string().contains("JSON"));
    }
}
