//! The metric catalogue, the result record, and the comparison of two
//! records.

use std::collections::BTreeMap;

use dynapar_gpu::Json;

use crate::host::Host;

/// One metric as declared: name, unit, and which direction is better.
pub type Decl = (&'static str, &'static str, &'static str);

/// End-to-end metrics, reported by an untraced run.
///
/// `failed_ratio` is reported beside them (and as `failed/attempted`
/// in the result line) but is not a bounded metric: it is 0 on correct
/// code, and a bound is a share of the parent's value.
pub const END_TO_END: [Decl; 6] = [
    ("setup_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("events_per_s", "ev/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics, reported by a traced run. Times are self times
/// per pass (one pass runs every job of the workload once).
pub const PER_LAYER: [Decl; 35] = [
    ("workloads.synth_ms", "ms", "lower"),
    ("gpu.sim_ms", "ms", "lower"),
    ("gpu.events_per_s", "ev/s", "higher"),
    ("gpu.events", "count", "lower"),
    ("gpu.total_cycles", "cycles", "lower"),
    ("gpu.l1_accesses", "count", "lower"),
    ("gpu.l2_accesses", "count", "lower"),
    ("gpu.dram_accesses", "count", "lower"),
    ("gpu.l2_hit_rate", "ratio", "higher"),
    ("gpu.dram_per_event", "ratio", "lower"),
    ("core.launch_requests", "count", "lower"),
    ("core.child_kernels_launched", "count", "lower"),
    ("artifact.encode_ms", "ms", "lower"),
    ("artifact.bytes", "bytes", "lower"),
    ("json.decode_ms", "ms", "lower"),
    ("json.decode_mb_per_s", "MB/s", "higher"),
    ("store.write_ms", "ms", "lower"),
    ("store.preload_ms", "ms", "lower"),
    ("store.entries", "count", "lower"),
    ("store.bytes", "bytes", "lower"),
    ("server.submit_ack_ms", "ms", "lower"),
    ("server.result_wire_ms", "ms", "lower"),
    ("server.queue_wait_ms", "ms", "lower"),
    ("server.execute_ms", "ms", "lower"),
    ("server.memo_lookup_ms", "ms", "lower"),
    ("server.memo_hit_ratio", "ratio", "higher"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("gpu.phase.cache_share", "ratio", "lower"),
    ("gpu.phase.dram_share", "ratio", "lower"),
    ("gpu.phase.coalesce_share", "ratio", "lower"),
    ("gpu.phase.wakeup_share", "ratio", "lower"),
    ("gpu.phase.round_share", "ratio", "lower"),
    ("gpu.phase.sched_share", "ratio", "lower"),
    ("gpu.phase.overhead", "ratio", "lower"),
];

/// A measured value and the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The value, in the declared unit.
    pub value: f64,
    /// Samples the value summarises (1 for a count or a single time).
    pub samples: usize,
}

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, Value>;

/// Looks up a declaration by name in either catalogue.
pub fn decl(name: &str) -> Option<Decl> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.0 == name)
        .copied()
}

/// Checks that `values` holds exactly the metrics of `catalogue`, each
/// finite.
///
/// # Errors
///
/// The first missing, extra or non-finite metric.
pub fn check_complete(values: &Values, catalogue: &[Decl]) -> Result<(), String> {
    for (name, _, _) in catalogue {
        match values.get(name) {
            None => return Err(format!("metric {name} was not measured")),
            Some(v) if !v.value.is_finite() => return Err(format!("metric {name} is {}", v.value)),
            Some(_) => {}
        }
    }
    if let Some(extra) = values
        .keys()
        .find(|k| !catalogue.iter().any(|d| d.0 == **k))
    {
        return Err(format!("metric {extra} is not in the catalogue"));
    }
    Ok(())
}

/// The contract's last line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(attempted: u64, failed: u64, values: &Values, catalogue: &[Decl]) -> Json {
    let metrics = catalogue.iter().filter_map(|(name, unit, _)| {
        values.get(name).map(|v| {
            (
                name.to_string(),
                Json::obj([("value", Json::F64(v.value)), ("unit", Json::str(*unit))]),
            )
        })
    });
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::U64(attempted)),
        ("failed", Json::U64(failed)),
        ("metrics", Json::Obj(metrics.collect())),
    ])
}

/// The human-readable table: name, value, unit, samples.
pub fn table(values: &Values) -> String {
    let mut out = format!(
        "{:<30} {:>16} {:>8} {:>8}\n",
        "metric", "value", "unit", "samples"
    );
    for (name, v) in values {
        let unit = decl(name).map_or("", |d| d.1);
        out.push_str(&format!(
            "{name:<30} {:>16.6} {unit:>8} {:>8}\n",
            v.value, v.samples
        ));
    }
    out
}

/// Compares two result records (as written by the benchmark): refuses
/// records from different hosts or workloads, otherwise lists each
/// shared metric's ratio `new / base`.
///
/// # Errors
///
/// Malformed records, a host mismatch, or different workloads.
pub fn compare(base: &Json, new: &Json) -> Result<String, String> {
    let host = |doc: &Json, which: &str| {
        doc.get("host")
            .and_then(Host::from_json)
            .ok_or_else(|| format!("{which} record has no host"))
    };
    let (hb, hn) = (host(base, "base")?, host(new, "new")?);
    hb.comparable_with(&hn)
        .map_err(|e| format!("refusing a baseline from another host: {e}"))?;
    let workload = |doc: &Json| {
        doc.get("workload")
            .and_then(Json::as_str)
            .map(str::to_string)
    };
    if workload(base) != workload(new) {
        return Err(format!(
            "records are of different workloads: {:?} vs {:?}",
            workload(base),
            workload(new)
        ));
    }
    let metrics = |doc: &Json| -> BTreeMap<String, f64> {
        doc.get("metrics")
            .and_then(Json::as_object)
            .unwrap_or(&[])
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect()
    };
    let (mb, mn) = (metrics(base), metrics(new));
    let mut out = format!(
        "# base {} ({})  new {} ({})\n{:<30} {:>16} {:>16} {:>8}\n",
        hb.commit,
        hb.source_digest,
        hn.commit,
        hn.source_digest,
        "metric",
        "base",
        "new",
        "new/base"
    );
    for (name, b) in &mb {
        if let Some(n) = mn.get(name) {
            let ratio = if *b == 0.0 { f64::NAN } else { n / b };
            out.push_str(&format!("{name:<30} {b:>16.6} {n:>16.6} {ratio:>8.3}\n"));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{check_catalogue, MAX_END_TO_END, MAX_PER_LAYER};

    #[test]
    fn catalogues_obey_the_naming_rule_and_limits() {
        let e2e: Vec<&str> = END_TO_END.iter().map(|d| d.0).collect();
        let layer: Vec<&str> = PER_LAYER.iter().map(|d| d.0).collect();
        check_catalogue(&e2e, MAX_END_TO_END).unwrap();
        check_catalogue(&layer, MAX_PER_LAYER).unwrap();
        let both: Vec<&str> = e2e.iter().chain(layer.iter()).copied().collect();
        check_catalogue(&both, MAX_END_TO_END + MAX_PER_LAYER).unwrap();
        assert!(e2e.contains(&"setup_s"));
        for (_, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(matches!(*better, "lower" | "higher"));
            assert!(!unit.is_empty() && unit.len() <= 16);
        }
    }

    #[test]
    fn completeness_catches_missing_extra_and_nan() {
        let one = |v: f64| Value {
            value: v,
            samples: 1,
        };
        let mut values: Values = END_TO_END.iter().map(|d| (d.0, one(1.0))).collect();
        check_complete(&values, &END_TO_END).unwrap();
        values.insert("gpu.sim_ms", one(1.0));
        assert!(check_complete(&values, &END_TO_END)
            .unwrap_err()
            .contains("gpu.sim_ms"));
        values.remove("gpu.sim_ms");
        values.insert("setup_s", one(f64::NAN));
        assert!(check_complete(&values, &END_TO_END).is_err());
        values.remove("setup_s");
        assert!(check_complete(&values, &END_TO_END)
            .unwrap_err()
            .contains("setup_s"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let values: Values = [(
            "setup_s",
            Value {
                value: 0.5,
                samples: 3,
            },
        )]
        .into_iter()
        .collect();
        let line = result_line(10, 0, &values, &END_TO_END);
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line.get("metrics").unwrap().to_string(),
            r#"{"setup_s":{"value":0.5,"unit":"s"}}"#
        );
        assert_eq!(
            result_line(10, 1, &values, &END_TO_END).get("correct"),
            Some(&Json::Bool(false))
        );
    }

    fn record(nproc: u64, workload: &str, setup: f64) -> Json {
        Json::obj([
            (
                "host",
                Json::obj([
                    ("nproc", Json::U64(nproc)),
                    ("cpu", Json::str("cpu")),
                    ("rustc", Json::str("rustc")),
                    ("profile", Json::str("p")),
                    ("profile_matches_root", Json::Bool(true)),
                    ("commit", Json::str("c")),
                    ("source_digest", Json::str("d")),
                ]),
            ),
            ("workload", Json::str(workload)),
            (
                "metrics",
                Json::obj([("setup_s", Json::obj([("value", Json::F64(setup))]))]),
            ),
        ])
    }

    #[test]
    fn compare_refuses_another_host_or_workload() {
        let out = compare(&record(2, "run-paper", 2.0), &record(2, "run-paper", 1.0)).unwrap();
        assert!(out.contains("setup_s") && out.contains("0.500"), "{out}");
        let err = compare(&record(2, "run-paper", 1.0), &record(8, "run-paper", 1.0)).unwrap_err();
        assert!(err.contains("another host"), "{err}");
        assert!(compare(&record(2, "run-paper", 1.0), &record(2, "daemon-cold", 1.0)).is_err());
    }
}
