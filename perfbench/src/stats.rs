//! Order statistics and the metric-naming rules the benchmark reports by.

/// Largest number of end-to-end metrics one benchmark may declare.
pub const MAX_END_TO_END: usize = 16;
/// Largest number of per-layer metrics one benchmark may declare.
pub const MAX_PER_LAYER: usize = 128;
/// Longest metric name accepted.
pub const MAX_NAME_LEN: usize = 64;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks (the "inclusive" method: the minimum is the
/// 0-quantile and the maximum the 1-quantile). `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `values`, `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Each job's median over passes, given each pass's samples in job
/// order (every pass runs the same jobs).
pub fn per_job_medians(passes: &[Vec<f64>]) -> Vec<f64> {
    let jobs = passes.first().map_or(0, Vec::len);
    (0..jobs)
        .map(|j| {
            let samples: Vec<f64> = passes.iter().filter_map(|p| p.get(j).copied()).collect();
            median(&samples).unwrap_or(0.0)
        })
        .collect()
}

/// How many samples lie strictly above the `q`-quantile: a percentile
/// is worth reporting only when at least ten samples lie beyond it.
pub fn samples_beyond(values: &[f64], q: f64) -> usize {
    match quantile(values, q) {
        Some(cut) => values.iter().filter(|&&v| v > cut).count(),
        None => 0,
    }
}

/// Whether `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= MAX_NAME_LEN
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Checks a metric catalogue: every name legal and used once, and no
/// more than `max` entries.
///
/// # Errors
///
/// A message naming the first offending entry.
pub fn check_catalogue(names: &[&str], max: usize) -> Result<(), String> {
    if names.len() > max {
        return Err(format!(
            "{} metrics declared, at most {max} allowed",
            names.len()
        ));
    }
    for (i, name) in names.iter().enumerate() {
        if !valid_metric_name(name) {
            return Err(format!("illegal metric name {name:?}"));
        }
        if names[..i].contains(name) {
            return Err(format!("metric name {name:?} used twice"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quantile(&ten, 0.9).unwrap() - 9.1).abs() < 1e-12);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
        assert_eq!(quantile(&v, 1.5), None);
    }

    #[test]
    fn job_medians_do_not_move_with_the_number_of_passes() {
        let pass = vec![5.0, 1.0, 20.0, 3.0];
        let one = per_job_medians(std::slice::from_ref(&pass));
        assert_eq!(one, pass);
        let three = per_job_medians(&[pass.clone(), pass.clone(), pass.clone()]);
        assert_eq!(three, pass);
        assert_eq!(quantile(&three, 0.5), quantile(&one, 0.5));
        let noisy = per_job_medians(&[vec![1.0, 10.0], vec![3.0, 30.0], vec![2.0, 99.0]]);
        assert_eq!(noisy, [2.0, 30.0]);
        assert!(per_job_medians(&[]).is_empty());
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(samples_beyond(&hundred, 0.9), 10);
        assert_eq!(samples_beyond(&hundred, 0.5), 50);
        let twelve: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(samples_beyond(&twelve, 0.9), 2);
        assert_eq!(samples_beyond(&[], 0.5), 0);
    }

    #[test]
    fn metric_names_follow_the_rule() {
        for ok in [
            "setup_s",
            "gpu.phase.cache_share",
            "latency_p90_ms",
            "9lives",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let too_long = "x".repeat(MAX_NAME_LEN + 1);
        for bad in [
            "",
            "_lead",
            ".dot",
            "sp ace",
            "ünï",
            "a/b",
            too_long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn catalogues_are_bounded_and_unique() {
        assert!(check_catalogue(&["a", "b"], 2).is_ok());
        assert!(check_catalogue(&["a", "b", "c"], 2).is_err());
        assert!(check_catalogue(&["a", "a"], 4).is_err());
        assert!(check_catalogue(&["a b"], 4).is_err());
    }
}
