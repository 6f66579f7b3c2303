//! The benchmark's own statistics: percentiles, the tail-percentile rule,
//! metric-name validation, and the result line.

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `p`th percentile of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples a `p`th percentile needs: at least ten beyond it.
pub fn samples_needed(p: f64) -> usize {
    (10.0 * 100.0 / (100.0 - p)).ceil() as usize
}

/// The `p`th percentile, refused when fewer than ten samples lie beyond
/// it: a tail read off too few samples is noise, not a measurement.
pub fn tail(xs: &[f64], p: f64) -> Result<f64, String> {
    let need = samples_needed(p);
    if xs.len() < need {
        return Err(format!(
            "p{p} needs {need} samples (ten beyond it); the run completed {}",
            xs.len()
        ));
    }
    Ok(percentile(xs, p))
}

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`, at most 64
/// characters, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Renders the result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`. Non-finite values cannot be written as JSON numbers,
/// so they are refused here rather than printed.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(valid_metric_name(m.name), "bad metric name {}", m.name);
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(samples_needed(99.0), 1000);
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(samples_needed(50.0), 20);
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(
            tail(&xs, 99.0).is_err(),
            "p99 from 999 samples must be refused"
        );
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs, 99.0), Ok(990.0));
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
    }

    #[test]
    fn metric_names_are_checked() {
        assert!(valid_metric_name("serve.op.simulate_p50_ms"));
        assert!(valid_metric_name("sim.l1_miss_ratio"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name("_lead"));
        assert!(!valid_metric_name("has space"));
        assert!(!valid_metric_name("slash/ok"));
        assert!(!valid_metric_name(&"x".repeat(65)));
        for m in crate::END_TO_END.iter().chain(crate::PER_LAYER) {
            assert!(valid_metric_name(m.0), "{}", m.0);
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "setup_s",
                value: 0.5,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
