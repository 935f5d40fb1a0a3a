//! Order statistics and the result line.

use std::fmt::Write as _;

/// The `q`-quantile of `values` (nearest rank), sorting them in place.
/// Panics on an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    values.sort_unstable_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// The median of `values` (the mean of the middle two for an even
/// count), sorting them in place. Panics on an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_unstable_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The mean of `values` (0 for none).
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values.into_iter().fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as registered in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, as registered in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The final stdout line: `{"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}`. Fails on a non-finite value
/// (JSON has no spelling for it).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(quantile(&mut v, 0.5), 3.0);
        assert_eq!(quantile(&mut v, 0.95), 5.0);
        assert_eq!(median(&mut [1.0, 2.0]), 1.5);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let line = result_line(true, 3, 0, &[Metric { name: "a_ms", value: 1.5, unit: "ms" }])
            .expect("finite");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        assert!(
            result_line(true, 1, 0, &[Metric { name: "x", value: f64::NAN, unit: "s" }]).is_err()
        );
    }
}
