//! Order statistics and the result line.

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (the median for `q = 0.5`). `values` must be non-empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values` (non-empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The p90 of `values`, or `None` when fewer than ten samples lie above
/// it (a tail percentile over fewer samples is mostly noise).
pub fn p90(values: &[f64]) -> Option<f64> {
    let p = quantile(values, 0.9);
    let above = values.iter().filter(|&&v| v > p).count();
    (above >= 10).then_some(p)
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Renders the final result line:
/// `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite float in JSON syntax with every digit Rust's shortest
/// round-trip rendering gives (`1e-7` style exponents are valid JSON).
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric values are finite");
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn p90_needs_ten_samples_above() {
        let few: Vec<f64> = (0..50).map(f64::from).collect();
        assert!(p90(&few).is_none());
        let many: Vec<f64> = (0..200).map(f64::from).collect();
        assert!(p90(&many).is_some());
    }

    #[test]
    fn result_line_is_one_object() {
        let line = result_json(true, 3, 0, &[Metric::new("x", 1.5, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"x\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
