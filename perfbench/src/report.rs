//! Metric values, order statistics and the printed result.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Shown beside the value in the text lines (e.g. which percentile a
    /// tail is and over how many samples); never part of the JSON value.
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit, note: String::new() }
    }

    pub fn with_note(mut self, note: String) -> Metric {
        self.note = note;
        self
    }
}

/// Nearest-rank percentile of ascending `sorted` samples (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// The highest percentile of a fixed ladder that has at least ten samples
/// above it, as `(percentile, value, samples above)`. With fewer than 20
/// samples no rung qualifies and the median is returned with its count.
pub fn tail(sorted: &[f64]) -> (f64, f64, usize) {
    const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];
    let n = sorted.len();
    let above = |p: f64| n - ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let p = LADDER.into_iter().find(|&p| n > 0 && above(p) >= 10).unwrap_or(50.0);
    (p, percentile(sorted, p), if n == 0 { 0 } else { above(p) })
}

/// Geometric mean of positive ratios; 0 when there are none.
pub fn geometric_mean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 0.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// The outcome of one benchmark invocation.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Printed as `name = value unit` lines, and in the final JSON line.
    pub metrics: Vec<Metric>,
    /// Printed as text lines only: context not compared from run to run.
    pub info: Vec<Metric>,
}

impl Outcome {
    /// The human-readable lines, one metric per line with its unit.
    pub fn text(&self) -> String {
        let mut s = String::new();
        for m in self.metrics.iter().chain(&self.info) {
            let _ = write!(s, "{} = {} {}", m.name, fmt_value(m.value), m.unit);
            if !m.note.is_empty() {
                let _ = write!(s, "  ({})", m.note);
            }
            s.push('\n');
        }
        s
    }

    /// The single JSON result line.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_value(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Full precision for timings (never rounded to a fixed resolution) and a
/// plain integer for whole counts; non-finite values become 0 so the JSON
/// stays valid.
fn fmt_value(v: f64) -> String {
    if !v.is_finite() {
        "0".to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_above() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let (p, value, above) = tail(&v);
        assert_eq!(p, 95.0);
        assert_eq!(value, 190.0);
        assert_eq!(above, 10);
        let (p, _, above) = tail(&v[..15]);
        assert_eq!((p, above), (50.0, 7));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn json_line_shape() {
        let o = Outcome {
            attempted: 3,
            failed: 1,
            metrics: vec![Metric::new("setup_s", 0.25, "s"), Metric::new("n", 4.0, "count")],
            info: vec![],
        };
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"setup_s\": \
             {\"value\": 0.25, \"unit\": \"s\"}, \"n\": {\"value\": 4, \"unit\": \"count\"}}}"
        );
    }
}
