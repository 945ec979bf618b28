//! The run-report metrics registry: named counters, gauges and per-depth
//! series, kept in sorted maps so exports are deterministic.
//!
//! Names are dot-separated and prefixed by subsystem (`exec.`, `read.`,
//! `plan.`), matching the span names of the phase tree.

use std::collections::BTreeMap;

/// A bag of named measurements for one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    series: BTreeMap<String, Vec<u64>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add to a counter (creating it at zero).
    pub fn inc(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Set a counter outright.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Read a counter; absent counters read zero.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set a gauge (a point-in-time float, e.g. a rate or ratio).
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Read a gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Set an indexed series (e.g. a per-step counter vector).
    pub fn set_series(&mut self, name: &str, values: Vec<u64>) {
        self.series.insert(name.to_string(), values);
    }

    /// Read a series; absent series read empty.
    pub fn series(&self, name: &str) -> &[u64] {
        self.series.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Merge another registry in: counters add, series add element-wise
    /// (growing to the longer length), gauges take the other side's value.
    /// This is the reduction used when combining per-worker registries.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, &value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, &value) in &other.gauges {
            self.gauges.insert(name.clone(), value);
        }
        for (name, values) in &other.series {
            let mine = self.series.entry(name.clone()).or_default();
            if mine.len() < values.len() {
                mine.resize(values.len(), 0);
            }
            for (m, &v) in mine.iter_mut().zip(values) {
                *m += v;
            }
        }
    }

    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    pub fn all_series(&self) -> impl Iterator<Item = (&str, &[u64])> {
        self.series.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.series.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.counter("exec.nodes"), 0);
        m.inc("exec.nodes", 2);
        m.inc("exec.nodes", 3);
        assert_eq!(m.counter("exec.nodes"), 5);
        m.set_counter("exec.nodes", 1);
        assert_eq!(m.counter("exec.nodes"), 1);
    }

    #[test]
    fn merge_adds_counters_and_series() {
        let mut a = MetricsRegistry::new();
        a.inc("c", 1);
        a.set_series("d", vec![1, 2]);
        a.set_gauge("g", 0.25);
        let mut b = MetricsRegistry::new();
        b.inc("c", 10);
        b.inc("only_b", 7);
        b.set_series("d", vec![10, 20, 30]);
        b.set_gauge("g", 0.75);
        a.merge(&b);
        assert_eq!(a.counter("c"), 11);
        assert_eq!(a.counter("only_b"), 7);
        assert_eq!(a.series("d"), &[11, 22, 30]);
        assert_eq!(a.gauge("g"), Some(0.75));
    }

    #[test]
    fn export_iteration_is_sorted() {
        let mut m = MetricsRegistry::new();
        m.inc("zeta", 1);
        m.inc("alpha", 1);
        let names: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
