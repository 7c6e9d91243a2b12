//! Metric names, sample statistics and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Whether a metric is printed by the untraced (`--trace 0`) or the traced
/// (`--trace 1`) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    PerLayer,
}

/// Every metric the benchmark prints: name, unit, kind. `BENCHMARK.json`
/// declares the same names and units (the self-check test compares them).
pub const METRICS: &[(&str, &str, Kind)] = &[
    ("setup_s", "s", Kind::EndToEnd),
    ("throughput_qps", "1/s", Kind::EndToEnd),
    ("latency_p50_ms", "ms", Kind::EndToEnd),
    ("peak_rss_mb", "MB", Kind::EndToEnd),
    // Printed with the per-layer metrics: on a 2-vCPU host the read tail of
    // `polls-churn` spread by 0.3–0.6 between runs, more than any bound.
    ("latency_tail_ms", "ms", Kind::PerLayer),
    ("failed_frac", "ratio", Kind::PerLayer),
    ("budget_miss_frac", "ratio", Kind::PerLayer),
    ("update_p50_ms", "ms", Kind::PerLayer),
    ("update_tail_ms", "ms", Kind::PerLayer),
    ("checkpoint_p50_ms", "ms", Kind::PerLayer),
    ("wire.self_ms_p50", "ms", Kind::PerLayer),
    ("wire.self_ms_tail", "ms", Kind::PerLayer),
    ("service.self_ms_p50", "ms", Kind::PerLayer),
    ("service.queue_wait_ms_p50", "ms", Kind::PerLayer),
    ("service.window_ms_p50", "ms", Kind::PerLayer),
    ("service.wave_size_mean", "count", Kind::PerLayer),
    ("service.overload_retries", "count", Kind::PerLayer),
    ("translate.ground_ms_p50", "ms", Kind::PerLayer),
    ("translate.sessions_per_query", "count", Kind::PerLayer),
    ("engine.plan_ms_p50", "ms", Kind::PerLayer),
    ("engine.dedup_ratio", "ratio", Kind::PerLayer),
    ("engine.eval_warm_ms_p50", "ms", Kind::PerLayer),
    ("engine.self_ms_p50", "ms", Kind::PerLayer),
    ("engine.pool_utilisation", "ratio", Kind::PerLayer),
    ("engine.speedup_2v1", "ratio", Kind::PerLayer),
    ("cache.hit_rate", "ratio", Kind::PerLayer),
    ("cache.invalidated", "count", Kind::PerLayer),
    ("cache.invalidated_per_update", "count", Kind::PerLayer),
    ("cache.models_prepared", "count", Kind::PerLayer),
    ("cache.pools_built", "count", Kind::PerLayer),
    ("cache.pool_hits", "count", Kind::PerLayer),
    ("rim.to_rim_us_p50", "us", Kind::PerLayer),
    ("solvers.exact.units", "count", Kind::PerLayer),
    ("solvers.exact.ms_sum", "ms", Kind::PerLayer),
    ("solvers.exact.ms_p50", "ms", Kind::PerLayer),
    ("solvers.approx.units", "count", Kind::PerLayer),
    ("solvers.approx.ms_sum", "ms", Kind::PerLayer),
    ("solvers.approx.ms_p50", "ms", Kind::PerLayer),
    ("solvers.approx.zero_density", "count", Kind::PerLayer),
    ("database.apply_ms_p50", "ms", Kind::PerLayer),
    ("persist.save_ms_p50", "ms", Kind::PerLayer),
    ("persist.records_appended", "count", Kind::PerLayer),
    ("persist.live_bytes", "bytes", Kind::PerLayer),
    ("persist.dead_bytes", "bytes", Kind::PerLayer),
    ("persist.compactions", "count", Kind::PerLayer),
    ("obs.trace_overhead", "ratio", Kind::PerLayer),
    ("obs.trace_coverage", "ratio", Kind::PerLayer),
    ("bench.generator_lag_ms_max", "ms", Kind::PerLayer),
];

/// The unit of a declared metric. Panics on an undeclared name: a typo in
/// a workload is a bug in the benchmark.
pub fn unit_of(name: &str) -> &'static str {
    METRICS
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, _)| *unit)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// A set of timings (or other samples) with the order statistics the
/// benchmark reports.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum() / self.values.len() as f64
        }
    }

    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// The median (mean of the two middle values for an even count; 0 when
    /// empty).
    pub fn median(&self) -> f64 {
        let sorted = self.sorted();
        let n = sorted.len();
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => sorted[n / 2],
            _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
        }
    }

    /// The tail: the highest order statistic with at least ten samples
    /// above it, with the percentile it sits at. Below 40 samples that
    /// statistic falls under the 75th percentile and says nothing about the
    /// tail, so the maximum is reported, as percentile 100.
    pub fn tail(&self) -> (f64, f64) {
        let sorted = self.sorted();
        let n = sorted.len();
        if n == 0 {
            return (0.0, 100.0);
        }
        if n < 40 {
            return (sorted[n - 1], 100.0);
        }
        let rank = n - 10;
        (sorted[rank - 1], 100.0 * rank as f64 / n as f64)
    }
}

/// What one run produced: the operation counts, the correctness verdict,
/// every metric it measured, and free-form details (tail percentiles,
/// sample counts, the run's stamp) printed on the line before the result.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// First correctness failure, if any.
    pub mismatch: Option<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub details: BTreeMap<String, String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        self.metrics.insert(name, value);
    }

    /// Records a timing's median and tail under `<prefix>_p50_ms` /
    /// `<prefix>_tail_ms`-style names, with the tail percentile and the
    /// sample count as details.
    pub fn set_timing(&mut self, p50: &'static str, tail: &'static str, samples: &Samples) {
        self.set(p50, samples.median());
        let (value, percentile) = samples.tail();
        self.set(tail, value);
        self.detail(&format!("{tail}.percentile"), format!("{percentile:.2}"));
        self.detail(&format!("{tail}.samples"), samples.len().to_string());
    }

    /// Records the end-to-end figures of an untraced timed phase: `answered`
    /// operations over `wall`, the per-operation `latency`, and the peak
    /// resident set so far, read here so that the checks after the phase
    /// do not count.
    pub fn set_end_to_end(&mut self, answered: usize, wall: Duration, latency: &Samples) {
        self.set("throughput_qps", answered as f64 / wall.as_secs_f64());
        self.set_timing("latency_p50_ms", "latency_tail_ms", latency);
        self.set("peak_rss_mb", peak_rss_mb());
    }

    pub fn detail(&mut self, key: &str, value: impl ToString) {
        self.details.insert(key.to_string(), value.to_string());
    }

    /// Counts one failed operation, keeping the first reason.
    pub fn fail(&mut self, reason: impl Into<String>) {
        self.failed += 1;
        if self.mismatch.is_none() {
            self.mismatch = Some(reason.into());
        }
    }

    /// Records a correctness failure that is not an operation of its own.
    pub fn incorrect(&mut self, reason: impl Into<String>) {
        if self.mismatch.is_none() {
            self.mismatch = Some(reason.into());
        }
    }

    /// The result line: every metric of `kind` by name with its unit.
    /// Per-layer metrics of layers a workload does not load read 0.
    pub fn result_line(&self, kind: Kind) -> String {
        let mut metrics = String::new();
        for (name, unit, metric_kind) in METRICS {
            if *metric_kind != kind {
                continue;
            }
            let value = match (self.metrics.get(name), kind) {
                (Some(v), _) => *v,
                (None, Kind::PerLayer) => 0.0,
                (None, Kind::EndToEnd) => panic!("end-to-end metric {name} was not measured"),
            };
            let value = if value.is_finite() { value } else { 0.0 };
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.mismatch.is_none(),
            self.attempted.max(1),
            self.failed
        )
    }

    /// The details line printed before the result.
    pub fn details_line(&self) -> String {
        let mut out = String::from("{\"details\": {");
        for (i, (key, value)) in self.details.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": \"{}\"", escape(key), escape(value));
        }
        if let Some(reason) = &self.mismatch {
            let _ = write!(out, "}}, \"mismatch\": \"{}\"}}", escape(reason));
        } else {
            out.push_str("}}");
        }
        out
    }
}

/// A float as JSON: every digit of the shortest round-trip form.
fn json_number(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{value:.1}")
    } else {
        format!("{value}")
    }
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', " ")
}

/// The process's peak resident set (VmHWM) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_above() {
        let mut samples = Samples::new();
        for v in 1..=100 {
            samples.push(f64::from(v));
        }
        assert_eq!(samples.tail(), (90.0, 90.0));
        let mut many = Samples::new();
        for v in 1..=2000 {
            many.push(f64::from(v));
        }
        assert_eq!(many.tail(), (1990.0, 99.5));
        assert_eq!(samples.median(), 50.5);
        let mut few = Samples::new();
        few.push(3.0);
        few.push(1.0);
        assert_eq!(few.tail(), (3.0, 100.0));
    }
}
