//! Reading the program's own instruments from their text exposition
//! (`Registry::render`, `Service::metrics_text`).

use crate::report::Report;
use ppd_core::CacheStats;
use ppd_obs::parse_exposition;
use ppd_service::Service;
use std::collections::BTreeMap;

/// One exposition sample: family-suffixed name, labels, value.
#[derive(Debug, Clone)]
pub struct Sample {
    pub name: String,
    pub labels: BTreeMap<String, String>,
    pub value: f64,
}

/// Parses exposition text. Malformed text is a program fault: the
/// exposition format is the program's public contract.
pub fn parse(text: &str) -> Vec<Sample> {
    parse_exposition(text)
        .expect("the program's metrics exposition parses")
        .into_iter()
        .map(|(series, value)| {
            let (name, labels) = match series.split_once('{') {
                None => (series.as_str(), ""),
                Some((name, rest)) => (name, rest.trim_end_matches('}')),
            };
            let labels = labels
                .split(',')
                .filter_map(|pair| pair.split_once('='))
                .map(|(k, v)| (k.to_string(), v.trim_matches('"').to_string()))
                .collect();
            Sample {
                name: name.to_string(),
                labels,
                value,
            }
        })
        .collect()
}

fn matches(sample: &Sample, name: &str, filter: &[(&str, &[&str])]) -> bool {
    sample.name == name
        && filter.iter().all(|(key, allowed)| {
            sample
                .labels
                .get(*key)
                .is_some_and(|v| allowed.contains(&v.as_str()))
        })
}

/// The sum of every series of `name` whose labels pass `filter` (each
/// listed key must take one of its allowed values).
pub fn total(samples: &[Sample], name: &str, filter: &[(&str, &[&str])]) -> f64 {
    samples
        .iter()
        .filter(|s| matches(s, name, filter))
        .map(|s| s.value)
        .sum()
}

/// The `q`-quantile (nearest rank, reported as the containing bucket's
/// upper bound) of histogram `family` merged over every series passing
/// `filter`. 0 when the histogram is empty.
pub fn quantile(samples: &[Sample], family: &str, filter: &[(&str, &[&str])], q: f64) -> f64 {
    let bucket = format!("{family}_bucket");
    // Per series (labels without `le`), its `(upper bound, cumulative
    // count)` buckets.
    type Labels = Vec<(String, String)>;
    let mut series: BTreeMap<Labels, Vec<(f64, f64)>> = BTreeMap::new();
    for sample in samples.iter().filter(|s| matches(s, &bucket, filter)) {
        let Some(le) = sample.labels.get("le") else {
            continue;
        };
        let upper = if le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse::<f64>().expect("bucket bounds are numbers")
        };
        let key: Vec<(String, String)> = sample
            .labels
            .iter()
            .filter(|(k, _)| k.as_str() != "le")
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        series.entry(key).or_default().push((upper, sample.value));
    }
    // Merge the per-bucket counts of every series.
    let mut counts: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    for buckets in series.values_mut() {
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut below = 0.0;
        for &(upper, cumulative) in buckets.iter() {
            if upper.is_infinite() {
                continue;
            }
            let entry = counts.entry(upper.to_bits()).or_insert((upper, 0.0));
            entry.1 += cumulative - below;
            below = cumulative;
        }
    }
    let mut merged: Vec<(f64, f64)> = counts.into_values().collect();
    merged.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n: f64 = merged.iter().map(|b| b.1).sum();
    if n == 0.0 {
        return 0.0;
    }
    let rank = (q * n).ceil().clamp(1.0, n);
    let mut seen = 0.0;
    for (upper, count) in &merged {
        seen += count;
        if seen >= rank {
            return *upper;
        }
    }
    merged.last().map_or(0.0, |b| b.0)
}

/// Solver labels of `ppd_unit_solve_seconds`, by family.
const EXACT_SOLVERS: &[&str] = &["exact", "general-exact"];
const APPROX_SOLVERS: &[&str] = &["mis-amp", "mis-amp-budgeted"];

/// Seconds of unit solving recorded so far, exact and approximate.
pub fn solve_seconds(samples: &[Sample]) -> (f64, f64) {
    (
        total(
            samples,
            "ppd_unit_solve_seconds_sum",
            &[("solver", EXACT_SOLVERS)],
        ),
        total(
            samples,
            "ppd_unit_solve_seconds_sum",
            &[("solver", APPROX_SOLVERS)],
        ),
    )
}

/// The `solvers.*` metrics from the engine's solve-time histogram and the
/// sampler's zero-density counter.
pub fn report_solvers(report: &mut Report, samples: &[Sample]) {
    let exact: &[(&str, &[&str])] = &[("solver", EXACT_SOLVERS)];
    let approx: &[(&str, &[&str])] = &[("solver", APPROX_SOLVERS)];
    let count = "ppd_unit_solve_seconds_count";
    let sum = "ppd_unit_solve_seconds_sum";
    let family = "ppd_unit_solve_seconds";
    report.set("solvers.exact.units", total(samples, count, exact));
    report.set("solvers.exact.ms_sum", 1e3 * total(samples, sum, exact));
    report.set(
        "solvers.exact.ms_p50",
        1e3 * quantile(samples, family, exact, 0.5),
    );
    report.set("solvers.approx.units", total(samples, count, approx));
    report.set("solvers.approx.ms_sum", 1e3 * total(samples, sum, approx));
    report.set(
        "solvers.approx.ms_p50",
        1e3 * quantile(samples, family, approx, 0.5),
    );
    report.set(
        "solvers.approx.zero_density",
        total(samples, "ppd_sampler_zero_density_total", &[]),
    );
    for class in ["two-label", "bipartite", "general"] {
        for (name, solvers) in [("exact", EXACT_SOLVERS), ("approx", APPROX_SOLVERS)] {
            let filter: &[(&str, &[&str])] = &[("solver", solvers), ("class", &[class])];
            let units = total(samples, count, filter);
            if units > 0.0 {
                report.detail(
                    &format!("solvers.{name}.{class}"),
                    format!(
                        "units {units}, ms_sum {:.3}, ms_p50 {:.3}",
                        1e3 * total(samples, sum, filter),
                        1e3 * quantile(samples, family, filter, 0.5)
                    ),
                );
            }
        }
    }
}

/// The service's queue-wait and wave-window medians and the solver metrics
/// of its engines, from its metrics exposition, which is returned.
pub fn report_service(report: &mut Report, service: &Service) -> Vec<Sample> {
    let metrics = parse(&service.metrics_text());
    let all: &[(&str, &[&str])] = &[];
    report.set(
        "service.queue_wait_ms_p50",
        1e3 * quantile(&metrics, "ppd_queue_wait_seconds", all, 0.5),
    );
    report.set(
        "service.window_ms_p50",
        1e3 * quantile(&metrics, "ppd_wave_window_seconds", all, 0.5),
    );
    report_solvers(report, &metrics);
    metrics
}

/// The `cache.*` metrics from the engine's cache counters.
pub fn report_cache(report: &mut Report, stats: &CacheStats) {
    report.set("cache.hit_rate", stats.hit_rate());
    report.set("cache.invalidated", stats.units_invalidated as f64);
    report.set("cache.models_prepared", stats.models_prepared as f64);
    report.set("cache.pools_built", stats.pools_built as f64);
    report.set("cache.pool_hits", stats.pool_hits as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_histogram_series() {
        let text = "# TYPE h histogram\n\
            h_bucket{k=\"a\",le=\"1\"} 2\nh_bucket{k=\"a\",le=\"4\"} 3\nh_bucket{k=\"a\",le=\"+Inf\"} 3\n\
            h_sum{k=\"a\"} 6\nh_count{k=\"a\"} 3\n\
            h_bucket{k=\"b\",le=\"2\"} 4\nh_bucket{k=\"b\",le=\"+Inf\"} 4\n\
            h_sum{k=\"b\"} 8\nh_count{k=\"b\"} 4\n";
        let samples = parse(text);
        let all: &[(&str, &[&str])] = &[];
        assert_eq!(total(&samples, "h_count", all), 7.0);
        assert_eq!(total(&samples, "h_count", &[("k", &["b"])]), 4.0);
        // Sorted: 1,1,2,2,2,2,4 → the median lands in bucket 2.
        assert_eq!(quantile(&samples, "h", all, 0.5), 2.0);
        assert_eq!(quantile(&samples, "h", &[("k", &["a"])], 1.0), 4.0);
    }
}
