//! The repository benchmark: one workload per process, every answer
//! checked, every metric printed by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path ppdbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones, measured with observability off; with
//! `--trace 1` they are the per-layer ones, from a separate traced run.
//! The line before it carries details: tail percentiles, sample counts and
//! the run's stamp (nproc, commit, engine threads, clients). See
//! `ppdbench/README.md` for the workloads and the layers each one loads.

mod churn;
mod cold;
mod expo;
mod layers;
mod queries;
mod report;
mod spans;
mod wire;

use report::{Kind, Report, Samples};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The workloads, by the names `BENCHMARK.json` declares.
pub const WORKLOADS: [&str; 3] = ["polls-wire", "polls-cold", "polls-churn"];

/// Engine worker threads of every workload's service or engines.
pub const ENGINE_THREADS: usize = 2;

/// How often set-up is repeated; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed phase.
    pub measure: Duration,
    pub trace: bool,
    /// Tiny instances and a few operations: the self-check size.
    pub tiny: bool,
    /// Where spans and checkpoints go; removed or kept per file.
    pub out_dir: PathBuf,
}

impl Run {
    /// `full` at the benchmark's size, `tiny` in the self-check.
    pub fn pick<T>(&self, full: T, tiny: T) -> T {
        if self.tiny {
            tiny
        } else {
            full
        }
    }

    /// Length of one timed phase. The traced run splits its time between
    /// an untraced and a traced phase, so `obs.trace_overhead` compares
    /// like with like.
    pub fn phase(&self) -> Duration {
        if self.trace {
            self.measure / 2
        } else {
            self.measure
        }
    }
}

/// Runs `build` (one whole set-up) `SETUP_REPEATS` times, records the
/// median as `setup_s`, and returns the last result; each earlier one is
/// dropped before the next set-up starts.
pub fn set_up<T>(report: &mut Report, mut build: impl FnMut() -> T) -> T {
    let mut times = Samples::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    report.set("setup_s", times.median());
    last.expect("set-up ran")
}

/// Runs one workload and returns its report (metrics of both kinds that the
/// mode measured).
pub fn run_workload(run: &Run) -> Result<Report, String> {
    let mut report = Report::default();
    match run.workload.as_str() {
        "polls-wire" => wire::run(run, &mut report),
        "polls-cold" => cold::run(run, &mut report),
        "polls-churn" => churn::run(run, &mut report),
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {WORKLOADS:?}"
            ))
        }
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    report.set("failed_frac", failed_frac);
    report.detail("nproc", nproc());
    report.detail("commit", commit());
    report.detail("engine_threads", ENGINE_THREADS);
    report.detail("workload", &run.workload);
    report.detail("seed", run.seed);
    report.detail("trace", u8::from(run.trace));
    Ok(report)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit of the checkout, read from `.git` when there is one.
fn commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => read(&format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|line| line.ends_with(reference))
                    .and_then(|line| line.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

fn parse_args() -> Result<Run, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Run {
        out_dir: PathBuf::from(".bench_out").join(format!("{workload}-{}", std::process::id())),
        workload,
        seed: seed.ok_or("--seed is required")?,
        measure: Duration::from_secs_f64(seconds),
        trace: trace.ok_or("--trace is required")?,
        tiny: false,
    })
}

fn main() {
    let run = match parse_args() {
        Ok(run) => run,
        Err(e) => {
            eprintln!("ppdbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match run_workload(&run) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("ppdbench: {e}");
            std::process::exit(2);
        }
    };
    // Checkpoints are scratch; spans of a traced run are kept. `remove_dir`
    // only removes directories left empty.
    let _ = std::fs::remove_dir_all(run.out_dir.join("checkpoint"));
    let _ = std::fs::remove_dir(&run.out_dir);
    let _ = run.out_dir.parent().map(std::fs::remove_dir);
    println!("{}", report.details_line());
    let kind = if run.trace {
        Kind::PerLayer
    } else {
        Kind::EndToEnd
    };
    println!("{}", report.result_line(kind));
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::METRICS;
    use serde_json::Value;

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    /// `(name, unit)` of every metric `BENCHMARK.json` declares in `key`.
    fn declared(manifest: &Value, key: &str) -> Vec<(String, String)> {
        manifest
            .get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn manifest_declares_the_benchmarks_workloads_and_metrics() {
        let manifest = manifest();
        let workloads: Vec<&str> = manifest
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for (key, kind) in [
            ("end_to_end", Kind::EndToEnd),
            ("per_layer", Kind::PerLayer),
        ] {
            let ours: Vec<(String, String)> = METRICS
                .iter()
                .filter(|(_, _, k)| *k == kind)
                .map(|(n, u, _)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared(&manifest, key), ours, "{key}");
        }
    }

    /// The self-check: every workload at a tiny size, untraced and traced,
    /// answers correctly and prints every declared metric with its unit.
    #[test]
    fn every_workload_prints_every_metric_with_its_unit() {
        let manifest = manifest();
        for workload in WORKLOADS {
            for trace in [false, true] {
                let run = Run {
                    workload: workload.to_string(),
                    seed: 7,
                    measure: Duration::from_millis(300),
                    trace,
                    tiny: true,
                    out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                        .join("../.bench_out")
                        .join(format!("selfcheck-{workload}-{}", std::process::id())),
                };
                let report = run_workload(&run).expect("known workload");
                let _ = std::fs::remove_dir_all(&run.out_dir);
                assert_eq!(report.mismatch, None, "{workload} trace={trace}");
                assert_eq!(report.failed, 0, "{workload} trace={trace}");
                let (kind, key) = if trace {
                    (Kind::PerLayer, "per_layer")
                } else {
                    (Kind::EndToEnd, "end_to_end")
                };
                let line: Value =
                    serde_json::from_str(&report.result_line(kind)).expect("result line parses");
                let metrics = line
                    .get("metrics")
                    .and_then(Value::as_object)
                    .expect("metrics");
                let expected = declared(&manifest, key);
                assert_eq!(metrics.len(), expected.len(), "{workload} trace={trace}");
                for (name, unit) in expected {
                    let metric = metrics
                        .get(&name)
                        .unwrap_or_else(|| panic!("{name} missing"));
                    assert!(
                        metric.get("value").and_then(Value::as_f64).is_some(),
                        "{name}"
                    );
                    assert_eq!(
                        metric.get("unit").and_then(Value::as_str),
                        Some(unit.as_str())
                    );
                }
                if !trace {
                    for (name, _) in declared(&manifest, "end_to_end") {
                        let value = metrics[&name].get("value").and_then(Value::as_f64);
                        assert!(value > Some(0.0), "{workload}: {name} must never be 0");
                    }
                }
            }
        }
    }
}
