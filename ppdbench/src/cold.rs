//! `polls-cold`: a tenant with a per-request error budget sending a batch
//! of grounded join shapes to an engine whose caches are cold.
//!
//! Each round builds a fresh `error_budget(0.05, 0.95)` engine (threads 2)
//! and runs the batch through `Engine::evaluate_batch`, so every unit is
//! solved and the solvers carry the latency. The static cost model splits
//! the batch between the two solver families: the same-education and
//! same-party units go to the exact DP, the units of the three-candidate
//! party-join chain to the budgeted sampler.
//!
//! The chain is not timed on an exact-only engine: its exact per-unit cost
//! depends on each voter's reference ranking with a coefficient of
//! variation near 2 (a few units take 300 ms, most under 20 ms), so such a
//! batch's cost followed the seed by ±20%. Sampled, a chain unit costs
//! 24 ± 4 ms, and a same-education unit 21 ± 5 ms exactly.
//!
//! Checks: every round reproduces the first round's bits, a threads-1
//! engine reproduces them too, and `budget_miss_frac` compares the
//! per-session probabilities with an exact-only engine's, computed once
//! after the timed phase.

use crate::queries::{chain3_join, polls_db, same_edu, same_party};
use crate::report::{Report, Samples};
use crate::spans::Tracer;
use crate::{expo, layers, set_up, Run, ENGINE_THREADS};
use ppd_core::{
    ground_query, BatchAnswer, ConjunctiveQuery, Engine, EngineObs, EvalConfig, PpdDatabase,
};
use ppd_obs::Registry;
use std::time::{Duration, Instant};

/// Voters of the full-size instance; nearly each has a Mallows model of its
/// own, so each is a work unit of every query. Small enough for about 40
/// cold batches per run.
const VOTERS: usize = 12;

const EPSILON: f64 = 0.05;
const CONFIDENCE: f64 = 0.95;

fn budget_config(threads: usize) -> EvalConfig {
    EvalConfig::error_budget(EPSILON, CONFIDENCE).with_threads(threads)
}

fn batch() -> Vec<ConjunctiveQuery> {
    vec![same_edu(), chain3_join(), same_party()]
}

/// What the timed rounds saw.
struct Rounds {
    /// Wall time (ms) of every cold batch.
    latency: Samples,
    answered: usize,
    wall: Duration,
    /// The first round's answers, for the checks.
    first: Option<Vec<BatchAnswer>>,
    /// The last round's engine, warm with the batch.
    engine: Option<Engine>,
}

/// Runs rounds for `measure` (at least one). `registry`, when given,
/// instruments the engines and `tracer` records spans (the traced run).
fn rounds(
    db: &PpdDatabase,
    measure: Duration,
    registry: Option<&Registry>,
    report: &mut Report,
    mut tracer: Option<&mut Tracer>,
) -> Rounds {
    let batch = batch();
    let mut out = Rounds {
        latency: Samples::new(),
        answered: 0,
        wall: Duration::ZERO,
        first: None,
        engine: None,
    };
    let started = Instant::now();
    while out.latency.is_empty() || started.elapsed() < measure {
        let config = budget_config(ENGINE_THREADS);
        let engine = match registry {
            Some(registry) => {
                Engine::with_obs(config, EngineObs::new(registry, &[("tenant", "bench")]))
            }
            None => Engine::new(config),
        };
        report.attempted += batch.len() as u64;
        let (answers, ms) = match tracer.as_deref_mut() {
            Some(tracer) => traced_batch(tracer, &engine, db, &batch, registry),
            None => {
                let t = Instant::now();
                let answers = engine.evaluate_batch(db, &batch);
                (answers, t.elapsed().as_secs_f64() * 1e3)
            }
        };
        out.engine = Some(engine);
        let answers = match answers {
            Ok(answers) => answers,
            Err(e) => {
                report.failed += batch.len() as u64;
                report.incorrect(format!("cold batch failed: {e}"));
                continue;
            }
        };
        out.latency.push(ms);
        out.answered += answers.len();
        match &out.first {
            None => out.first = Some(answers),
            // Fixed content, fixed seeds: every round reproduces the first
            // round's bits.
            Some(first) if same_batch(first, &answers) => {}
            Some(_) => report.fail("cold batch answers changed between rounds"),
        }
    }
    out.wall = started.elapsed();
    out
}

/// One cold batch with spans: grounding (translate), then the batch call
/// (engine), with the solvers' share of it read from the registry.
fn traced_batch(
    tracer: &mut Tracer,
    engine: &Engine,
    db: &PpdDatabase,
    batch: &[ConjunctiveQuery],
    registry: Option<&Registry>,
) -> (ppd_core::Result<Vec<BatchAnswer>>, f64) {
    let mut spans = tracer.request(&[
        ("translate", "ground_query"),
        ("engine", "Engine::evaluate_batch"),
    ]);
    spans.next(|| {
        for query in batch {
            let _ = std::hint::black_box(ground_query(db, query));
        }
    });
    let before = registry.map(|r| expo::solve_seconds(&expo::parse(&r.render())));
    let t = Instant::now();
    let answers = spans.next(|| engine.evaluate_batch(db, batch));
    let ms = t.elapsed().as_secs_f64() * 1e3;
    if let (Some(registry), Some((exact0, approx0))) = (registry, before) {
        let (exact1, approx1) = expo::solve_seconds(&expo::parse(&registry.render()));
        // Solve seconds spread over the pool: the solvers' share of the
        // batch's wall time.
        let threads = ENGINE_THREADS as f64;
        spans.record_inside(1, "solvers.exact", 1e3 * (exact1 - exact0) / threads);
        spans.record_inside(1, "solvers.approx", 1e3 * (approx1 - approx0) / threads);
    }
    (answers, ms)
}

fn same_batch(a: &[BatchAnswer], b: &[BatchAnswer]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.boolean.to_bits() == y.boolean.to_bits()
                && x.expected_count.to_bits() == y.expected_count.to_bits()
                && x.session_probabilities.len() == y.session_probabilities.len()
                && x.session_probabilities
                    .iter()
                    .zip(&y.session_probabilities)
                    .all(|(p, q)| p.0 == q.0 && p.1.to_bits() == q.1.to_bits())
        })
}

/// The share of per-session probabilities farther than ε from the exact
/// ones, with the number compared.
fn budget_misses(exact: &[BatchAnswer], budget: &[BatchAnswer]) -> (f64, usize) {
    let (mut misses, mut compared) = (0usize, 0usize);
    for (x, y) in exact.iter().zip(budget) {
        for (p, q) in x.session_probabilities.iter().zip(&y.session_probabilities) {
            compared += 1;
            if p.0 != q.0 || (p.1 - q.1).abs() > EPSILON {
                misses += 1;
            }
        }
    }
    (misses as f64 / compared.max(1) as f64, compared)
}

pub fn run(run: &Run, report: &mut Report) {
    let (candidates, voters) = (run.pick(10, 6), run.pick(VOTERS, 6));
    let db = set_up(report, || polls_db(candidates, voters, run.seed));
    report.detail("clients", 1);
    report.detail("voters", voters);

    let plain = rounds(&db, run.phase(), None, report, None);
    report.set_end_to_end(plain.answered, plain.wall, &plain.latency);

    let batch = batch();
    let t = Instant::now();
    let serial = Engine::new(budget_config(1)).evaluate_batch(&db, &batch);
    let serial_ms = t.elapsed().as_secs_f64() * 1e3;
    report.attempted += batch.len() as u64;
    match (&serial, &plain.first) {
        (Ok(serial), Some(parallel)) if same_batch(serial, parallel) => {}
        (Err(e), _) => report.fail(format!("threads-1 batch failed: {e}")),
        _ => report.fail("answers differ between threads 1 and 2"),
    }
    let exact =
        Engine::new(EvalConfig::exact().with_threads(ENGINE_THREADS)).evaluate_batch(&db, &batch);
    report.attempted += batch.len() as u64;
    match (&exact, &plain.first) {
        (Ok(exact), Some(budget)) => {
            let (miss, compared) = budget_misses(exact, budget);
            report.set("budget_miss_frac", miss);
            report.detail("budget_miss_frac.compared", compared);
        }
        (Err(e), _) => report.fail(format!("exact reference batch failed: {e}")),
        (_, None) => {}
    }

    if run.trace {
        traced(run, report, &db, &plain, serial_ms);
    }
}

fn traced(run: &Run, report: &mut Report, db: &PpdDatabase, plain: &Rounds, serial_ms: f64) {
    let registry = Registry::new(true);
    let mut tracer = Tracer::default();
    let traced = rounds(db, run.phase(), Some(&registry), report, Some(&mut tracer));
    let samples = expo::parse(&registry.render());
    expo::report_solvers(report, &samples);
    report.set(
        "obs.trace_overhead",
        traced.latency.median() / plain.latency.median(),
    );
    report.set("engine.speedup_2v1", serial_ms / plain.latency.median());
    let (exact_s, approx_s) = expo::solve_seconds(&samples);
    report.set(
        "engine.pool_utilisation",
        (exact_s + approx_s) / (traced.wall.as_secs_f64() * ENGINE_THREADS as f64),
    );

    let engine = traced.engine.as_ref().expect("at least one round ran");
    expo::report_cache(report, &engine.cache_stats());
    let batch = batch();
    layers::report_planning(report, engine, db, &batch);
    layers::report_warm_eval(report, engine, db, &batch);
    layers::report_to_rim(report, db);
    tracer.report(
        report,
        traced.latency.mean(),
        &run.out_dir.join("spans.jsonl"),
    );
}
