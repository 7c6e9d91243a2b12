//! `polls-churn`: an in-process `Service` read by one closed-loop reader
//! while an updater replaces sessions in bursts on a fixed schedule (open
//! loop) and checkpoints the marginal cache every few bursts.
//!
//! Every burst invalidates the units of the sessions it replaces, so the
//! reads after it re-solve them: the cache sees invalidations and inserts
//! rather than hits, and `database` and `persist` carry work that no other
//! workload gives them.

use crate::queries::{direct, polls_db, same_bits, same_party, SplitMix};
use crate::report::{Report, Samples};
use crate::spans::Tracer;
use crate::{expo, layers, set_up, Run, ENGINE_THREADS};
use ppd_core::{
    ConjunctiveQuery, Engine, EvalConfig, MallowsModel, PpdDatabase, Ranking, Session, Update,
};
use ppd_datagen::polls_q1_query;
use ppd_service::{Answer, ObsConfig, Request, Service, ServiceConfig};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Sessions replaced per burst: 2.5% of the voters, four bursts a second
/// (10% of the voters per second), so the re-solves after each burst fall
/// on more reads than one 10% burst a second would give them.
const BURST: usize = 6;
/// Time between burst due times.
const BURST_PERIOD: Duration = Duration::from_millis(250);
/// A checkpoint follows every this many bursts (every 4 s).
const CHECKPOINT_EVERY: usize = 16;

fn mix() -> Vec<Request> {
    vec![
        Request::Boolean(polls_q1_query()),
        Request::Count(same_party()),
        Request::SessionProbabilities(polls_q1_query()),
        Request::Boolean(same_party()),
    ]
}

fn service_config(obs: ObsConfig) -> ServiceConfig {
    ServiceConfig::new(EvalConfig::exact().with_threads(ENGINE_THREADS))
        .with_max_batch(16)
        .with_max_wait(Duration::from_millis(1))
        .with_obs(obs)
}

/// The updates of the whole run, generated from the seed: each replaces a
/// random voter's session with a fresh Mallows model (random reference
/// ranking, dispersion 0.2, 0.5 or 0.8) under the same voter attributes.
fn updates(db: &PpdDatabase, count: usize, seed: u64) -> Vec<Update> {
    let sessions = db.preference_relation("Polls").expect("Polls").sessions();
    let m = db.num_items();
    let mut rng = SplitMix(seed ^ 0x00c0_ffee);
    (0..count)
        .map(|_| {
            let index = (rng.next() % sessions.len() as u64) as usize;
            let mut items: Vec<u32> = (0..m as u32).collect();
            for i in (1..items.len()).rev() {
                items.swap(i, (rng.next() % (i as u64 + 1)) as usize);
            }
            let phi = [0.2, 0.5, 0.8][(rng.next() % 3) as usize];
            let model = MallowsModel::new(Ranking::new(items).expect("a permutation"), phi)
                .expect("a valid dispersion");
            Update::ReplaceSession {
                prelation: "Polls".into(),
                index,
                session: Session::new(sessions[index].attrs().to_vec(), model),
            }
        })
        .collect()
}

/// What one timed phase saw.
#[derive(Default)]
struct Phase {
    reads: Samples,
    read_wall: Duration,
    update_latency: Samples,
    checkpoints: Samples,
    records_appended: u64,
    invalidated: u64,
    generator_lag: Samples,
    /// `(version, update)` of every applied update.
    applied: Vec<(u64, Update)>,
    /// `(version, request index, answer)` of every read.
    answers: Vec<(u64, usize, Answer)>,
}

fn timed_phase(
    service: &Service,
    all_updates: &[Update],
    measure: Duration,
    checkpoint_dir: &Path,
    report: &mut Report,
) -> Phase {
    let requests = mix();
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let mut phase = Phase::default();
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let (mut latency, mut answers, mut failures) = (Samples::new(), Vec::new(), Vec::new());
            let mut i = 0;
            while !stop.load(Ordering::Relaxed) || latency.is_empty() {
                let k = i % requests.len();
                let t = Instant::now();
                match service
                    .submit(requests[k].clone())
                    .map(|t| t.wait_versioned())
                {
                    Ok((Ok(answer), Some(version))) => {
                        latency.push(t.elapsed().as_secs_f64() * 1e3);
                        answers.push((version, k, answer));
                    }
                    Ok((Ok(_), None)) => failures.push("a read carried no version".to_string()),
                    Ok((Err(e), _)) | Err(e) => failures.push(format!("read failed: {e}")),
                }
                i += 1;
            }
            (latency, answers, failures, started.elapsed())
        });

        // The updater: open loop, bursts due every period from the start.
        let mut next = 0;
        let mut burst = 0;
        while started.elapsed() < measure || burst == 0 {
            let due = started + BURST_PERIOD * burst as u32;
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            phase.generator_lag.push(due.elapsed().as_secs_f64() * 1e3);
            let mut tickets = Vec::new();
            for update in &all_updates[next..next + BURST] {
                attempted += 1;
                match service.submit_update(update.clone()) {
                    Ok(ticket) => tickets.push((ticket, update)),
                    Err(e) => failures.push(format!("update refused: {e}")),
                }
            }
            next += BURST;
            for (ticket, update) in tickets {
                match ticket.wait() {
                    Ok(Answer::Updated {
                        version,
                        invalidated,
                    }) => {
                        phase.update_latency.push(due.elapsed().as_secs_f64() * 1e3);
                        phase.invalidated += invalidated;
                        phase.applied.push((version, update.clone()));
                    }
                    Ok(other) => failures.push(format!("update answered {other:?}")),
                    Err(e) => failures.push(format!("update failed: {e}")),
                }
            }
            burst += 1;
            if burst % CHECKPOINT_EVERY == 0 {
                let t = Instant::now();
                match service.engine().save_marginals(checkpoint_dir) {
                    Ok(records) => {
                        phase.checkpoints.push(t.elapsed().as_secs_f64() * 1e3);
                        phase.records_appended += records;
                    }
                    Err(e) => failures.push(format!("checkpoint failed: {e}")),
                }
            }
            if next + BURST > all_updates.len() {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        let (reads, answers, read_failures, wall) = reader.join().expect("reader panicked");
        attempted += (reads.len() + read_failures.len()) as u64;
        phase.reads = reads;
        phase.answers = answers;
        phase.read_wall = wall;
        failures.extend(read_failures);
    });
    report.attempted += attempted;
    for failure in failures {
        report.fail(failure);
    }
    phase
}

/// Replays the applied updates in version order on a copy of the initial
/// database with a direct engine, timing each `apply_update`, and checks
/// every read against the direct answer at the version it was computed
/// against.
fn verify(initial: &PpdDatabase, phase: &Phase, report: &mut Report) -> Samples {
    let requests = mix();
    let engine = Engine::new(EvalConfig::exact().with_threads(ENGINE_THREADS));
    let mut db = initial.clone();
    let mut applied: Vec<&(u64, Update)> = phase.applied.iter().collect();
    applied.sort_by_key(|(version, _)| *version);
    let mut reads: BTreeMap<u64, Vec<(usize, &Answer)>> = BTreeMap::new();
    for (version, k, answer) in &phase.answers {
        reads.entry(*version).or_default().push((*k, answer));
    }
    let mut apply_ms = Samples::new();
    let mut updates = applied.into_iter().peekable();
    for (version, at_version) in reads {
        while db.version() < version {
            let Some((expected, update)) = updates.next() else {
                break;
            };
            let t = Instant::now();
            let result = engine.apply_update(&mut db, update.clone());
            apply_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if result.map(|(v, _)| v) != Ok(*expected) {
                report.incorrect(format!(
                    "replaying the update to version {expected} diverged"
                ));
                return apply_ms;
            }
        }
        if db.version() != version {
            report.incorrect(format!("a read reported unknown version {version}"));
            continue;
        }
        let mut expected: BTreeMap<usize, Answer> = BTreeMap::new();
        for (k, answer) in at_version {
            let reference = match expected.entry(k) {
                Entry::Occupied(slot) => slot.into_mut(),
                Entry::Vacant(slot) => match direct(&engine, &db, &requests[k]) {
                    Ok(reference) => slot.insert(reference),
                    Err(e) => {
                        report.incorrect(format!("reference read failed: {e}"));
                        continue;
                    }
                },
            };
            if !same_bits(answer, reference) {
                report.fail(format!(
                    "{} at version {version} differs from the direct engine",
                    requests[k].query().name()
                ));
            }
        }
    }
    for (version, update) in updates {
        let t = Instant::now();
        let result = engine.apply_update(&mut db, update.clone());
        apply_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if result.map(|(v, _)| v) != Ok(*version) {
            report.incorrect(format!(
                "replaying the update to version {version} diverged"
            ));
        }
    }
    apply_ms
}

pub fn run(run: &Run, report: &mut Report) {
    let (candidates, voters) = (run.pick(16, 8), run.pick(240, 40));
    let mix = mix();
    let (db, service) = set_up(report, || {
        let db = polls_db(candidates, voters, run.seed);
        let service = Service::new(db.clone(), service_config(ObsConfig::off()));
        for request in &mix {
            let _ = service.submit(request.clone()).map(|ticket| ticket.wait());
        }
        (db, service)
    });
    report.detail("clients", "1 reader + 1 updater");
    report.detail("voters", voters);

    let measure = run.phase();
    // Enough updates for every burst the phase can schedule.
    let bursts = (measure.as_secs_f64() / BURST_PERIOD.as_secs_f64()).ceil() as usize + 1;
    let all_updates = updates(&db, bursts * BURST, run.seed);
    let checkpoint_dir = run.out_dir.join("checkpoint");
    let plain = timed_phase(&service, &all_updates, measure, &checkpoint_dir, report);
    let stats = service.stats();
    drop(service);
    report.set_end_to_end(plain.reads.len(), plain.read_wall, &plain.reads);
    report.set_timing("update_p50_ms", "update_tail_ms", &plain.update_latency);
    report.set("checkpoint_p50_ms", plain.checkpoints.median());
    report.set("bench.generator_lag_ms_max", plain.generator_lag.max());
    report.detail("updates", plain.applied.len());
    report.detail("checkpoints", plain.checkpoints.len());
    let apply_ms = verify(&db, &plain, report);

    if run.trace {
        report.set("database.apply_ms_p50", apply_ms.median());
        report.set("persist.save_ms_p50", plain.checkpoints.median());
        report.set("persist.records_appended", plain.records_appended as f64);
        report.set("persist.live_bytes", stats.cache.segment_live_bytes as f64);
        report.set("persist.dead_bytes", stats.cache.segment_dead_bytes as f64);
        report.set("persist.compactions", stats.cache.compactions as f64);
        report.set(
            "cache.invalidated_per_update",
            plain.invalidated as f64 / plain.applied.len().max(1) as f64,
        );
        expo::report_cache(report, &stats.cache);
        report.set("service.wave_size_mean", stats.mean_wave_size());
        traced(run, report, &db, &all_updates, &plain);
    }
}

/// Probe rounds of the span chain per mix request.
const PROBE_ROUNDS: usize = 20;

fn traced(run: &Run, report: &mut Report, db: &PpdDatabase, all_updates: &[Update], plain: &Phase) {
    let service = Service::new(db.clone(), service_config(ObsConfig::full()));
    let requests = mix();
    for request in &requests {
        let _ = service.submit(request.clone()).map(|ticket| ticket.wait());
    }
    let traced_dir = run.out_dir.join("checkpoint-traced");
    let traced = timed_phase(&service, all_updates, run.phase(), &traced_dir, report);
    let _ = std::fs::remove_dir_all(&traced_dir);
    report.set(
        "obs.trace_overhead",
        traced.reads.median() / plain.reads.median(),
    );

    let current = service.database().clone();
    let engine = service.engine();
    let mut tracer = Tracer::default();
    for _ in 0..run.pick(PROBE_ROUNDS, 2) {
        for request in &requests {
            let mut spans = tracer.request(&[
                ("translate", "ground_query"),
                ("engine", "Engine::<request kind>"),
                ("service", "Service::submit->wait"),
            ]);
            spans.next(|| {
                std::hint::black_box(ppd_core::ground_query(&current, request.query())).is_ok()
            });
            spans.next(|| std::hint::black_box(direct(engine, &current, request)).is_ok());
            spans.next(|| {
                service
                    .submit(request.clone())
                    .map(|ticket| ticket.wait())
                    .is_ok()
            });
        }
    }
    expo::report_service(report, &service);
    let queries: Vec<ConjunctiveQuery> = requests.iter().map(|r| r.query().clone()).collect();
    layers::report_planning(report, engine, &current, &queries);
    layers::report_warm_eval(report, engine, &current, &queries);
    layers::report_to_rim(report, &current);
    drop(service);
    tracer.report(
        report,
        traced.reads.mean(),
        &run.out_dir.join("spans.jsonl"),
    );
}
