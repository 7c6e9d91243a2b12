//! `polls-wire`: the `service_load` request mix sent over TCP loopback to a
//! `WireServer` by two closed-loop `WireClient::call` connections, with the
//! cache warm.
//!
//! Solvers do almost nothing here (every unit is a cache hit after
//! warm-up), so the wire codec and socket path, admission, the wave window
//! and delivery, grounding and the cache probe carry the latency.

use crate::queries::{direct, polls_db, same_bits, service_load_mix};
use crate::report::{Report, Samples};
use crate::spans::Tracer;
use crate::{expo, layers, set_up, Run, ENGINE_THREADS};
use ppd_core::{ConjunctiveQuery, Engine, EvalConfig, PpdDatabase};
use ppd_service::{
    Answer, ObsConfig, Request, Service, ServiceConfig, ServiceError, SubmitOptions, WireClient,
    WireServer,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop client connections.
const CLIENTS: usize = 2;

fn service_config(obs: ObsConfig) -> ServiceConfig {
    ServiceConfig::new(EvalConfig::exact().with_threads(ENGINE_THREADS))
        .with_max_batch(16)
        .with_max_wait(Duration::from_millis(1))
        .with_obs(obs)
}

/// A running server with its client connections. Dropping it closes the
/// connections, stops the server and shuts the service down.
struct Stack {
    clients: Vec<WireClient>,
    server: Option<WireServer>,
    service: Arc<Service>,
}

impl Drop for Stack {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// Starts a service over `db`, serves it on a loopback port, connects the
/// clients and warms the cache through them.
fn start(db: &PpdDatabase, obs: ObsConfig) -> std::io::Result<Stack> {
    let service = Arc::new(Service::new(db.clone(), service_config(obs)));
    let server = WireServer::bind_tcp("127.0.0.1:0", Arc::clone(&service))?;
    let addr = server.local_addr().expect("a TCP server has an address");
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        clients.push(WireClient::connect_tcp(addr)?);
    }
    let mut stack = Stack {
        clients,
        server: Some(server),
        service,
    };
    for request in service_load_mix() {
        for client in &mut stack.clients {
            let _ = client.call(&request, &SubmitOptions::default());
        }
    }
    Ok(stack)
}

/// One request over the wire, checked against the reference at the
/// database version the server reports. Overloaded refusals are retried
/// and counted.
fn call(
    client: &mut WireClient,
    request: &Request,
    reference: &Answer,
    version: u64,
    retries: &mut u64,
) -> Result<(), String> {
    loop {
        let id = client
            .send(request, &SubmitOptions::default())
            .map_err(|e| e.to_string())?;
        match client.recv_versioned(id) {
            Ok((answer, served)) if served == Some(version) && same_bits(&answer, reference) => {
                return Ok(())
            }
            Ok((_, served)) => {
                return Err(format!(
                    "{} differs from the direct engine (version {served:?})",
                    request.query().name()
                ))
            }
            Err(ServiceError::Overloaded { .. }) => *retries += 1,
            Err(e) => return Err(format!("{} failed: {e}", request.query().name())),
        }
    }
}

/// What a closed-loop phase measured.
struct Phase {
    latency: Samples,
    wall: Duration,
    retries: u64,
}

/// Every client cycles the mix (offset per client) for `measure`.
fn closed_loop(
    stack: &mut Stack,
    reference: &[Answer],
    version: u64,
    measure: Duration,
    report: &mut Report,
) -> Phase {
    let requests = service_load_mix();
    let started = Instant::now();
    let results: Vec<(Samples, u64, u64, Vec<String>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = stack
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let requests = &requests;
                scope.spawn(move || {
                    let (mut latency, mut attempted, mut retries) = (Samples::new(), 0u64, 0u64);
                    let mut failures = Vec::new();
                    let mut i = c;
                    while latency.is_empty() || started.elapsed() < measure {
                        let k = i % requests.len();
                        attempted += 1;
                        let t = Instant::now();
                        match call(client, &requests[k], &reference[k], version, &mut retries) {
                            Ok(()) => latency.push(t.elapsed().as_secs_f64() * 1e3),
                            Err(e) => failures.push(e),
                        }
                        i += 1;
                        if failures.len() > 100 {
                            break;
                        }
                    }
                    (latency, attempted, retries, failures)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let wall = started.elapsed();
    let mut phase = Phase {
        latency: Samples::new(),
        wall,
        retries: 0,
    };
    for (latency, attempted, retries, failures) in results {
        phase.latency.extend(&latency);
        phase.retries += retries;
        report.attempted += attempted;
        for failure in failures {
            report.fail(failure);
        }
    }
    phase
}

pub fn run(run: &Run, report: &mut Report) {
    let (candidates, voters) = (run.pick(10, 6), run.pick(120, 12));
    let (db, stack) = set_up(report, || {
        let db = polls_db(candidates, voters, run.seed);
        let stack = start(&db, ObsConfig::off());
        (db, stack)
    });
    let mut stack = match stack {
        Ok(stack) => stack,
        Err(e) => {
            report.incorrect(format!("server start failed: {e}"));
            return;
        }
    };
    report.detail("clients", CLIENTS);
    report.detail("voters", voters);

    let fresh = Engine::new(EvalConfig::exact().with_threads(ENGINE_THREADS));
    let mut reference = Vec::new();
    for request in service_load_mix() {
        match direct(&fresh, &db, &request) {
            Ok(answer) => reference.push(answer),
            Err(e) => {
                report.incorrect(format!("reference {} failed: {e}", request.query().name()));
                return;
            }
        }
    }
    let version = db.version();

    let plain = closed_loop(&mut stack, &reference, version, run.phase(), report);
    report.set_end_to_end(plain.latency.len(), plain.wall, &plain.latency);
    let stats = stack.service.stats();
    report.detail("cache.hit_rate.untraced", stats.cache.hit_rate());
    drop(stack);

    if run.trace {
        traced(run, report, &db, &reference, &plain);
    }
}

/// Probe rounds of the span chain per mix request.
const PROBE_ROUNDS: usize = 20;

fn traced(run: &Run, report: &mut Report, db: &PpdDatabase, reference: &[Answer], plain: &Phase) {
    let mut stack = match start(db, ObsConfig::full()) {
        Ok(stack) => stack,
        Err(e) => {
            report.incorrect(format!("traced server start failed: {e}"));
            return;
        }
    };
    let traced = closed_loop(&mut stack, reference, db.version(), run.phase(), report);
    report.set(
        "obs.trace_overhead",
        traced.latency.median() / plain.latency.median(),
    );
    report.set(
        "service.overload_retries",
        (plain.retries + traced.retries) as f64,
    );

    // Span probes: each request through every layer in turn, innermost
    // first, on the warm traced stack.
    let mut tracer = Tracer::default();
    let requests = service_load_mix();
    let service = Arc::clone(&stack.service);
    let engine = service.engine();
    for _ in 0..run.pick(PROBE_ROUNDS, 2) {
        for request in &requests {
            let mut spans = tracer.request(&[
                ("translate", "ground_query"),
                ("engine", "Engine::<request kind>"),
                ("service", "Service::submit->wait"),
                ("wire", "WireClient::call"),
            ]);
            spans
                .next(|| std::hint::black_box(ppd_core::ground_query(db, request.query())).is_ok());
            spans.next(|| std::hint::black_box(direct(engine, db, request)).is_ok());
            spans.next(|| {
                service
                    .submit(request.clone())
                    .map(|ticket| ticket.wait())
                    .is_ok()
            });
            let client = &mut stack.clients[0];
            spans.next(|| client.call(request, &SubmitOptions::default()).is_ok());
        }
    }
    let metrics = expo::report_service(report, &service);
    let stats = service.stats();
    report.set("service.wave_size_mean", stats.mean_wave_size());
    expo::report_cache(report, &stats.cache);
    // An upper bound on the solvers' share of the traced latency: it counts
    // the warm-up's solves too.
    let (exact_s, approx_s) = expo::solve_seconds(&metrics);
    report.detail(
        "solver_share_max",
        format!("{:.5}", (exact_s + approx_s) * 1e3 / traced.latency.sum()),
    );

    let queries: Vec<ConjunctiveQuery> = requests.iter().map(|r| r.query().clone()).collect();
    layers::report_planning(report, engine, db, &queries);
    layers::report_warm_eval(report, engine, db, &queries);
    layers::report_to_rim(report, db);
    drop(stack);
    tracer.report(
        report,
        traced.latency.mean(),
        &run.out_dir.join("spans.jsonl"),
    );
}
