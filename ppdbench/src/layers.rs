//! Per-layer measurements shared by the workloads' traced runs: grounding
//! and planning, warm evaluation of a grounded plan, and model preparation.

use crate::report::{Report, Samples};
use ppd_core::{ground_query, ConjunctiveQuery, Engine, PpdDatabase};
use std::collections::HashSet;
use std::time::Instant;

/// Ground (translate) and plan (engine) timings, sessions per query and
/// sessions per unit, over `queries`.
pub fn report_planning(
    report: &mut Report,
    engine: &Engine,
    db: &PpdDatabase,
    queries: &[ConjunctiveQuery],
) {
    let (mut ground, mut plan) = (Samples::new(), Samples::new());
    let (mut sessions, mut units) = (0usize, 0usize);
    for query in queries {
        let t = Instant::now();
        let grounded = ground_query(db, query);
        let ground_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let planned = engine.plan_units(db, query);
        let plan_ms = t.elapsed().as_secs_f64() * 1e3;
        if let (Ok(grounded), Ok(planned)) = (grounded, planned) {
            ground.push(ground_ms);
            plan.push((plan_ms - ground_ms).max(0.0));
            sessions += grounded.sessions.len();
            units += planned.len();
        }
    }
    report.set("translate.ground_ms_p50", ground.median());
    report.set(
        "translate.sessions_per_query",
        sessions as f64 / queries.len().max(1) as f64,
    );
    report.set("engine.plan_ms_p50", plan.median());
    report.set("engine.dedup_ratio", sessions as f64 / units.max(1) as f64);
}

/// `session_probabilities_for_plan` on already-grounded plans over a warm
/// engine.
pub fn report_warm_eval(
    report: &mut Report,
    engine: &Engine,
    db: &PpdDatabase,
    queries: &[ConjunctiveQuery],
) {
    let mut eval = Samples::new();
    for query in queries {
        let Ok(plan) = ground_query(db, query) else {
            continue;
        };
        for _ in 0..3 {
            let t = Instant::now();
            let _ = std::hint::black_box(engine.session_probabilities_for_plan(db, &plan));
            eval.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    report.set("engine.eval_warm_ms_p50", eval.median());
}

/// `MallowsModel::to_rim` over the database's distinct models.
pub fn report_to_rim(report: &mut Report, db: &PpdDatabase) {
    const REPEATS: u32 = 20;
    let mut seen = HashSet::new();
    let mut micros = Samples::new();
    for name in db.preference_relation_names() {
        let prel = db.preference_relation(name).expect("listed p-relation");
        for session in prel.sessions() {
            if !seen.insert(session.model_key()) {
                continue;
            }
            let t = Instant::now();
            for _ in 0..REPEATS {
                std::hint::black_box(std::hint::black_box(session.model()).to_rim());
            }
            micros.push(t.elapsed().as_secs_f64() * 1e6 / f64::from(REPEATS));
        }
    }
    report.detail("rim.distinct_models", micros.len());
    report.set("rim.to_rim_us_p50", micros.median());
}
