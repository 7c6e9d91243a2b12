//! The queries and request mixes the workloads send, and the reference
//! answers they are checked against.

use ppd_core::{
    ConjunctiveQuery, DatabaseBuilder, Engine, PpdDatabase, Relation, Term, TopKStrategy, Value,
};
use ppd_datagen::{polls_database, polls_q1_query, PollsConfig};
use ppd_service::{Answer, Request};

/// A Polls database: voters, their sessions and Mallows models from
/// `polls_database`, and a `Candidates` table of fixed composition whose
/// rows the seed shuffles over the candidate ids.
///
/// The composition is fixed because the exact DP's cost grows steeply with
/// the size of a label class: with the generator's random attributes, a
/// 7/3 party split made a three-candidate party-join chain 30× dearer than
/// a 6/4 one, so cost would follow the seed rather than the code. Row `j` of `m` has party D
/// for `j < 0.6 m` (R otherwise), sex F when `j / 2` is even, and the
/// `j mod 6`-th age, education and region.
pub fn polls_db(num_candidates: usize, num_voters: usize, seed: u64) -> PpdDatabase {
    const EDUS: [&str; 6] = ["HS", "BS", "BA", "MS", "JD", "PhD"];
    const AGES: [i64; 6] = [20, 30, 40, 50, 60, 70];
    const REGIONS: [&str; 6] = ["NE", "MW", "S", "W", "SW", "NW"];
    let generated = polls_database(&PollsConfig {
        num_candidates,
        num_voters,
        seed,
    });
    let mut rows: Vec<usize> = (0..num_candidates).collect();
    let mut rng = SplitMix(seed ^ 0x5eed_cafe);
    for i in (1..rows.len()).rev() {
        rows.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    let tuples = rows
        .iter()
        .enumerate()
        .map(|(id, &j)| {
            vec![
                Value::from(format!("cand{id}")),
                Value::from(if 10 * j < 6 * num_candidates {
                    "D"
                } else {
                    "R"
                }),
                Value::from(if (j / 2) % 2 == 0 { "F" } else { "M" }),
                Value::from(AGES[j % 6]),
                Value::from(EDUS[j % 6]),
                Value::from(REGIONS[j % 6]),
            ]
        })
        .collect();
    let candidates = Relation::new(
        "Candidates",
        vec!["candidate", "party", "sex", "age", "edu", "reg"],
        tuples,
    )
    .expect("well-formed candidate tuples");
    DatabaseBuilder::new()
        .item_relation(candidates, "candidate")
        .relation(generated.relation("Voters").expect("Voters").clone())
        .preference_relation(
            generated
                .preference_relation("Polls")
                .expect("Polls")
                .clone(),
        )
        .build()
        .expect("polls database is well-formed")
}

/// SplitMix64: the benchmark's own input generator.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// `Candidates(c, party, sex, age, edu, reg)` with the given terms for
/// party, sex and edu.
fn candidate(c: &str, party: Term, sex: Term, edu: Term) -> (String, Vec<Term>) {
    (
        "Candidates".into(),
        vec![Term::var(c), party, sex, Term::any(), edu, Term::any()],
    )
}

fn with_atoms(mut query: ConjunctiveQuery, atoms: Vec<(String, Vec<Term>)>) -> ConjunctiveQuery {
    for (relation, terms) in atoms {
        query = query.atom(&relation, terms);
    }
    query
}

fn polls_prefer(query: ConjunctiveQuery, left: Term, right: Term) -> ConjunctiveQuery {
    query.prefer("Polls", vec![Term::any(), Term::any()], left, right)
}

/// `cand0 ≻ cand1`: an itemwise single edge.
pub fn pair() -> ConjunctiveQuery {
    polls_prefer(
        ConjunctiveQuery::new("pair"),
        Term::val("cand0"),
        Term::val("cand1"),
    )
}

/// `cand0 ≻ cand1 ≻ cand2`: an itemwise two-edge chain.
pub fn chain() -> ConjunctiveQuery {
    let q = polls_prefer(
        ConjunctiveQuery::new("chain"),
        Term::val("cand0"),
        Term::val("cand1"),
    );
    polls_prefer(q, Term::val("cand1"), Term::val("cand2"))
}

/// A male candidate preferred to a female candidate of the same party (the
/// paper's Figure 4 query): the party variable is grounded.
pub fn same_party() -> ConjunctiveQuery {
    let q = polls_prefer(
        ConjunctiveQuery::new("same-party"),
        Term::var("l"),
        Term::var("r"),
    );
    with_atoms(
        q,
        vec![
            candidate("l", Term::var("p"), Term::val("M"), Term::any()),
            candidate("r", Term::var("p"), Term::val("F"), Term::any()),
        ],
    )
}

/// A female candidate preferred to a male candidate of the same education:
/// the education variable is grounded.
pub fn same_edu() -> ConjunctiveQuery {
    let q = polls_prefer(
        ConjunctiveQuery::new("same-edu"),
        Term::var("l"),
        Term::var("r"),
    );
    with_atoms(
        q,
        vec![
            candidate("l", Term::any(), Term::val("F"), Term::var("e")),
            candidate("r", Term::any(), Term::val("M"), Term::var("e")),
        ],
    )
}

/// A three-candidate chain `a ≻ b ≻ c` where `a` and `c` share a party:
/// a general (non-bipartite) union after the party is grounded.
pub fn chain3_join() -> ConjunctiveQuery {
    let q = polls_prefer(
        ConjunctiveQuery::new("chain3-join"),
        Term::var("a"),
        Term::var("b"),
    );
    let q = polls_prefer(q, Term::var("b"), Term::var("c"));
    with_atoms(
        q,
        vec![
            candidate("a", Term::var("p"), Term::any(), Term::any()),
            candidate("c", Term::var("p"), Term::any(), Term::any()),
        ],
    )
}

/// The request mix of the `service_load` bench: Boolean Q1, Count chain,
/// SessionProbabilities pair, TopK Q1 (k = 5, upper-bound) and Boolean
/// pair.
pub fn service_load_mix() -> Vec<Request> {
    vec![
        Request::Boolean(polls_q1_query()),
        Request::Count(chain()),
        Request::SessionProbabilities(pair()),
        Request::TopK {
            query: polls_q1_query(),
            k: 5,
            strategy: TopKStrategy::UpperBound {
                edges_per_pattern: 2,
            },
        },
        Request::Boolean(pair()),
    ]
}

/// The answer a direct engine call gives for `request`.
pub fn direct(engine: &Engine, db: &PpdDatabase, request: &Request) -> ppd_core::Result<Answer> {
    Ok(match request {
        Request::Boolean(q) => Answer::Boolean(engine.evaluate_boolean(db, q)?),
        Request::Count(q) => Answer::Count(engine.count_sessions(db, q)?),
        Request::SessionProbabilities(q) => {
            Answer::SessionProbabilities(engine.session_probabilities(db, q)?)
        }
        Request::TopK { query, k, strategy } => {
            Answer::TopK(engine.most_probable_sessions(db, query, *k, *strategy)?.0)
        }
    })
}

/// Bit-exact equality of two answers (floats compared by their bits).
pub fn same_bits(a: &Answer, b: &Answer) -> bool {
    fn probs(x: &[(usize, f64)], y: &[(usize, f64)]) -> bool {
        x.len() == y.len()
            && x.iter()
                .zip(y)
                .all(|(p, q)| p.0 == q.0 && p.1.to_bits() == q.1.to_bits())
    }
    match (a, b) {
        (Answer::Boolean(x), Answer::Boolean(y)) | (Answer::Count(x), Answer::Count(y)) => {
            x.to_bits() == y.to_bits()
        }
        (Answer::SessionProbabilities(x), Answer::SessionProbabilities(y)) => probs(x, y),
        (Answer::TopK(x), Answer::TopK(y)) => {
            x.len() == y.len()
                && x.iter().zip(y).all(|(p, q)| {
                    p.session_index == q.session_index
                        && p.probability.to_bits() == q.probability.to_bits()
                })
        }
        _ => a == b,
    }
}
