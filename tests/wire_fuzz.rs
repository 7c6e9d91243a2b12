//! The wire front door under hostile input. Random bytes, truncated and
//! byte-mutated copies of valid query, update and control frames, deeply
//! nested JSON and oversized frames are sent over TCP to one `WireServer`.
//! Each input must be answered with well-formed response frames (an error
//! frame for anything that is not a valid request) or a clean close, and
//! the server must keep serving: a probe query sent afterwards, on the same
//! connection when it is still open and on a fresh one otherwise, must come
//! back bit-identical (`to_bits`) to a direct `Engine` call.
//!
//! The server has two tenants over the same data. Fuzzed frames carry no
//! `database`, so they reach the default tenant `scratch`, where mutated
//! updates may land; the probe names `polls`, which no fuzzed frame can
//! reach with a few byte edits, so its answer never moves.

use ppd::datagen::{polls_database, PollsConfig};
use ppd::prelude::*;
use ppd::service::MAX_FRAME_BYTES;
use proptest::prelude::*;
use serde_json::Value as Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// The probe's frame id: far from every id in the templates below, so no
/// edit of a template can collide with it.
const PROBE_ID: u64 = 9_007_199_254_740_993;

const PAIR_QUERY: &str = r#"{"name": "pair", "prefer": [{"relation": "Polls", "sessions": ["_", "_"], "left": {"val": "cand0"}, "right": {"val": "cand1"}}]}"#;

/// Valid frames of every verb; the fuzzers below truncate and mutate them.
const TEMPLATES: [&str; 9] = [
    r#"{"id": 1, "kind": "boolean", "query": QUERY}"#,
    r#"{"id": 2, "kind": "topk", "k": 2, "strategy": {"upper_bound": 2}, "class": "batch", "query": QUERY}"#,
    r#"{"id": 3, "kind": "session_probabilities", "deadline_ms": 5000, "query": QUERY}"#,
    r#"{"id": 4, "kind": "update", "op": "insert", "prelation": "Polls", "session": {"attrs": ["voter99", "d1"], "ranking": [2, 0, 1, 3, 4, 5], "phi": 0.3}}"#,
    r#"{"id": 5, "kind": "update", "op": "replace", "index": 1, "prelation": "Polls", "session": {"attrs": ["voter1", "d1"], "ranking": [5, 4, 3, 2, 1, 0], "phi": 0.5}}"#,
    r#"{"id": 6, "kind": "update", "op": "delete", "index": 2, "prelation": "Polls"}"#,
    r#"{"id": 7, "kind": "stats"}"#,
    r#"{"id": 8, "kind": "metrics"}"#,
    r#"{"id": 9, "kind": "trace", "trace": 1}"#,
];

fn template(i: usize) -> Vec<u8> {
    TEMPLATES[i % TEMPLATES.len()]
        .replace("QUERY", PAIR_QUERY)
        .into_bytes()
}

fn database() -> PpdDatabase {
    polls_database(&PollsConfig {
        num_candidates: 6,
        num_voters: 24,
        seed: 2020,
    })
}

struct Fixture {
    _server: WireServer,
    addr: SocketAddr,
    /// The probe's answer from a direct `Engine` call.
    expected: f64,
}

/// One server for the whole suite: surviving every case is the point.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let db = database();
        let pair = ConjunctiveQuery::new("pair").prefer(
            "Polls",
            vec![Term::any(), Term::any()],
            Term::val("cand0"),
            Term::val("cand1"),
        );
        let expected = Engine::new(EvalConfig::exact())
            .evaluate_boolean(&db, &pair)
            .expect("direct engine call");
        let service = Service::with_databases(
            vec![
                ("scratch".to_string(), db.clone()),
                ("polls".to_string(), db),
            ],
            ServiceConfig::new(EvalConfig::exact()).with_max_wait(Duration::from_millis(1)),
        );
        let server = WireServer::bind_tcp("127.0.0.1:0", Arc::new(service)).expect("bind");
        let addr = server.local_addr().expect("tcp address");
        Fixture {
            _server: server,
            addr,
            expected,
        }
    })
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("the server still accepts");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn probe_frame() -> String {
    format!(
        r#"{{"id": {PROBE_ID}, "kind": "boolean", "database": "polls", "query": {PAIR_QUERY}}}"#
    ) + "\n"
}

/// The next response frame, checked for shape; `None` on a clean close.
fn next_frame(reader: &mut BufReader<TcpStream>) -> Option<(u64, Json)> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => return None,
        Ok(_) => {}
        Err(e) => panic!("expected a response frame or a clean close, got {e}"),
    }
    let frame: Json = serde_json::from_str(&line).expect("response frames are JSON");
    let id = frame.get("id").and_then(Json::as_u64).expect("numeric id");
    assert!(
        frame.get("ok").is_some() || frame.get("err").is_some(),
        "a response carries `ok` or `err`: {line}"
    );
    Some((id, frame))
}

/// Reads response frames until the probe's answer arrives (returned) or the
/// server closes the connection (`None`); other frames' ids go to `others`.
fn read_until_probe(reader: &mut BufReader<TcpStream>, others: &mut Vec<u64>) -> Option<f64> {
    loop {
        let (id, frame) = next_frame(reader)?;
        if id != PROBE_ID {
            others.push(id);
            continue;
        }
        let ok = frame
            .get("ok")
            .unwrap_or_else(|| panic!("probe failed: {frame:?}"));
        return Some(
            ok.get("value")
                .and_then(Json::as_f64)
                .expect("boolean value"),
        );
    }
}

/// How many responses the server owes for `input`: one per line that is
/// not blank (a line that is not UTF-8 is not blank; it gets an error).
fn owed_responses(input: &[u8]) -> usize {
    input
        .split(|&b| b == b'\n')
        .filter(|line| !std::str::from_utf8(line).is_ok_and(|text| text.trim().is_empty()))
        .count()
}

/// Sends `input` as one or more frames, then the probe; checks every
/// response and that the probe is answered bit-identically.
fn assert_survives(input: &[u8]) {
    let fixture = fixture();
    let (mut stream, mut reader) = connect(fixture.addr);
    let mut others = Vec::new();
    let mut sent = stream
        .write_all(input)
        .and_then(|()| stream.write_all(b"\n"));
    if sent.is_ok() {
        sent = stream.write_all(probe_frame().as_bytes());
    }
    let answer = match sent
        .ok()
        .and_then(|()| read_until_probe(&mut reader, &mut others))
    {
        Some(answer) => {
            // Still open: the connection owes an answer for every frame.
            let owed = owed_responses(input);
            while others.len() < owed {
                let (id, _) = next_frame(&mut reader).unwrap_or_else(|| {
                    panic!(
                        "connection closed with {} of {owed} responses",
                        others.len()
                    )
                });
                others.push(id);
            }
            assert_eq!(others.len(), owed, "one response per non-blank frame");
            answer
        }
        None => {
            // Closed: whatever came back was well-formed. Ask again on a
            // fresh connection.
            let (mut stream, mut reader) = connect(fixture.addr);
            stream.write_all(probe_frame().as_bytes()).unwrap();
            read_until_probe(&mut reader, &mut Vec::new()).expect("a fresh connection answers")
        }
    };
    assert_eq!(
        answer.to_bits(),
        fixture.expected.to_bits(),
        "probe answer diverged from the direct engine after input {:?}",
        String::from_utf8_lossy(&input[..input.len().min(200)])
    );
}

/// Applies byte edits to `frame`: `(position, byte, op)` with op 0 =
/// replace, 1 = insert, 2 = delete.
fn mutate(mut frame: Vec<u8>, edits: &[(usize, u8, u8)]) -> Vec<u8> {
    for &(at, byte, op) in edits {
        let at = at % (frame.len() + 1);
        match op {
            0 if at < frame.len() => frame[at] = byte,
            1 => frame.insert(at, byte),
            _ if at < frame.len() => {
                frame.remove(at);
            }
            _ => frame.push(byte),
        }
    }
    frame
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_bytes_get_error_frames(bytes in proptest::collection::vec(0u8..=255, 0..600)) {
        assert_survives(&bytes);
    }

    #[test]
    fn random_text_gets_error_frames(bytes in proptest::collection::vec(0x20u8..0x7f, 1..300)) {
        // Printable ASCII: valid UTF-8, so the JSON parser sees all of it.
        assert_survives(&bytes);
    }

    #[test]
    fn truncated_frames_get_error_frames((i, cut) in (0usize..TEMPLATES.len(), 0usize..4096)) {
        let frame = template(i);
        let cut = cut % (frame.len() + 1);
        assert_survives(&frame[..cut]);
    }

    #[test]
    fn mutated_frames_are_answered_or_refused(
        (i, edits) in (
            0usize..TEMPLATES.len(),
            proptest::collection::vec((0usize..4096, 0u8..=255, 0u8..3), 1..=3),
        )
    ) {
        assert_survives(&mutate(template(i), &edits));
    }
}

#[test]
fn valid_frames_are_answered_and_the_probe_is_unmoved() {
    for i in 0..TEMPLATES.len() {
        assert_survives(&template(i));
    }
}

#[test]
fn deep_nesting_gets_an_error_frame() {
    for depth in [129, 10_000, MAX_FRAME_BYTES - 1] {
        assert_survives("[".repeat(depth).as_bytes());
        assert_survives("{\"a\": ".repeat(depth / 6).as_bytes());
        let nested_query = format!(
            r#"{{"id": 3, "kind": "boolean", "query": {}}}"#,
            "[".repeat(depth / 2)
        );
        assert_survives(nested_query.as_bytes());
    }
}

#[test]
fn oversized_frames_get_an_error_frame_and_a_clean_close() {
    let fixture = fixture();
    for oversized in [
        vec![b'['; MAX_FRAME_BYTES],
        format!(
            r#"{{"id": 1, "kind": "stats", "pad": "{}"}}"#,
            "x".repeat(MAX_FRAME_BYTES)
        )
        .into_bytes(),
    ] {
        let (mut stream, mut reader) = connect(fixture.addr);
        stream.write_all(&oversized).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let frame: Json = serde_json::from_str(&line).unwrap();
        let err = frame.get("err").expect("an error frame");
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("protocol"));
        let detail = err.get("detail").and_then(Json::as_str).unwrap();
        assert!(detail.contains("exceeds"), "{detail}");
        line.clear();
        assert_eq!(
            reader.read_line(&mut line).map_err(|e| e.kind()),
            Ok(0),
            "then a clean close"
        );
        assert_survives(&oversized);
    }
    // A frame of exactly the limit, newline included, is served.
    let mut frame = br#"{"id": 1, "kind": "stats"}"#.to_vec();
    frame.resize(MAX_FRAME_BYTES - 1, b' ');
    assert_survives(&frame);
}

#[test]
fn many_short_connections_keep_the_server_accepting() {
    // Each connection's thread exits when its client hangs up and is
    // reaped on a later accept; the server keeps accepting throughout.
    let fixture = fixture();
    for _ in 0..200 {
        let (mut stream, mut reader) = connect(fixture.addr);
        stream.write_all(b"garbage\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains(r#""err""#), "{line}");
        drop((stream, reader));
    }
    assert_survives(b"");
}
