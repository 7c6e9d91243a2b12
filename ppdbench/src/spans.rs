//! In-memory spans around the benchmark's calls into each layer.
//!
//! The traced run times nested public entry points for the same request —
//! `ground_query` inside the engine call inside `Service::submit → wait`
//! inside `WireClient::call` — as separate invocations on warm state. Each
//! span names its request and its parent (the next layer out), and a
//! layer's self time is its span minus its children's spans. Spans stay in
//! memory and are written out once the run ends.

use crate::report::{Report, Samples};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    request: u64,
    id: u64,
    /// The next layer out; 0 for the outermost span.
    parent: u64,
    layer: &'static str,
    entry: &'static str,
    start_us: f64,
    end_us: f64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next_id: u64,
    next_request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            next_id: 1,
            next_request: 1,
        }
    }
}

/// One request's chain of layers, innermost first: `(layer, entry point)`.
pub type Chain = &'static [(&'static str, &'static str)];

impl Tracer {
    /// Starts a request whose spans follow `chain`, innermost first. The
    /// ids are assigned up front so each span can name its parent before
    /// the parent runs.
    pub fn request(&mut self, chain: Chain) -> RequestSpans<'_> {
        let request = self.next_request;
        self.next_request += 1;
        let ids: Vec<u64> = (0..chain.len() as u64).map(|i| self.next_id + i).collect();
        self.next_id += chain.len() as u64;
        RequestSpans {
            tracer: self,
            request,
            chain,
            ids,
            level: 0,
        }
    }

    /// Reports what the spans show — each layer's self-time median (and the
    /// wire's tail), every layer's mean self time as a detail, and
    /// `obs.trace_coverage`: the summed mean self times over
    /// `traced_mean_ms`, the traced run's mean end-to-end latency — and
    /// writes the spans to `path`.
    pub fn report(&self, report: &mut Report, traced_mean_ms: f64, path: &Path) {
        let self_times = self.self_times();
        for (metric, layer) in [
            ("engine.self_ms_p50", "engine"),
            ("service.self_ms_p50", "service"),
            ("wire.self_ms_p50", "wire"),
        ] {
            if let Some(samples) = self_times.get(layer) {
                report.set(metric, samples.median());
            }
        }
        if let Some(wire) = self_times.get("wire") {
            report.set("wire.self_ms_tail", wire.tail().0);
        }
        let layer_sum: f64 = self_times.values().map(Samples::mean).sum();
        report.set("obs.trace_coverage", layer_sum / traced_mean_ms);
        for (layer, samples) in &self_times {
            report.detail(
                &format!("self_ms_mean.{layer}"),
                format!("{:.3}", samples.mean()),
            );
        }
        if let Err(e) = self.write(path) {
            report.detail("spans.write_error", e);
        }
    }

    /// Per layer, the self time (ms) of each of its spans: the span's
    /// duration minus its children's.
    fn self_times(&self) -> BTreeMap<&'static str, Samples> {
        let mut child_ms: BTreeMap<u64, f64> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.parent != 0) {
            *child_ms.entry(span.parent).or_default() += span.ms();
        }
        let mut out: BTreeMap<&'static str, Samples> = BTreeMap::new();
        for span in &self.spans {
            let own = span.ms() - child_ms.get(&span.id).copied().unwrap_or(0.0);
            out.entry(span.layer).or_default().push(own);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for s in &self.spans {
            let _ = writeln!(
                text,
                "{{\"request\": {}, \"id\": {}, \"parent\": {}, \"layer\": \"{}\", \"entry\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.request, s.id, s.parent, s.layer, s.entry, s.start_us, s.end_us
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// The spans of one request, recorded innermost first.
pub struct RequestSpans<'a> {
    tracer: &'a mut Tracer,
    request: u64,
    chain: Chain,
    ids: Vec<u64>,
    level: usize,
}

impl RequestSpans<'_> {
    /// Times the next layer of the chain.
    pub fn next<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let level = self.level;
        assert!(
            level < self.chain.len(),
            "request chain is shorter than its calls"
        );
        self.level += 1;
        let (layer, entry) = self.chain[level];
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let at = |t: Instant| t.duration_since(self.tracer.origin).as_secs_f64() * 1e6;
        let span = Span {
            request: self.request,
            id: self.ids[level],
            parent: self.ids.get(level + 1).copied().unwrap_or(0),
            layer,
            entry,
            start_us: at(start),
            end_us: at(end),
        };
        self.tracer.spans.push(span);
        out
    }

    /// Records `ms` of the span at chain `level` (already timed) as spent
    /// in `layer`: a child measured by the program's own instruments rather
    /// than by a call of its own, such as the solvers' share of a batch. It
    /// starts with its parent.
    pub fn record_inside(&mut self, level: usize, layer: &'static str, ms: f64) {
        let parent = self.ids[level];
        let start_us = self
            .tracer
            .spans
            .iter()
            .rev()
            .find(|s| s.id == parent)
            .map_or(0.0, |s| s.start_us);
        let id = self.tracer.next_id;
        self.tracer.next_id += 1;
        self.tracer.spans.push(Span {
            request: self.request,
            id,
            parent,
            layer,
            entry: "ppd_unit_solve_seconds",
            start_us,
            end_us: start_us + ms * 1e3,
        });
    }
}
