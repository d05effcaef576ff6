//! In-memory span recorder for the traced run.
//!
//! The benchmark times calls into each layer's public functions from its
//! own code: the engine carries no instrumentation. A span is a name, a
//! start and an end (nanoseconds since the tracer was created), the span
//! that caused it and the op it belongs to, plus the work counts read at
//! that boundary. Spans stay in memory until the run ends and are then
//! written out as JSON lines.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    counts: Vec<(&'static str, f64)>,
}

/// Records spans for every op of a traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts less than 584 years")
    }

    /// Opens a span and returns its id.
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 * 1e-9
    }

    /// Attaches a work count to span `id`.
    pub fn count(&mut self, id: usize, key: &'static str, value: f64) {
        self.spans[id].counts.push((key, value));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one header line, then one JSON object per span.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 128);
        out.push_str(header);
        out.push('\n');
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"counts\":{{",
                s.op, s.name, s.start_ns, s.end_ns
            );
            for (i, (k, v)) in s.counts.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(out, "{sep}\"{k}\":{v}");
            }
            out.push_str("}}\n");
        }
        std::fs::write(path, out)
    }
}

/// Layer measurements of one traced op (or, summed, of one zoo sweep).
/// Times are seconds; sizes are bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerSample {
    pub plan_s: f64,
    /// `Plan::compute` with quotient and tier forced to the auto choice.
    pub plan_forced_s: f64,
    pub sampled_rows: f64,
    /// Planner-estimated edges over the explored configurations.
    pub est_edges: f64,
    pub quotient_build_s: f64,
    pub group_order: f64,
    pub explore_s: f64,
    pub configs: f64,
    pub edges: f64,
    pub edge_bytes: f64,
    pub resident_bytes: f64,
    pub spilled_bytes: f64,
    pub peak_resident_bytes: f64,
    pub reverse_s: f64,
    pub checker_s: f64,
    pub chain_s: f64,
    pub n_transient: f64,
    pub solve_s: f64,
    pub absorb_s: f64,
    pub sim_s: f64,
    pub sim_steps: f64,
}

impl std::ops::AddAssign for LayerSample {
    fn add_assign(&mut self, o: Self) {
        self.plan_s += o.plan_s;
        self.plan_forced_s += o.plan_forced_s;
        self.sampled_rows += o.sampled_rows;
        self.est_edges += o.est_edges;
        self.quotient_build_s += o.quotient_build_s;
        self.group_order += o.group_order;
        self.explore_s += o.explore_s;
        self.configs += o.configs;
        self.edges += o.edges;
        self.edge_bytes += o.edge_bytes;
        self.resident_bytes += o.resident_bytes;
        self.spilled_bytes += o.spilled_bytes;
        self.peak_resident_bytes += o.peak_resident_bytes;
        self.reverse_s += o.reverse_s;
        self.checker_s += o.checker_s;
        self.chain_s += o.chain_s;
        self.n_transient += o.n_transient;
        self.solve_s += o.solve_s;
        self.absorb_s += o.absorb_s;
        self.sim_s += o.sim_s;
        self.sim_steps += o.sim_steps;
    }
}

const MIB: f64 = (1u64 << 20) as f64;

impl LayerSample {
    /// The per-layer metrics of this sample, as `(name, unit, value)`.
    /// `trace.overhead` is added by the caller, which sees both runs.
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        vec![
            ("plan.s", "s", self.plan_s),
            ("plan.gate_s", "s", self.plan_s - self.plan_forced_s),
            ("plan.sampled_rows", "count", self.sampled_rows),
            ("plan.edge_est_ratio", "ratio", self.est_edges / self.edges),
            ("quotient.build_s", "s", self.quotient_build_s),
            ("quotient.group_order", "count", self.group_order),
            ("explore.s", "s", self.explore_s),
            ("explore.configs", "count", self.configs),
            ("explore.edges", "count", self.edges),
            (
                "explore.bytes_per_edge",
                "B/edge",
                self.edge_bytes / self.edges,
            ),
            ("store.resident_mb", "MiB", self.resident_bytes / MIB),
            ("store.spilled_mb", "MiB", self.spilled_bytes / MIB),
            (
                "store.peak_resident_mb",
                "MiB",
                self.peak_resident_bytes / MIB,
            ),
            ("reverse.s", "s", self.reverse_s),
            ("checker.s", "s", self.checker_s),
            ("markov.chain_s", "s", self.chain_s),
            ("markov.n_transient", "count", self.n_transient),
            ("markov.solve_s", "s", self.solve_s),
            ("markov.absorb_s", "s", self.absorb_s),
            ("sim.s", "s", self.sim_s),
            ("sim.steps", "count", self.sim_steps),
        ]
    }
}
