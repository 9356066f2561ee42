//! Outside-in tracing: one span per public call, kept in memory and written
//! out when the run ends. A span's self time is its duration minus the part
//! covered by its child spans; a flow's root span therefore holds exactly the
//! time that no layer span accounts for.

use crate::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the root span of every traced flow.
pub const FLOW: &str = "flow";

struct Span {
    name: &'static str,
    flow: usize,
    parent: Option<usize>,
    start_ns: u128,
    end_ns: u128,
}

/// In-memory span recorder plus the per-layer counters read at the same
/// boundaries.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    flow: usize,
    flows: Vec<String>,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            flow: 0,
            flows: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u128 {
        self.origin.elapsed().as_nanos()
    }

    /// Runs `f` as a new flow whose root span is named [`FLOW`].
    pub fn flow<T>(&mut self, label: String, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.flow = self.flows.len();
        self.flows.push(label);
        self.span(FLOW, f)
    }

    /// Runs `f` inside a span named `name`, child of the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            flow: self.flow,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Adds `value` to the counter `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        *self.counters.entry(name).or_insert(0.0) += value;
    }

    pub fn counters(&self) -> &BTreeMap<&'static str, f64> {
        &self.counters
    }

    fn self_ns(&self) -> Vec<u128> {
        let mut child = vec![0u128; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Self time in ms summed per span name; the [`FLOW`] entry is the
    /// unaccounted time.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.name).or_insert(0.0) += ns as f64 / 1e6;
        }
        out
    }

    /// Total duration of every flow's root span, in ms.
    pub fn flow_wall_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Checks, flow by flow, that the self times of its spans add up to its
    /// root span's duration. Returns the largest mismatch in ns.
    pub fn accounting_error_ns(&self) -> u128 {
        let selfs = self.self_ns();
        let mut sums = vec![0u128; self.flows.len()];
        for (s, ns) in self.spans.iter().zip(&selfs) {
            sums[s.flow] += ns;
        }
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns).abs_diff(sums[s.flow]))
            .max()
            .unwrap_or(0)
    }

    /// The spans as JSON lines: name, flow id and label, parent, start, end.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let label = Json::str(self.flows[s.flow].clone()).render();
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"flow\":{},\"flow_label\":{label},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.flow, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_flow_wall() {
        let mut t = Tracer::new();
        t.flow("a".into(), |t| {
            t.span("x", |t| {
                t.span("y", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
            t.span("z", |_| ());
        });
        t.flow("b".into(), |t| t.span("x", |_| ()));
        assert_eq!(t.accounting_error_ns(), 0);
        let by_name = t.self_ms_by_name();
        let total: f64 = by_name.values().sum();
        assert!((total - t.flow_wall_ms()).abs() < 1e-6);
        assert!(by_name["y"] >= 2.0);
    }
}
