//! Span recording for the traced run. Spans are taken from the benchmark's
//! own files, around calls into each crate's public functions; the program
//! itself is not instrumented. They stay in memory until the run ends.

use lumos::common::timer::Stopwatch;

use crate::json::Value;

/// Where the timed code reports its layer boundaries. The untraced run
/// passes [`NoSpans`], which compiles to the bare call.
pub trait Spans {
    /// Runs `f` as one span named `name`; spans opened inside `f` become
    /// its children.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T;

    /// Records a count taken at the current boundary.
    fn count(&mut self, name: &'static str, value: f64);
}

/// Records nothing.
pub struct NoSpans;

impl Spans for NoSpans {
    #[inline(always)]
    fn span<T>(&mut self, _name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        f(self)
    }

    #[inline(always)]
    fn count(&mut self, _name: &'static str, _value: f64) {}
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Seconds on the tracer's monotonic clock.
    pub start_s: f64,
    pub end_s: f64,
    /// Index of the span this one ran inside.
    pub parent: Option<usize>,
    /// Spans of one replayed op share an id.
    pub op_id: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Keeps every span and count of one traced run.
pub struct Tracer {
    clock: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: Vec<(&'static str, u32, f64)>,
    op_id: u32,
}

impl Spans for Tracer {
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_s: self.clock.secs(),
            end_s: f64::NAN,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_s = self.clock.secs();
        out
    }

    fn count(&mut self, name: &'static str, value: f64) {
        self.counts.push((name, self.op_id, value));
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            clock: Stopwatch::started(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: Vec::new(),
            op_id: 0,
        }
    }

    /// Starts the next replayed op: later spans carry a fresh `op_id`.
    pub fn next_op(&mut self) -> u32 {
        self.op_id += 1;
        self.op_id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of every finished span named `name`, in recording order.
    pub fn secs_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Every count recorded under `name`, in recording order.
    pub fn counts_of(&self, name: &str) -> Vec<f64> {
        self.counts
            .iter()
            .filter(|(n, _, _)| *n == name)
            .map(|&(_, _, v)| v)
            .collect()
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_secs(&self, index: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(Span::secs)
            .sum();
        self.spans[index].secs() - children
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::obj([
                    ("name", Value::str(s.name)),
                    ("start_s", Value::Num(s.start_s)),
                    ("end_s", Value::Num(s.end_s)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Int(p as i64)),
                    ),
                    ("op_id", Value::Int(i64::from(s.op_id))),
                ])
            })
            .collect();
        let counts = self
            .counts
            .iter()
            .map(|&(name, op_id, value)| {
                Value::obj([
                    ("name", Value::str(name)),
                    ("op_id", Value::Int(i64::from(op_id))),
                    ("value", Value::Num(value)),
                ])
            })
            .collect();
        Value::obj([
            ("workload", Value::str(workload)),
            ("seed", Value::Int(seed as i64)),
            ("spans", Value::Arr(spans)),
            ("counts", Value::Arr(counts)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new();
        t.next_op();
        let out = t.span("op", |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
            t.span("b", |t| {
                t.count("b.items", 3.0);
                t.span("b.inner", |_| 5)
            })
        });
        assert_eq!(out, 5);
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [
                ("op", None),
                ("a", Some(0)),
                ("b", Some(0)),
                ("b.inner", Some(2))
            ]
        );
        assert!(t
            .spans()
            .iter()
            .all(|s| s.op_id == 1 && s.end_s >= s.start_s));
        assert!(t.secs_of("a")[0] >= 0.004);
        let op = &t.spans()[0];
        let kids = t.secs_of("a")[0] + t.secs_of("b")[0];
        assert!((t.self_secs(0) - (op.secs() - kids)).abs() < 1e-12);
        assert_eq!(t.counts_of("b.items"), [3.0]);
        assert!(t.counts_of("missing").is_empty());
    }

    #[test]
    fn no_spans_is_transparent() {
        let mut n = NoSpans;
        assert_eq!(n.span("x", |n| n.span("y", |_| 9)), 9);
        n.count("c", 1.0);
    }

    #[test]
    fn trace_document_round_trips() {
        let mut t = Tracer::new();
        t.next_op();
        t.span("op", |t| t.span("layer", |t| t.count("n", 2.0)));
        let doc = t.to_json("train_default", 2023);
        let back = Value::parse(&doc.render()).unwrap();
        assert_eq!(back, doc);
        let spans = back.get("spans").and_then(Value::as_arr).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent"), Some(&Value::Int(0)));
        assert_eq!(spans[0].get("parent"), Some(&Value::Null));
    }
}
