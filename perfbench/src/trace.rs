//! In-memory span recorder for the traced run.
//!
//! Every span comes from the benchmark's own code, wrapped around one
//! call into a layer's public function: name (`layer.call`), start,
//! end, parent span and a per-operation id shared by the spans of one
//! request. Spans stay in memory while the run measures and are written
//! out as JSON lines when it ends. A layer's *self time* is a span's
//! duration minus the part of it that its child spans cover.

use crate::json::{obj, Json};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a recorded span; `0` means "no parent".
pub type SpanId = u32;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `core.skim`.
    pub name: &'static str,
    /// Operation (request) the span belongs to.
    pub op: u64,
    /// This span's id (nonzero).
    pub id: SpanId,
    /// Enclosing span, or `0`.
    pub parent: SpanId,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU32,
    next_op: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            next_op: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// A fresh operation id.
    pub fn new_op(&self) -> u64 {
        // ordering: a unique-id counter; it publishes no other data.
        self.next_op.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// it can parent nested spans.
    pub fn timed<T>(
        &self,
        name: &'static str,
        op: u64,
        parent: SpanId,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        // ordering: a unique-id counter; it publishes no other data.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed();
        let out = f(id);
        let end = self.epoch.elapsed();
        let span = Span {
            name,
            op,
            id,
            parent,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        };
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking load thread")
            .push(span);
        out
    }

    /// Every span recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut all = self
            .spans
            .lock()
            .expect("span buffer poisoned by a panicking load thread")
            .clone();
        all.sort_by_key(|s| (s.start_ns, s.id));
        all
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let line = obj([
                ("name", Json::Str(s.name.to_string())),
                ("op", Json::Num(s.op as f64)),
                ("id", Json::Num(f64::from(s.id))),
                ("parent", Json::Num(f64::from(s.parent))),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Runs `f` in a span when tracing is on, or just runs it when off (the
/// untraced path pays one branch).
pub fn maybe<T>(rec: Option<&Recorder>, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(r) => r.timed(name, op, 0, |_| f()),
        None => f(),
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals, clipped to the span itself.
pub fn self_times(spans: &[Span]) -> Vec<(Span, u64)> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let dur = s.end_ns.saturating_sub(s.start_ns);
            (s.clone(), dur.saturating_sub(covered))
        })
        .collect()
}

/// Per-layer self-time ledger: for each span name, the self time of
/// every operation that recorded it (summed within the operation).
#[derive(Debug, Default)]
pub struct Ledger {
    per_op: BTreeMap<&'static str, BTreeMap<u64, u64>>,
    total: BTreeMap<&'static str, (u64, u64)>,
}

impl Ledger {
    /// Builds the ledger from recorded spans.
    pub fn from_spans(spans: &[Span]) -> Ledger {
        let mut ledger = Ledger::default();
        for (s, self_ns) in self_times(spans) {
            *ledger
                .per_op
                .entry(s.name)
                .or_default()
                .entry(s.op)
                .or_default() += self_ns;
            let t = ledger.total.entry(s.name).or_default();
            t.0 += self_ns;
            t.1 += 1;
        }
        ledger
    }

    /// Total self time of `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.total.get(name).map_or(0, |t| t.0)
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.total.get(name).map_or(0, |t| t.1)
    }

    /// Median over operations of the per-operation self time of `name`,
    /// in nanoseconds (`0.0` when no operation recorded it).
    pub fn median_op_ns(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .per_op
            .get(name)
            .map(|m| m.values().map(|&ns| ns as f64).collect())
            .unwrap_or_default();
        crate::stats::median(&v)
    }

    /// Layer totals as `(name, self ns, spans)`, largest first.
    pub fn rows(&self) -> Vec<(&'static str, u64, u64)> {
        let mut rows: Vec<_> = self.total.iter().map(|(n, t)| (*n, t.0, t.1)).collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: SpanId, parent: SpanId, start: u64, end: u64) -> Span {
        Span {
            name,
            op: 1,
            id,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        // Parent 0..100; children 10..40 and 30..50 overlap (union 40),
        // and a grandchild inside the first child is not the parent's.
        let spans = vec![
            span("p", 1, 0, 0, 100),
            span("c", 2, 1, 10, 40),
            span("c", 3, 1, 30, 50),
            span("g", 4, 2, 15, 20),
        ];
        let got: Vec<u64> = self_times(&spans).into_iter().map(|(_, t)| t).collect();
        assert_eq!(got, vec![60, 25, 20, 5]);
        let ledger = Ledger::from_spans(&spans);
        assert_eq!(ledger.total_ns("c"), 45);
        assert_eq!(ledger.count("c"), 2);
        assert_eq!(ledger.median_op_ns("p"), 60.0);
    }

    #[test]
    fn child_outside_parent_is_clipped() {
        let spans = vec![span("p", 1, 0, 10, 20), span("c", 2, 1, 5, 15)];
        assert_eq!(self_times(&spans)[0].1, 5);
    }

    #[test]
    fn recorder_nests_spans() {
        let rec = Recorder::default();
        let op = rec.new_op();
        rec.timed("outer", op, 0, |id| rec.timed("inner", op, id, |_| ()));
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
    }
}
