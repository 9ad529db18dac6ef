//! Spans recorded by the harness around its calls into each layer.
//!
//! The spans live in memory and are written as JSON lines when the run
//! ends. Server-side phases are not observed directly: they become child
//! spans laid out from the `PhaseBreakdown` a reply carries (`reported`).

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans kept per run; later ones are counted but dropped, so a fast
/// workload cannot grow the trace without bound.
const MAX_SPANS: usize = 400_000;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// The operation this span belongs to (all spans of one op share it).
    pub op: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Laid out from times the server reported, not observed by the harness.
    pub reported: bool,
    /// On the op's blocking path: of the two concurrent replica legs, only
    /// the one that finished last (and its children) is.
    pub critical: bool,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    pub fn micros(&self, at: Instant) -> f64 {
        at.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a finished span and returns its id for children to name.
    pub fn record(&mut self, span: Span) -> u32 {
        let id = self.spans.len() as u32 + self.dropped as u32;
        if self.spans.len() < MAX_SPANS {
            self.spans.push(Span { id, ..span });
        } else {
            self.dropped += 1;
        }
        id
    }

    /// Sets the end of a span recorded before its children (an op is
    /// recorded first so that its children can name it as their parent).
    pub fn close(&mut self, id: u32, end_us: f64) {
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_us = end_us;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_us\":{:.3},\
                 \"end_us\":{:.3},\"reported\":{},\"critical\":{}}}",
                s.id, s.op, s.name, s.start_us, s.end_us, s.reported, s.critical
            )?;
        }
        if self.dropped > 0 {
            writeln!(out, "{{\"dropped_spans\":{}}}", self.dropped)?;
        }
        out.flush()
    }
}

/// Each span's self time in microseconds, in `spans` order: its duration
/// minus the part of its interval that its child spans cover (children are
/// clipped to the parent and overlapping children count once).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: BTreeMap<u32, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0.0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut edge = s.start_us;
                for &(start, end) in kids.iter() {
                    let start = start.max(edge);
                    let end = end.min(s.end_us);
                    if end > start {
                        covered += end - start;
                        edge = end;
                    }
                }
            }
            s.duration_us() - covered
        })
        .collect()
}

/// Mean self time per op of every span name on the blocking path of the
/// ops whose root span is named `root`, in milliseconds, plus those ops'
/// mean duration. The parts sum to the whole: that is the ledger.
pub fn ledger_ms(spans: &[Span], root: &str) -> (BTreeMap<&'static str, f64>, f64) {
    let ops: BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == root)
        .map(|s| s.op)
        .collect();
    let critical: Vec<Span> = spans
        .iter()
        .filter(|s| s.critical && ops.contains(&s.op))
        .cloned()
        .collect();
    let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut op_total = 0.0;
    if ops.is_empty() {
        return (by_name, 0.0);
    }
    let per_op = 1.0 / 1e3 / ops.len() as f64;
    for (span, self_us) in critical.iter().zip(self_times_us(&critical)) {
        *by_name.entry(span.name).or_default() += self_us * per_op;
        if span.parent.is_none() {
            op_total += span.duration_us() * per_op;
        }
    }
    (by_name, op_total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name,
            start_us: start,
            end_us: end,
            reported: false,
            critical: true,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        let spans = vec![
            span(0, None, "op", 0.0, 100.0),
            // Two overlapping children cover 10..60 once, not twice.
            span(1, Some(0), "a", 10.0, 50.0),
            span(2, Some(0), "b", 30.0, 60.0),
            // A child that overruns its parent is clipped at 100.
            span(3, Some(0), "c", 90.0, 120.0),
            span(4, Some(1), "a.inner", 10.0, 25.0),
        ];
        let own = self_times_us(&spans);
        assert_eq!(own[0], 100.0 - 50.0 - 10.0);
        assert_eq!(own[1], 40.0 - 15.0);
        assert_eq!(own[2], 30.0);
        assert_eq!(own[4], 15.0);
    }

    #[test]
    fn ledger_parts_sum_to_the_op_and_skip_the_faster_leg() {
        let mut spans = vec![
            span(0, None, "query", 0.0, 1000.0),
            span(1, Some(0), "keygen", 0.0, 200.0),
            span(2, Some(0), "leg", 200.0, 900.0),
            span(3, Some(2), "server", 300.0, 800.0),
            span(4, Some(0), "leg", 210.0, 700.0),
        ];
        spans[4].critical = false;
        // Another kind of op in the same trace stays out of this ledger.
        spans.push(Span {
            op: 1,
            ..span(5, None, "update", 1000.0, 5000.0)
        });
        let (ledger, op_ms) = ledger_ms(&spans, "query");
        assert_eq!(op_ms, 1.0);
        assert_eq!(ledger["keygen"], 0.2);
        assert_eq!(ledger["leg"], 0.2);
        assert_eq!(ledger["server"], 0.5);
        assert!((ledger.values().sum::<f64>() - op_ms).abs() < 1e-12);
    }

    #[test]
    fn tracer_hands_out_ids_children_can_name() {
        let mut tracer = Tracer::new();
        let parent = tracer.record(span(99, None, "op", 0.0, 5.0));
        let child = tracer.record(span(99, Some(parent), "keygen", 1.0, 2.0));
        assert_eq!((parent, child), (0, 1));
        assert_eq!(tracer.spans()[1].parent, Some(0));
    }
}
