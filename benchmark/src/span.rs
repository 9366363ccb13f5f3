//! Spans recorded by the harness around its calls into each layer.
//!
//! Spans live in memory during a traced repeat and are written as JSONL
//! when the process ends. A span's self time is its duration minus the
//! part of that interval its children cover.

use std::io::{self, Write};

/// Index of a span inside a [`SpanLog`]; the parent link.
pub type SpanId = usize;

/// One timed call: `[start_ns, end_ns)` on the repeat's monotonic clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.manager.on_arrival`.
    pub name: &'static str,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<SpanId>,
    /// The arrival (workload id) the span belongs to, when it has one.
    pub arrival: Option<u64>,
}

/// An append-only list of spans.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Appends a span and returns its id.
    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Moves the end of an already-recorded span (a root is opened
    /// before its children and closed after them).
    pub fn close(&mut self, id: SpanId, end_ns: u64) {
        self.spans[id].end_ns = end_ns;
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in nanoseconds: duration minus the
    /// union of its direct children's intervals clipped to it.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if hi > lo {
                    children[p].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.name, s.start_ns, s.end_ns
            )?;
            match s.parent {
                Some(p) => write!(out, "{p}")?,
                None => write!(out, "null")?,
            }
            match s.arrival {
                Some(a) => writeln!(out, ",\"arrival\":{a}}}")?,
                None => writeln!(out, ",\"arrival\":null}}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            arrival: None,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let mut log = SpanLog::default();
        let root = log.push(span(0, 100, None));
        let a = log.push(span(10, 30, Some(root)));
        // Overlaps `a` on [20, 30): the union covers [10, 50), not 50 ns.
        log.push(span(20, 50, Some(root)));
        // Grandchild: counts against `a`, not the root.
        log.push(span(12, 18, Some(a)));
        // Sticks out past the root: clipped to [90, 100).
        log.push(span(90, 140, Some(root)));
        let own = log.self_times_ns();
        assert_eq!(own[root], 100 - 40 - 10);
        assert_eq!(own[a], 20 - 6);
        assert_eq!(own[2], 30);
        assert_eq!(own[3], 6);
    }

    #[test]
    fn self_times_of_a_partition_sum_to_the_root() {
        let mut log = SpanLog::default();
        let root = log.push(span(0, 1_000, None));
        for k in 0..10 {
            log.push(span(k * 100, k * 100 + 60, Some(root)));
        }
        let own = log.self_times_ns();
        assert_eq!(own.iter().sum::<u64>(), 1_000);
        assert_eq!(own[root], 400);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut log = SpanLog::default();
        let root = log.push(span(0, 9, None));
        log.push(Span {
            arrival: Some(7),
            ..span(1, 2, Some(root))
        });
        let mut out = Vec::new();
        log.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"parent\":null,\"arrival\":null"));
        assert!(text.contains("\"parent\":0,\"arrival\":7"));
    }
}
