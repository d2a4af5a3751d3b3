//! In-memory spans recorded around the harness's calls into each layer.
//!
//! A span has a name, start, end, an optional parent span and an optional
//! request id. Spans are buffered in memory (never written while a workload is
//! being measured) and written out as JSON lines when the run ends. A layer's
//! **self time** is its span's duration minus the part of that interval its
//! child spans cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id, unique within a tracer.
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `tcca.tensor_build`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Request id shared by all spans of one served request.
    pub request: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans; disabled tracers record nothing and cost one branch.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds from the tracer's epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserve a span id (so children can name their parent before it ends).
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Append an already-built span (ids from [`Tracer::next_id`]).
    pub fn push(&self, span: Span) {
        if self.enabled {
            self.spans.lock().expect("span buffer lock").push(span);
        }
    }

    /// Append many spans at once (per-thread buffers merged after a step).
    pub fn extend(&self, spans: Vec<Span>) {
        if self.enabled {
            self.spans.lock().expect("span buffer lock").extend(spans);
        }
    }

    /// Run `f` inside a span named `name` under `parent`; returns `f`'s value
    /// and the span id. With tracing off `f` runs untouched.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> (T, u64) {
        if !self.enabled {
            return (f(None), 0);
        }
        let id = self.next_id();
        let start = Instant::now();
        let out = f(Some(id));
        let end = Instant::now();
        self.push(Span {
            id,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            request: None,
        });
        (out, id)
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock").clone()
    }

    /// Durations (seconds) of every span named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span buffer lock")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span buffer lock").len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = self_times(&spans);
        for s in &spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"request\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.start_ns,
                s.end_ns,
                selfs.get(&s.id).copied().unwrap_or(0),
                s.request.map_or("null".to_string(), |r| r.to_string()),
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to its own (overlapping children are not double counted).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            start_ns: start,
            end_ns: end,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, 0, 100),
            // Two overlapping children covering [10, 50) and one disjoint [60, 70).
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50),
            span(4, Some(1), 60, 70),
            // A grandchild does not reduce the root's self time directly.
            span(5, Some(2), 12, 20),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 30 - 8);
        assert_eq!(selfs[&3], 20);
        assert_eq!(selfs[&5], 8);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = vec![span(1, None, 100, 200), span(2, Some(1), 50, 150)];
        assert_eq!(self_times(&spans)[&1], 50);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let (v, id) = t.span("a", None, |_| 7);
        assert_eq!((v, id), (7, 0));
        assert!(t.is_empty());
        let t = Tracer::new(true);
        let (_, outer) = t.span("outer", None, |p| t.span("inner", p, |_| ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(outer));
    }
}
