//! The benchmark's own span recorder: wall-clock spans around calls into
//! the crates' public functions, kept in memory and written out when the
//! run ends.
//!
//! Spans nest through the closures passed to [`Tracer::time`]; each
//! record names its parent, so a stage's self time is its duration minus
//! the part its children cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Stage name, `<layer>.<operation>`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
}

impl SpanRecord {
    /// Duration in seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Totals of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTotal {
    /// Number of spans.
    pub count: usize,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed duration minus the time covered by child spans, seconds.
    pub self_s: f64,
}

/// Records spans from a single thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<SpanRecord>>,
    open: RefCell<Vec<usize>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let parent = self.open.borrow().last().copied();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(SpanRecord {
                name,
                start_ns: nanos(self.origin.elapsed()),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = nanos(self.origin.elapsed());
        out
    }

    /// Per-name totals with self time.
    #[must_use]
    pub fn stage_totals(&self) -> BTreeMap<&'static str, StageTotal> {
        let spans = self.spans.borrow();
        let mut child_s = vec![0.0; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_s[p] += s.secs();
            }
        }
        let mut out: BTreeMap<&'static str, StageTotal> = BTreeMap::new();
        for (s, child) in spans.iter().zip(&child_s) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += s.secs();
            t.self_s += s.secs() - child;
        }
        out
    }

    /// Summed duration of every span named `name`, seconds.
    #[must_use]
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.secs())
    }

    /// Durations of every span named `name`, in milliseconds, in order.
    #[must_use]
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs() * 1e3)
            .collect()
    }

    /// Summed duration of the direct children of spans named `root`.
    #[must_use]
    pub fn children_total(&self, root: &str) -> f64 {
        let spans = self.spans.borrow();
        spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| spans[p].name == root))
            .fold(0.0, |acc, s| acc + s.secs())
    }

    /// The spans as JSON lines: name, start, end, parent.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }

    /// A human-readable stage table: count, total and self time per
    /// span name, largest total first.
    #[must_use]
    pub fn stage_table(&self) -> String {
        let mut rows: Vec<(&'static str, StageTotal)> = self.stage_totals().into_iter().collect();
        rows.sort_by(|a, b| b.1.total_s.total_cmp(&a.1.total_s));
        let mut out = format!(
            "{:<24} {:>7} {:>11} {:>11}\n",
            "stage", "count", "total_s", "self_s"
        );
        for (name, t) in rows {
            let _ = writeln!(
                out,
                "{name:<24} {:>7} {:>11.6} {:>11.6}",
                t.count, t.total_s, t.self_s
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_parents_and_self_time() {
        let t = Tracer::new();
        t.time("root", || {
            t.time("a", || std::thread::sleep(Duration::from_millis(2)));
            t.time("b", || t.time("c", || ()));
        });
        let spans = t.spans.borrow().clone();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        let totals = t.stage_totals();
        assert!(totals["root"].self_s <= totals["root"].total_s);
        assert!(t.children_total("root") >= totals["a"].total_s);
        assert_eq!(t.to_jsonl().lines().count(), 4);
    }
}
