//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Spans are kept until the run ends and then written out as JSON
//! lines; nothing is recorded inside the program itself.
//!
//! A span's **self time** is its duration minus the time covered by its
//! children on the same thread. Children on other threads (a runner job
//! under the grid solve that spawned it) keep the causal link but are not
//! subtracted, so on every thread the self times of its spans add up to
//! the wall time of that thread's root spans — [`reconcile`] checks it.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the run (never 0).
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `core.step`.
    pub name: &'static str,
    /// Benchmark-assigned id of the recording thread.
    pub thread: u64,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has started and not yet ended.
#[derive(Debug)]
#[must_use = "an open span records nothing until closed"]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
}

impl Open {
    /// This span's id, for children to name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
}

fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    THREAD_ID.with(|id| {
        if id.get() == 0 {
            id.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        id.get()
    })
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Starts a span.
    pub fn open(&self, name: &'static str, parent: Option<u64>) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start: Instant::now(),
        }
    }

    /// Ends a span now; returns its duration in nanoseconds.
    pub fn close(&self, open: Open) -> u64 {
        let end = Instant::now();
        self.record(open, end)
    }

    /// Ends a span at `end`; returns its duration in nanoseconds.
    pub fn record(&self, open: Open, end: Instant) -> u64 {
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            thread: thread_id(),
            start_ns: crate::stats::nanos(open.start - self.epoch),
            end_ns: crate::stats::nanos(end - self.epoch),
        };
        let dur = span.dur_ns();
        self.spans.lock().expect("span store poisoned").push(span);
        dur
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Self time per span, keyed by span id.
fn self_by_id(spans: &[Span]) -> BTreeMap<u64, u64> {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut self_ns: BTreeMap<u64, u64> = spans.iter().map(|s| (s.id, s.dur_ns())).collect();
    for s in spans {
        let Some(parent) = s.parent.and_then(|p| by_id.get(&p)) else {
            continue;
        };
        if parent.thread == s.thread {
            let slot = self_ns.get_mut(&parent.id).expect("parent recorded");
            *slot = slot.saturating_sub(s.dur_ns());
        }
    }
    self_ns
}

/// Total self time per span name, in nanoseconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let self_ns = self_by_id(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += self_ns[&s.id];
    }
    out
}

/// Per thread: `(thread, Σ self time of its spans, Σ duration of its
/// root spans)`. A root is a span with no parent on the same thread. The
/// two sums agree exactly when every child lies inside its parent and
/// same-thread siblings do not overlap.
pub fn reconcile(spans: &[Span]) -> Vec<(u64, u64, u64)> {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let self_ns = self_by_id(spans);
    let mut per_thread: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let entry = per_thread.entry(s.thread).or_insert((0, 0));
        entry.0 += self_ns[&s.id];
        let same_thread_parent = s
            .parent
            .and_then(|p| by_id.get(&p))
            .is_some_and(|p| p.thread == s.thread);
        if !same_thread_parent {
            entry.1 += s.dur_ns();
        }
    }
    per_thread
        .into_iter()
        .map(|(t, (sum_self, roots))| (t, sum_self, roots))
        .collect()
}

/// Renders spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.name, s.thread, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, thread: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            thread,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_only_same_thread_children() {
        let spans = vec![
            span(1, None, 1, 0, 100),
            span(2, Some(1), 1, 10, 40),
            span(3, Some(1), 2, 5, 95), // another thread: not subtracted
            span(4, Some(3), 2, 10, 20),
        ];
        let s = self_by_id(&spans);
        assert_eq!(s[&1], 70);
        assert_eq!(s[&3], 80);
        assert_eq!(reconcile(&spans), vec![(1, 100, 100), (2, 90, 90)]);
    }
}
