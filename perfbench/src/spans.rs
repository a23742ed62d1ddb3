//! In-memory span recorder for the traced run.
//!
//! A span is `{name, start, end, parent, id}` around one call the
//! benchmark makes into a layer. Names are `<layer>.<what>`; the layer
//! prefix (`workloads`, `core`, `network`, `analysis`, `serve`, or
//! `bench` for the benchmark's own root spans) is what self time is
//! attributed to. When disabled, [`Tracer::span`] is a plain call: no
//! clock reads, no allocation.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Index into the span list.
    pub id: usize,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer this span's self time is charged to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder; single-threaded (every span is opened on the
/// benchmark's main thread around a blocking call).
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`; returns `f`'s result.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_id(name, f).0
    }

    /// [`span`](Self::span), also returning the span's id (`None` when
    /// tracing is off) so the caller can [`rename`](Self::rename) it once
    /// the call reveals which layer did the work.
    pub fn span_id<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Option<usize>) {
        if !self.on {
            return (f(), None);
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                id,
            });
            id
        };
        self.open.borrow_mut().push(id);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[id].start_ns = start;
        spans[id].end_ns = end;
        (out, Some(id))
    }

    /// Rename a recorded span (no-op for `None`).
    pub fn rename(&self, id: Option<usize>, name: &'static str) {
        if let Some(id) = id {
            self.spans.borrow_mut()[id].name = name;
        }
    }

    /// All spans recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Self time (span duration minus the time its direct children
    /// cover) of `root` and every span under it, summed per layer, in
    /// nanoseconds.
    pub fn self_ns_by_layer(&self, root: usize) -> BTreeMap<&'static str, u64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        let mut inside = vec![false; spans.len()];
        // Parents are always recorded before their children, so one
        // forward sweep settles membership.
        for s in spans.iter() {
            inside[s.id] = s.id == root || s.parent.is_some_and(|p| inside[p]);
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for s in spans.iter().filter(|s| inside[s.id]) {
            *out.entry(s.layer()).or_insert(0) += s.dur_ns().saturating_sub(child_ns[s.id]);
        }
        out
    }

    /// Total duration and call count of spans named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.dur_ns(), n + 1))
    }

    /// Share (%) of span `root`'s duration covered by its direct
    /// children.
    pub fn coverage_pct(&self, root: usize) -> f64 {
        let spans = self.spans.borrow();
        let covered: u64 = spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(Span::dur_ns)
            .sum();
        100.0 * covered as f64 / spans[root].dur_ns().max(1) as f64
    }

    /// The spans as a JSON array (written at exit by the traced run).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i == 0 { "" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            );
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        t.span("bench.root", || {
            t.span("core.a", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("network.b", || ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        let by = t.self_ns_by_layer(0);
        assert!(by["core"] >= 2_000_000);
        assert!(by["bench"] < spans[0].dur_ns());
        assert!(t.coverage_pct(0) > 50.0);
        assert!(t.to_json().contains("\"name\":\"core.a\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("core.a", || 7), 7);
        assert!(t.spans().is_empty());
    }
}
