//! In-memory span recorder for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer's
//! public function. Spans stay in memory until the run ends, then derive
//! per-layer self times and are written out as Chrome trace-event JSON
//! (wall clock only), which Perfetto and `chrome://tracing` open.
//!
//! Naming convention: a layer span is named `<layer>.<call>` (for example
//! `tpusim.invoke`); a span without a dot is the benchmark's own grouping
//! (`rep`, `request`, `setup`) and never counts as layer time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call: name, start and end in nanoseconds since the
/// tracer's epoch, and the span that was open when it began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>` for layer spans, a bare word for harness spans.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to (the text before the first dot), or
    /// `None` for the benchmark's own spans.
    pub fn layer(&self) -> Option<&'static str> {
        self.name.split_once('.').map(|(layer, _)| layer)
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Records nested spans from one thread of control. It is `Sync` only so
/// it can sit behind the `hdc::Executor` trait object the training loop
/// takes; the benchmark drives every traced call from its main thread.
pub struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// the span's index.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, usize) {
        let id = {
            let mut st = self.state.lock().expect("tracer lock poisoned");
            let id = st.spans.len();
            let parent = st.open.last().copied();
            let start_ns = self.now_ns();
            st.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            st.open.push(id);
            id
        };
        let out = f();
        let end_ns = self.now_ns();
        let mut st = self.state.lock().expect("tracer lock poisoned");
        st.spans[id].end_ns = end_ns;
        let closed = st.open.pop();
        debug_assert_eq!(closed, Some(id), "spans close in LIFO order");
        (out, id)
    }

    /// [`Tracer::span`] without the index.
    pub fn run<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, f).0
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.state
            .lock()
            .expect("tracer lock poisoned")
            .spans
            .clone()
    }
}

/// Indices of every span below `root` (children, grandchildren, ...).
pub fn descendants(spans: &[Span], root: usize) -> Vec<usize> {
    let mut out = Vec::new();
    for (i, s) in spans.iter().enumerate().skip(root + 1) {
        let mut p = s.parent;
        while let Some(q) = p {
            if q == root {
                out.push(i);
                break;
            }
            p = spans[q].parent;
        }
    }
    out
}

/// Total length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// A span's self time: its duration minus the part of it that its direct
/// children cover.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let me = &spans[id];
    let children = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    me.dur_ns() - covered_ns(children, me.start_ns, me.end_ns)
}

/// Self time in seconds of every span name below `root`, summed per name.
pub fn self_seconds_by_name(spans: &[Span], root: usize) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for i in descendants(spans, root) {
        *out.entry(spans[i].name).or_insert(0.0) += self_time_ns(spans, i) as f64 * 1e-9;
    }
    out
}

/// The share of `root`'s wall time that layer spans below it account for
/// (the union of their intervals, so nested layer spans count once).
pub fn layer_coverage(spans: &[Span], root: usize) -> f64 {
    let r = &spans[root];
    if r.dur_ns() == 0 {
        return 1.0;
    }
    let layer_intervals = descendants(spans, root)
        .into_iter()
        .filter(|&i| spans[i].layer().is_some())
        .map(|i| (spans[i].start_ns, spans[i].end_ns))
        .collect();
    covered_ns(layer_intervals, r.start_ns, r.end_ns) as f64 / r.dur_ns() as f64
}

/// Chrome trace-event JSON ("X" complete events, microseconds, wall clock
/// only): `cat` is the span's layer (`bench` for the benchmark's own
/// spans) and `args.parent` names the enclosing span.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("", |p| spans[p].name);
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":\"{}\"}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            s.layer().unwrap_or("bench"),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            i,
            parent
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    /// rep [0, 100): hdc.encode [10, 40) with tpusim.invoke [15, 35)
    /// inside it, hdc.update [50, 90), and harness gaps elsewhere.
    fn tree() -> Vec<Span> {
        vec![
            span("rep", 0, 100, None),
            span("hdc.encode", 10, 40, Some(0)),
            span("tpusim.invoke", 15, 35, Some(1)),
            span("hdc.update", 50, 90, Some(0)),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = tree();
        assert_eq!(self_time_ns(&t, 0), 100 - 30 - 40);
        assert_eq!(self_time_ns(&t, 1), 30 - 20);
        assert_eq!(self_time_ns(&t, 2), 20);
        assert_eq!(self_time_ns(&t, 3), 40);
        // Self times partition the root's wall time.
        let total: u64 = (0..t.len()).map(|i| self_time_ns(&t, i)).sum();
        assert_eq!(total, t[0].dur_ns());
    }

    #[test]
    fn overlapping_children_are_not_double_subtracted() {
        let t = vec![
            span("request", 0, 100, None),
            span("a.x", 0, 60, Some(0)),
            span("a.y", 40, 80, Some(0)),
        ];
        assert_eq!(self_time_ns(&t, 0), 20);
    }

    #[test]
    fn self_seconds_aggregate_per_name() {
        let mut t = tree();
        t.push(span("hdc.update", 92, 98, Some(0)));
        let by_name = self_seconds_by_name(&t, 0);
        assert!((by_name["hdc.update"] - 46e-9).abs() < 1e-18);
        assert!((by_name["hdc.encode"] - 10e-9).abs() < 1e-18);
        assert!(
            !by_name.contains_key("rep"),
            "root is not its own descendant"
        );
    }

    #[test]
    fn coverage_counts_nested_layer_spans_once() {
        let t = tree();
        // Layer spans cover [10, 40) and [50, 90): 70 of 100 ns.
        assert!((layer_coverage(&t, 0) - 0.70).abs() < 1e-12);
    }

    #[test]
    fn coverage_ignores_harness_spans_but_sees_layers_inside_them() {
        let t = vec![
            span("rep", 0, 100, None),
            span("train", 0, 80, Some(0)),
            span("nn.compile", 0, 30, Some(1)),
            span("tpusim.invoke", 30, 76, Some(1)),
            span("hdc.predict", 80, 99, Some(0)),
        ];
        assert!((layer_coverage(&t, 0) - 0.95).abs() < 1e-12);
        assert_eq!(descendants(&t, 1), vec![2, 3]);
    }

    #[test]
    fn tracer_records_nesting_and_chrome_json() {
        let tracer = Tracer::default();
        let (v, root) = tracer.span("rep", || tracer.run("hdc.encode", || 7));
        assert_eq!(v, 7);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = chrome_json(&spans);
        assert!(json.contains("\"name\":\"hdc.encode\",\"cat\":\"hdc\",\"ph\":\"X\""));
        assert!(json.contains("\"cat\":\"bench\""));
        assert!(json.contains("\"parent\":\"rep\""));
    }
}
