//! Per-query traces: timestamped nested spans plus point events.
//!
//! Ownership model: the server creates one [`QueryTrace`] per traced
//! query, installs it on the executing thread with [`install_trace`], and
//! instrumentation sites anywhere in the engine attach spans with
//! [`span`] / [`span_with`] without knowing about the server. An interval
//! timed outside any span guard (the SQL front-end's parse and bind) is
//! recorded explicitly with [`QueryTrace::add_span`].
//!
//! Recording is a property of the installed handle, not of the process:
//! a site records iff a trace is installed on the thread it runs on.
//! With none installed every site costs one load of a const-initialised,
//! destructor-free thread-local flag — [`span`] and [`event`] return
//! before touching a clock or the heap — so a traced query on one thread
//! (or one server) never arms the sites another thread executes. The
//! global [`span_allocations`] counter only moves when a span actually
//! records, which is what the overhead regression test pins to zero.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Total spans ever allocated (recorded) process-wide. Used by the
/// overhead regression test: with no trace installed this must not move.
static SPAN_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Total spans recorded process-wide since start.
pub fn span_allocations() -> u64 {
    SPAN_ALLOCS.load(Ordering::Relaxed)
}

/// One recorded span: a named interval relative to the trace start.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Site name, e.g. `plan_cache`, `panel_sweep`.
    pub name: &'static str,
    /// Free-form detail, e.g. `hit`, `pairs=12 emitted=3`.
    pub detail: String,
    /// Start offset from the trace's start, in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth (0 = top-level lifecycle stage).
    pub depth: u16,
}

/// One point-in-time event (retry, injected fault, containment).
#[derive(Debug, Clone)]
pub struct EventRecord {
    /// Event name, e.g. `fault`, `retry`.
    pub name: &'static str,
    /// Free-form detail, e.g. the fault site label.
    pub detail: String,
    /// Offset from the trace's start, in nanoseconds.
    pub at_ns: u64,
}

#[derive(Debug)]
struct TraceInner {
    label: String,
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
    outcome: Option<String>,
    total_ns: u64,
    profile: Option<crate::profile::QueryProfile>,
}

/// A per-query trace: a shared, cloneable handle to the span list.
/// Created by the serving layer for each traced query; finished with the
/// query's outcome and retained in a bounded ring.
#[derive(Clone, Debug)]
pub struct QueryTrace {
    started: Instant,
    inner: Arc<Mutex<TraceInner>>,
}

impl QueryTrace {
    /// A new, empty trace labeled with the query's description.
    pub fn new(label: impl Into<String>) -> Self {
        QueryTrace {
            started: Instant::now(),
            inner: Arc::new(Mutex::new(TraceInner {
                label: label.into(),
                spans: Vec::new(),
                events: Vec::new(),
                outcome: None,
                total_ns: 0,
                profile: None,
            })),
        }
    }

    /// The instant this trace started (query admission into the server).
    pub fn started(&self) -> Instant {
        self.started
    }

    /// The query label supplied at creation.
    pub fn label(&self) -> String {
        self.lock().label.clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TraceInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.started).as_nanos() as u64
    }

    /// Explicitly records a span over an interval timed by the caller.
    pub fn add_span(
        &self,
        name: &'static str,
        detail: impl Into<String>,
        start: Instant,
        dur: Duration,
        depth: u16,
    ) {
        SPAN_ALLOCS.fetch_add(1, Ordering::Relaxed);
        let rec = SpanRecord {
            name,
            detail: detail.into(),
            start_ns: self.offset_ns(start),
            dur_ns: dur.as_nanos() as u64,
            depth,
        };
        self.lock().spans.push(rec);
    }

    /// Records a point event on this trace.
    pub fn add_event(&self, name: &'static str, detail: impl Into<String>) {
        let at_ns = self.offset_ns(Instant::now());
        self.lock().events.push(EventRecord {
            name,
            detail: detail.into(),
            at_ns,
        });
    }

    /// Marks the trace complete with an outcome (`ok` or an error label)
    /// and freezes the end-to-end duration. Idempotent: the first call
    /// wins.
    pub fn finish(&self, outcome: impl Into<String>) {
        let total = self.offset_ns(Instant::now());
        let mut inner = self.lock();
        if inner.outcome.is_none() {
            inner.outcome = Some(outcome.into());
            inner.total_ns = total;
        }
    }

    /// The recorded outcome, if [`QueryTrace::finish`] was called.
    pub fn outcome(&self) -> Option<String> {
        self.lock().outcome.clone()
    }

    /// Attaches a resource profile (set by the serving layer when the
    /// opt-in profiler is on). The first call wins, matching `finish`.
    pub fn set_profile(&self, profile: crate::profile::QueryProfile) {
        let mut inner = self.lock();
        if inner.profile.is_none() {
            inner.profile = Some(profile);
        }
    }

    /// The attached resource profile, if the profiler was on.
    pub fn profile(&self) -> Option<crate::profile::QueryProfile> {
        self.lock().profile
    }

    /// End-to-end duration in nanoseconds (0 until finished).
    pub fn total_ns(&self) -> u64 {
        self.lock().total_ns
    }

    /// Snapshot of recorded spans, in recording order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.lock().spans.clone()
    }

    /// Snapshot of recorded events, in recording order.
    pub fn events(&self) -> Vec<EventRecord> {
        self.lock().events.clone()
    }

    /// Renders the span tree EXPLAIN-ANALYZE-style: one line per span,
    /// indented by depth, ordered by start offset, with durations in
    /// milliseconds, and trailing events.
    pub fn render(&self) -> String {
        let inner = self.lock();
        let mut out = format!(
            "query `{}` — {:.3} ms total ({})\n",
            inner.label,
            inner.total_ns as f64 / 1e6,
            inner.outcome.as_deref().unwrap_or("in flight"),
        );
        let mut spans: Vec<&SpanRecord> = inner.spans.iter().collect();
        spans.sort_by_key(|s| (s.start_ns, s.depth));
        for s in spans {
            let indent = "  ".repeat(s.depth as usize + 1);
            let mut line = format!(
                "{indent}{:<24} {:>9.3} ms  @{:>9.3} ms",
                s.name,
                s.dur_ns as f64 / 1e6,
                s.start_ns as f64 / 1e6,
            );
            if !s.detail.is_empty() {
                line.push_str(&format!("  [{}]", s.detail));
            }
            out.push_str(&line);
            out.push('\n');
        }
        for e in &inner.events {
            out.push_str(&format!(
                "  ! {:<22} @{:>9.3} ms  [{}]\n",
                e.name,
                e.at_ns as f64 / 1e6,
                e.detail
            ));
        }
        if let Some(p) = &inner.profile {
            out.push_str(&format!("  profile: {p}\n"));
        }
        out
    }

    /// Sum of top-level (`depth == 0`) span durations — the attributed
    /// portion of the query's wall time.
    pub fn attributed_ns(&self) -> u64 {
        self.lock()
            .spans
            .iter()
            .filter(|s| s.depth == 0)
            .map(|s| s.dur_ns)
            .sum()
    }
}

thread_local! {
    /// Whether `CURRENT` holds a trace: the one load a disabled site pays.
    /// Kept apart from `CURRENT` because a `Cell<bool>` has no destructor,
    /// so reading it never registers thread-local teardown.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static CURRENT: RefCell<Option<QueryTrace>> = const { RefCell::new(None) };
    static DEPTH: Cell<u16> = const { Cell::new(0) };
}

/// Restores the previously installed trace on drop.
#[derive(Debug)]
pub struct TraceScope {
    prev: Option<QueryTrace>,
    prev_depth: u16,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        swap_current(self.prev.take());
        DEPTH.with(|d| d.set(self.prev_depth));
    }
}

/// Makes `trace` this thread's ambient trace and returns the one it
/// replaces — the only writer of `ARMED` and `CURRENT`, so the flag
/// cannot drift from the slot.
fn swap_current(trace: Option<QueryTrace>) -> Option<QueryTrace> {
    ARMED.with(|a| a.set(trace.is_some()));
    CURRENT.with(|c| c.replace(trace))
}

/// Installs `trace` as the current thread's ambient trace until the
/// returned guard drops (`None` clears it, isolating callees). Nested
/// installs restore the previous trace.
pub fn install_trace(trace: Option<&QueryTrace>) -> TraceScope {
    let prev = swap_current(trace.cloned());
    let prev_depth = DEPTH.with(|d| d.replace(0));
    TraceScope { prev, prev_depth }
}

/// The trace ambiently installed on this thread, if any.
pub fn current_trace() -> Option<QueryTrace> {
    if !ARMED.with(Cell::get) {
        return None;
    }
    CURRENT.with(|c| c.borrow().clone())
}

/// An in-flight span guard: records into the ambient trace on drop.
/// Inert (and allocation-free) when no trace is installed.
#[derive(Debug)]
pub struct Span(Option<ActiveSpan>);

#[derive(Debug)]
struct ActiveSpan {
    trace: QueryTrace,
    name: &'static str,
    detail: String,
    start: Instant,
    depth: u16,
}

impl Span {
    /// Replaces the span's detail (e.g. once a cache hit/miss is known).
    pub fn set_detail(&mut self, detail: impl Into<String>) {
        if let Some(a) = self.0.as_mut() {
            a.detail = detail.into();
        }
    }

    /// Whether this span will record (a trace was installed at open).
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(a) = self.0.take() {
            let dur = a.start.elapsed();
            DEPTH.with(|d| d.set(a.depth));
            let rec = SpanRecord {
                name: a.name,
                detail: a.detail,
                start_ns: a.trace.offset_ns(a.start),
                dur_ns: dur.as_nanos() as u64,
                depth: a.depth,
            };
            a.trace.lock().spans.push(rec);
        }
    }
}

/// Opens a span named `name` on the ambient trace. One thread-local flag
/// load when none is installed.
#[inline]
pub fn span(name: &'static str) -> Span {
    span_with(name, String::new)
}

/// Opens a span with a lazily computed detail string — the closure only
/// runs when the span will actually record.
#[inline]
pub fn span_with(name: &'static str, detail: impl FnOnce() -> String) -> Span {
    let Some(trace) = current_trace() else {
        return Span(None);
    };
    SPAN_ALLOCS.fetch_add(1, Ordering::Relaxed);
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    Span(Some(ActiveSpan {
        trace,
        name,
        detail: detail(),
        start: Instant::now(),
        depth,
    }))
}

/// Records a point event on the ambient trace (detail computed lazily).
/// One thread-local flag load when none is installed.
#[inline]
pub fn event(name: &'static str, detail: impl FnOnce() -> String) {
    if let Some(trace) = current_trace() {
        trace.add_event(name, detail());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sites_record_only_on_the_thread_a_trace_is_installed_on() {
        // Sibling tests trace on their own threads throughout; nothing
        // installed here means nothing records here.
        assert!(!span("stage").is_recording());
        let t = QueryTrace::new("q");
        let scope = install_trace(Some(&t));
        // `opened` holds the other thread back until this one has a span
        // open; `checked` holds that span open until the other has looked.
        let (opened, checked) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        std::thread::scope(|s| {
            s.spawn(|| {
                opened.wait();
                let recording = span("elsewhere").is_recording();
                let mut detail_ran = false;
                event("e", || {
                    detail_ran = true;
                    String::new()
                });
                checked.wait();
                assert!(!recording && !detail_ran);
            });
            let here = span("stage");
            opened.wait();
            checked.wait();
            assert!(here.is_recording());
        });
        drop(scope);
        assert!(!span("after").is_recording());
        assert_eq!(
            t.spans().iter().map(|s| s.name).collect::<Vec<_>>(),
            ["stage"]
        );
        assert!(t.events().is_empty());
    }

    #[test]
    fn spans_nest_and_record_depth() {
        let t = QueryTrace::new("nested");
        let scope = install_trace(Some(&t));
        {
            let _outer = span("outer");
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = span_with("inner", || "detail".into());
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        drop(scope);
        t.finish("ok");
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.detail, "detail");
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.dur_ns <= outer.dur_ns);
        assert!(outer.start_ns + outer.dur_ns <= t.total_ns());
        assert_eq!(t.outcome().as_deref(), Some("ok"));
    }

    #[test]
    fn install_is_scoped_and_restores() {
        let a = QueryTrace::new("a");
        let b = QueryTrace::new("b");
        let _sa = install_trace(Some(&a));
        {
            let _sb = install_trace(Some(&b));
            let _s = span("in_b");
        }
        let _s = span("in_a");
        drop(_s);
        assert_eq!(a.spans().len(), 1);
        assert_eq!(a.spans()[0].name, "in_a");
        assert_eq!(b.spans()[0].name, "in_b");
    }

    #[test]
    fn explicit_span_and_events() {
        let t = QueryTrace::new("statement");
        let start = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        t.add_span("sql_parse", "select", start, start.elapsed(), 0);
        t.add_event("fault", "admission");
        t.finish("transient");
        let spans = t.spans();
        assert_eq!(spans[0].name, "sql_parse");
        assert!(spans[0].dur_ns >= 1_000_000);
        assert_eq!(t.events()[0].name, "fault");
        let r = t.render();
        assert!(r.contains("sql_parse"), "{r}");
        assert!(r.contains("[select]"), "{r}");
        assert!(r.contains("fault"), "{r}");
        assert!(r.contains("transient"), "{r}");
    }

    #[test]
    fn attributed_sums_top_level_only() {
        let t = QueryTrace::new("sum");
        let now = Instant::now();
        t.add_span("a", "", now, Duration::from_nanos(100), 0);
        t.add_span("b", "", now, Duration::from_nanos(50), 1);
        t.add_span("c", "", now, Duration::from_nanos(25), 0);
        assert_eq!(t.attributed_ns(), 125);
    }
}
