//! Request-scoped trace contexts: `TraceId`/`SpanId`/parent propagation for
//! the [`crate::span!`] tracer.
//!
//! The flat span table answers "how much time went to `kernel.spmm`"; it
//! cannot answer "what did *this* explain request spend per stage". A
//! **trace** is one request-shaped unit of work: [`request`] opens a root
//! span with a fresh [`TraceId`], every `span!` guard that opens while a
//! trace is active on the thread becomes a child [`SpanEvent`] with its
//! parent's [`SpanId`], and the completed events reconstruct the tree.
//!
//! **Cross-thread propagation.** Contexts are thread-local; a scoped worker
//! (e.g. `ses_tensor::par::run_tasks`) captures [`current`] on the
//! submitting thread and calls [`TraceContext::adopt`] inside the worker
//! closure, so kernel spans land in the submitting request's tree even when
//! they run on another thread — including the serial replay after a worker
//! panic (`run_isolated`), whose guards simply drop during unwind and leave
//! the context balanced.
//!
//! Identifiers come from process-wide atomic counters, not randomness: the
//! workspace bans unseeded RNGs (`no-thread-rng`), ids only need process
//! uniqueness, and monotone ids make test assertions deterministic.
//!
//! Completed events go to a bounded global buffer (capacity
//! [`EVENT_CAP`]; overflow increments `trace.dropped` rather than growing
//! without bound). Export drains it into Chrome trace-event JSON (see
//! [`crate::export`]).

use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::sync::OnceLock;

use crate::sync::{AtomicU32, AtomicU64, Mutex};
use std::time::Instant;

/// Process-unique id of one request-shaped unit of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Process-unique id of one span occurrence within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// Root marker: a [`SpanEvent`] whose `parent` is `NO_PARENT` is the trace
/// root.
pub const NO_PARENT: u64 = 0;

/// Completed-event buffer capacity; overflow is counted, not stored.
pub const EVENT_CAP: usize = 1 << 16;

static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

thread_local! {
    /// Active context on this thread: `(trace_id, current_span_id)`.
    static CURRENT: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
    /// Small dense id for Chrome `tid` fields (thread ids are opaque).
    static THREAD_IX: Cell<u32> = const { Cell::new(0) };
}

/// Dense 1-based index of the calling thread, assigned on first use.
pub fn thread_index() -> u32 {
    THREAD_IX.with(|t| {
        let mut ix = t.get();
        if ix == 0 {
            ix = NEXT_THREAD.fetch_add(1, Ordering::Relaxed); // ordering: dense id allocation; uniqueness via the RMW alone
            t.set(ix);
        }
        ix
    })
}

/// One completed span occurrence inside a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    pub trace: u64,
    pub span: u64,
    /// Parent span id, or [`NO_PARENT`] for the trace root.
    pub parent: u64,
    pub name: &'static str,
    /// Start offset from process start, microseconds.
    pub start_us: u64,
    pub dur_ns: u64,
    /// Dense index of the recording thread (Chrome `tid`).
    pub tid: u32,
}

fn events() -> &'static Mutex<Vec<SpanEvent>> {
    static EVENTS: OnceLock<Mutex<Vec<SpanEvent>>> = OnceLock::new();
    EVENTS.get_or_init(|| Mutex::new(Vec::new()))
}

fn push_event(ev: SpanEvent) {
    let mut buf = events().lock().unwrap_or_else(|e| e.into_inner());
    if buf.len() < EVENT_CAP {
        buf.push(ev);
    } else {
        drop(buf);
        crate::metrics::TRACE_DROPPED.incr();
    }
}

/// Copy of all completed events recorded so far (non-draining, so
/// concurrent tests filtering by trace id don't steal each other's events).
pub fn events_snapshot() -> Vec<SpanEvent> {
    events().lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Drains and returns all completed events (exporters).
pub fn take_events() -> Vec<SpanEvent> {
    std::mem::take(&mut *events().lock().unwrap_or_else(|e| e.into_inner()))
}

/// Clears the completed-event buffer.
pub fn reset_events() {
    events().lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// A capturable handle to the calling thread's active trace position, for
/// handing work to another thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    trace: u64,
    parent: u64,
}

/// The calling thread's active context, if a trace is open.
pub fn current() -> Option<TraceContext> {
    CURRENT
        .with(Cell::get)
        .map(|(trace, parent)| TraceContext { trace, parent })
}

impl TraceContext {
    pub fn trace_id(&self) -> TraceId {
        TraceId(self.trace)
    }

    /// Installs this context on the calling thread for the guard's
    /// lifetime; spans opened meanwhile become children of the captured
    /// position. The previous context (normally `None` on a fresh worker)
    /// is restored on drop.
    pub fn adopt(self) -> AdoptGuard {
        let prev = CURRENT.with(|c| c.replace(Some((self.trace, self.parent))));
        AdoptGuard { prev }
    }
}

/// RAII guard restoring the pre-[`TraceContext::adopt`] context.
pub struct AdoptGuard {
    prev: Option<(u64, u64)>,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Frame carried by a `span!` guard while a trace is active (crate-private:
/// only `spans::span` opens child frames).
pub(crate) struct Frame {
    trace: u64,
    span: u64,
    parent: u64,
}

/// Allocates a child span under the thread's active context, making it
/// current. Returns `None` (and records nothing) outside a trace.
pub(crate) fn enter_span() -> Option<Frame> {
    CURRENT.with(|c| {
        c.get().map(|(trace, parent)| {
            let span = NEXT_SPAN.fetch_add(1, Ordering::Relaxed); // ordering: dense id allocation; uniqueness via the RMW alone
            c.set(Some((trace, span)));
            Frame {
                trace,
                span,
                parent,
            }
        })
    })
}

/// Completes a child span: restores the parent context and buffers the
/// event.
pub(crate) fn exit_span(frame: Frame, name: &'static str, start: Instant, dur_ns: u64) {
    CURRENT.with(|c| c.set(Some((frame.trace, frame.parent))));
    crate::metrics::TRACE_SPANS.incr();
    push_event(SpanEvent {
        trace: frame.trace,
        span: frame.span,
        parent: frame.parent,
        name,
        start_us: crate::record::since_start_us(start),
        dur_ns,
        tid: thread_index(),
    });
}

/// Live state of an open request: its ids plus the context it displaced.
#[derive(Clone, Copy)]
struct OpenRequest {
    trace: u64,
    root_span: u64,
    saved: Option<(u64, u64)>,
}

/// RAII guard for one request-shaped trace; see [`request`].
pub struct RequestGuard {
    name: &'static str,
    /// `None` when tracing was off at open.
    frame: Option<OpenRequest>,
    start: Instant,
}

/// Opens a new trace with `name` as its root span on the calling thread.
/// Inert when telemetry is disabled. Nested requests are permitted (the
/// outer context is restored on drop) but each gets an independent trace.
pub fn request(name: &'static str) -> RequestGuard {
    if !crate::enabled() {
        return RequestGuard {
            name,
            frame: None,
            start: Instant::now(),
        };
    }
    let trace = NEXT_TRACE.fetch_add(1, Ordering::Relaxed); // ordering: dense id allocation; uniqueness via the RMW alone
    let span = NEXT_SPAN.fetch_add(1, Ordering::Relaxed); // ordering: dense id allocation; uniqueness via the RMW alone
    let prev = CURRENT.with(|c| c.replace(Some((trace, span))));
    RequestGuard {
        name,
        frame: Some(OpenRequest {
            trace,
            root_span: span,
            saved: prev,
        }),
        start: Instant::now(),
    }
}

impl RequestGuard {
    /// This request's trace id (`None` when tracing was off at open).
    pub fn trace_id(&self) -> Option<TraceId> {
        self.frame.map(|f| TraceId(f.trace))
    }

    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Drop for RequestGuard {
    fn drop(&mut self) {
        let Some(open) = self.frame else {
            return;
        };
        let dur_ns = self.elapsed_ns();
        CURRENT.with(|c| c.set(open.saved));
        crate::metrics::TRACE_REQUESTS.incr();
        push_event(SpanEvent {
            trace: open.trace,
            span: open.root_span,
            parent: NO_PARENT,
            name: self.name,
            start_us: crate::record::since_start_us(self.start),
            dur_ns,
            tid: thread_index(),
        });
    }
}

/// Tree-shape check used by tests and `obs-validate`: the events of `trace`
/// form exactly one root and every non-root parent id resolves to another
/// event of the same trace (no orphan spans).
pub fn is_well_formed_tree(events: &[SpanEvent], trace: TraceId) -> bool {
    let ours: Vec<&SpanEvent> = events.iter().filter(|e| e.trace == trace.0).collect();
    if ours.is_empty() {
        return false;
    }
    let mut ids = std::collections::BTreeSet::new();
    for e in &ours {
        if !ids.insert(e.span) {
            return false; // duplicate span id
        }
    }
    let mut roots = 0;
    for e in &ours {
        if e.parent == NO_PARENT {
            roots += 1;
        } else if !ids.contains(&e.parent) {
            return false; // orphan: parent never completed in this trace
        }
    }
    roots == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_records_root_and_children() {
        let _obs = crate::force_enabled(true);
        let trace;
        {
            let req = request("test.request");
            trace = req.trace_id().expect("tracing on");
            let _outer = crate::spans::span("test.req_outer");
            let _inner = crate::spans::span("test.req_inner");
        }
        let events = events_snapshot();
        assert!(is_well_formed_tree(&events, trace));
        let ours: Vec<_> = events.iter().filter(|e| e.trace == trace.0).collect();
        assert_eq!(ours.len(), 3);
        let root = ours.iter().find(|e| e.parent == NO_PARENT).unwrap();
        assert_eq!(root.name, "test.request");
        let outer = ours.iter().find(|e| e.name == "test.req_outer").unwrap();
        let inner = ours.iter().find(|e| e.name == "test.req_inner").unwrap();
        assert_eq!(outer.parent, root.span);
        assert_eq!(inner.parent, outer.span);
    }

    #[test]
    fn spans_outside_a_request_record_no_events() {
        let _obs = crate::force_enabled(true);
        {
            let _g = crate::spans::span("test.untraced");
        }
        let after = events_snapshot();
        assert!(
            after.iter().all(|e| e.name != "test.untraced"),
            "span without an active trace must not buffer events"
        );
    }

    #[test]
    fn disabled_request_is_inert() {
        let _obs = crate::force_enabled(false);
        let req = request("test.request_off");
        assert!(req.trace_id().is_none());
        assert!(current().is_none());
        drop(req);
    }

    #[test]
    fn adoption_links_worker_spans_to_submitting_trace() {
        let _obs = crate::force_enabled(true);
        let trace;
        {
            let req = request("test.adopt_request");
            trace = req.trace_id().unwrap();
            let ctx = current().expect("context active");
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(move || {
                        let _adopt = ctx.adopt();
                        let _g = crate::spans::span("test.adopt_worker");
                    });
                }
            });
        }
        let events = events_snapshot();
        assert!(is_well_formed_tree(&events, trace));
        let workers = events
            .iter()
            .filter(|e| e.trace == trace.0 && e.name == "test.adopt_worker")
            .count();
        assert_eq!(workers, 2);
    }

    #[test]
    fn well_formed_rejects_orphans_and_double_roots() {
        let mk = |span, parent| SpanEvent {
            trace: 99,
            span,
            parent,
            name: "x",
            start_us: 0,
            dur_ns: 1,
            tid: 1,
        };
        let good = vec![mk(1, NO_PARENT), mk(2, 1), mk(3, 2)];
        assert!(is_well_formed_tree(&good, TraceId(99)));
        let orphan = vec![mk(1, NO_PARENT), mk(3, 2)];
        assert!(!is_well_formed_tree(&orphan, TraceId(99)));
        let two_roots = vec![mk(1, NO_PARENT), mk(2, NO_PARENT)];
        assert!(!is_well_formed_tree(&two_roots, TraceId(99)));
        assert!(!is_well_formed_tree(&good, TraceId(98)));
    }
}
