//! Trace-context propagation through the parallel kernel layer: spans
//! recorded by `run_tasks` workers must land in the submitting request's
//! trace and reconstruct to a single well-formed tree — including when a
//! worker panics and `run_isolated` degrades the op to its serial path.
//!
//! Each test holds the telemetry guard for its whole body, which also
//! serialises the worker-panic fault the tests arm.

use ses_tensor::par;

/// Span events for one trace, drained from the non-destructive snapshot.
fn trace_events(trace: ses_obs::TraceId) -> Vec<ses_obs::trace::SpanEvent> {
    ses_obs::trace::events_snapshot()
        .into_iter()
        .filter(|e| e.trace == trace.0)
        .collect()
}

#[test]
fn worker_spans_join_the_submitting_request_trace() {
    let _obs = ses_obs::force_enabled(true);
    let trace = {
        let req = ses_obs::trace::request("test.par_request");
        let trace = req.trace_id().expect("request opened");
        let tasks: Vec<_> = (0..8)
            .map(|i| {
                move || {
                    let _s = ses_obs::span!("test.par_worker");
                    i * 2
                }
            })
            .collect();
        let out = par::run_tasks(4, tasks);
        assert_eq!(out, (0..8).map(|i| i * 2).collect::<Vec<_>>());
        trace
    };

    let events = trace_events(trace);
    let workers = events
        .iter()
        .filter(|e| e.name == "test.par_worker")
        .count();
    assert_eq!(workers, 8, "every task's span must join the trace");
    // Spawned workers ran on other threads yet still joined the tree.
    let tids: std::collections::HashSet<u32> = events.iter().map(|e| e.tid).collect();
    assert!(tids.len() > 1, "expected spans from multiple threads");
    assert!(
        ses_obs::trace::is_well_formed_tree(&events, trace),
        "trace must reconstruct to one rooted tree: {events:?}"
    );
}

#[test]
fn panic_degraded_op_still_yields_one_well_formed_tree() {
    let _obs = ses_obs::force_enabled(true);
    let trace = {
        let req = ses_obs::trace::request("test.degraded_request");
        let trace = req.trace_id().expect("request opened");
        par::arm_worker_panic(0);
        let run_spanned = |n: usize| {
            let tasks: Vec<_> = (0..n)
                .map(|i| {
                    move || {
                        let _s = ses_obs::span!("test.degraded_worker");
                        i + 1
                    }
                })
                .collect();
            par::run_tasks(4, tasks)
        };
        // The parallel attempt loses a worker to the injected panic;
        // run_isolated discards it and recomputes serially.
        let out = par::run_isolated("test.degraded", 4, || run_spanned(8), || run_spanned(8));
        par::disarm_worker_panic();
        assert_eq!(out, (1..=8).collect::<Vec<_>>());
        trace
    };

    let events = trace_events(trace);
    // The serial recomputation alone contributes all 8 spans; the aborted
    // parallel attempt may add more. Whatever survived must still parent
    // back to this request — no orphans from the unwound workers.
    let workers = events
        .iter()
        .filter(|e| e.name == "test.degraded_worker")
        .count();
    assert!(workers >= 8, "serial fallback spans missing: {workers}");
    assert!(
        ses_obs::trace::is_well_formed_tree(&events, trace),
        "degraded trace must still be one rooted tree: {events:?}"
    );
}

#[test]
fn spans_without_a_request_stay_out_of_every_trace() {
    let _obs = ses_obs::force_enabled(true);
    let tasks: Vec<_> = (0..4)
        .map(|i| {
            move || {
                let _s = ses_obs::span!("test.untraced_worker");
                i
            }
        })
        .collect();
    let _ = par::run_tasks(2, tasks);
    // No request was open, so no trace events may mention these spans.
    let stray = ses_obs::trace::events_snapshot()
        .into_iter()
        .any(|e| e.name == "test.untraced_worker");
    assert!(!stray, "spans outside a request must not enter the buffer");
}
