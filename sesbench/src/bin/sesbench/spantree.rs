//! Self time per layer, computed from `ses_obs::trace` events.
//!
//! The benchmark wraps each call into a layer in a span of its own; spans
//! the program opens inside that call (kernels, tape, explain stages) are
//! attributed to the enclosing benchmark span. A layer span's self time is
//! its duration minus the part of its interval covered by its nearest
//! descendant layer spans (the union of their intervals, so children that
//! ran in parallel on other threads are not subtracted twice). The trace
//! root's self time is the time no layer span accounts for.

use std::collections::{BTreeMap, HashMap};

use ses_obs::trace::{SpanEvent, NO_PARENT};

/// Self nanoseconds per span name over `events`, counting the spans for
/// which `is_layer` holds plus every trace root.
pub fn self_times(
    events: &[SpanEvent],
    is_layer: impl Fn(&str) -> bool,
) -> BTreeMap<&'static str, u64> {
    let mut children: HashMap<(u64, u64), Vec<usize>> = HashMap::new();
    for (i, e) in events.iter().enumerate() {
        if e.parent != NO_PARENT {
            children.entry((e.trace, e.parent)).or_default().push(i);
        }
    }
    let mut out = BTreeMap::new();
    for e in events {
        if e.parent != NO_PARENT && !is_layer(e.name) {
            continue;
        }
        // Nearest layer descendants: walk through non-layer spans.
        let mut covered = Vec::new();
        let mut stack: Vec<usize> = children
            .get(&(e.trace, e.span))
            .cloned()
            .unwrap_or_default();
        while let Some(i) = stack.pop() {
            let c = &events[i];
            if is_layer(c.name) {
                covered.push(interval(c));
            } else if let Some(grand) = children.get(&(c.trace, c.span)) {
                stack.extend(grand);
            }
        }
        let (lo, hi) = interval(e);
        let busy = union_len(&mut covered, lo, hi);
        *out.entry(e.name).or_insert(0) += e.dur_ns.saturating_sub(busy);
    }
    out
}

/// `[start, end)` of an event in nanoseconds (starts have microsecond
/// resolution).
fn interval(e: &SpanEvent) -> (u64, u64) {
    let start = e.start_us.saturating_mul(1000);
    (start, start.saturating_add(e.dur_ns))
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.clamp(lo, hi), e.clamp(lo, hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(span: u64, parent: u64, name: &'static str, start_us: u64, dur_us: u64) -> SpanEvent {
        SpanEvent {
            trace: 1,
            span,
            parent,
            name,
            start_us,
            dur_ns: dur_us * 1000,
            tid: 1,
        }
    }

    #[test]
    fn self_time_on_a_hand_built_tree() {
        // epoch [0,100): layer a [10,40) with a kernel [12,30) holding a
        // nested layer b [15,25); layer c [50,90) with two parallel worker
        // kernels [55,85) and [60,88) that contain layers d [56,70) and
        // e [65,80) — d and e overlap, so c loses their union [56,80).
        let events = vec![
            ev(2, 1, "a", 10, 30),
            ev(3, 2, "kernel.x", 12, 18),
            ev(4, 3, "b", 15, 10),
            ev(5, 1, "c", 50, 40),
            ev(6, 5, "kernel.y", 55, 30),
            ev(7, 5, "kernel.y", 60, 28),
            ev(8, 6, "d", 56, 14),
            ev(9, 7, "e", 65, 15),
            ev(1, NO_PARENT, "epoch", 0, 100),
        ];
        let layer = |n: &str| !n.starts_with("kernel.") && n != "epoch";
        let st = self_times(&events, layer);
        let us = |n: &str| st.get(n).copied().unwrap_or(u64::MAX) / 1000;
        assert_eq!(
            us("epoch"),
            100 - 30 - 40,
            "root keeps the gaps between layers"
        );
        assert_eq!(
            us("a"),
            30 - 10,
            "kernels fold into the layer that called them"
        );
        assert_eq!(us("b"), 10);
        assert_eq!(us("c"), 40 - 24, "parallel children count once");
        assert_eq!(us("d"), 14);
        assert_eq!(us("e"), 15);
        assert!(!st.contains_key("kernel.x"));
    }

    #[test]
    fn children_past_the_parent_are_clipped() {
        let events = vec![ev(1, NO_PARENT, "root", 0, 10), ev(2, 1, "a", 5, 20)];
        let st = self_times(&events, |n| n == "a");
        assert_eq!(st["root"], 5_000);
        assert_eq!(st["a"], 20_000);
    }
}
