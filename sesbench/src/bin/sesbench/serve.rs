//! Serving a trained model through `ses_serve::Server`.
//!
//! * **Open loop** (`serve-polblogs`): requests arrive on a fixed schedule
//!   whether or not earlier ones finished, and one worker drains them with
//!   `Server::run_next`. Latency runs from a request's *scheduled* arrival
//!   to its response, so a stalled worker inflates the latency of every
//!   request queued behind the stall.
//! * **Closed loop** (training workloads, after each fit): the next request
//!   is sent when the previous one answered, so latency is service time
//!   and throughput is the server's capacity for this model. The requests
//!   sweep every node in turn (`workload::sweep_nodes`).
//!
//! In a traced run every `run_next` sits in its own `bench.request` trace
//! under a `serve.run_next` span, and service times are read back from the
//! trace events.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ses_core::Explanations;
use ses_graph::Graph;
use ses_obs::trace::{self, SpanEvent};
use ses_serve::{Explanation, ModelArtifact, Response, ServeConfig, ServeError, Server, Tier};

use crate::check::Expected;
use crate::stats::Dist;
use crate::workload::elapsed_ns;

/// Latency recorded for a request that failed, was shed or was wrong: far
/// above any limit, so it counts as missing it.
pub const MISSED_NS: u64 = u64::MAX / 4;

/// The p99 limit of the open-loop rate ladder. It sits well above the
/// service-time p99 (about 0.5 ms on polblogs-like): on a shared 2-vCPU
/// host, stalls of 5–10 ms decided a 5 ms limit, while past capacity the
/// backlog grows through 10 ms within one rung.
pub const LIMIT_P99_NS: u64 = 10_000_000;

/// Nominal open-loop rate, well below capacity: requests per second.
pub const NOMINAL_RPS: f64 = 1000.0;

/// Rungs of the fixed rate ladder `max_rps` is read from: rung `i` offers
/// `NOMINAL_RPS * 1.05^i` requests per second, up to about 10,000.
pub const LADDER_RUNGS: usize = 48;

/// The offered rate of ladder rung `i`, requests per second.
pub fn rung_rate(i: usize) -> f64 {
    NOMINAL_RPS * 1.05f64.powi(i32::try_from(i).expect("ladder rung index fits i32"))
}

/// A rung lasts this long, and at least [`WINDOW`] requests: 3% past
/// capacity, the backlog grows through the limit within it.
const RUNG_SECONDS: f64 = 0.3;

/// Requests per latency window: the window's p99 has ten samples beyond
/// it.
pub const WINDOW: usize = 1000;

/// A server over a frozen trained model, with a cache of a quarter of the
/// node count.
pub fn make_server(graph: &Graph, predictions: &[usize], explanations: &Explanations) -> Server {
    let n = graph.n_nodes();
    let artifact =
        ModelArtifact::from_parts(graph.clone(), predictions.to_vec(), explanations.clone(), 2);
    Server::new(
        artifact,
        ServeConfig {
            cache_entries: (n / 4).max(1),
            ..ServeConfig::default()
        },
    )
}

/// One request's outcome. Times are nanoseconds from the segment start.
#[derive(Clone, Debug, Default)]
pub struct Served {
    pub node: usize,
    pub sched_ns: u64,
    /// How late the request was submitted: after its arrival, or after
    /// the worker came free if it arrived during a service.
    pub lag_ns: u64,
    pub done_ns: u64,
    /// Service time measured around `run_next` (closed loop: around the
    /// whole call).
    pub service_ns: u64,
    pub shed: bool,
    /// Errored, or answered with a wrong prediction or wrong edges.
    pub failed: bool,
    pub hit: bool,
    /// Trace id of the request's `bench.request` trace (traced runs).
    pub trace: Option<u64>,
}

impl Served {
    /// Latency from scheduled arrival to response; a shed or failed request
    /// reads [`MISSED_NS`].
    pub fn latency_ns(&self) -> u64 {
        if self.shed || self.failed {
            MISSED_NS
        } else {
            self.done_ns.saturating_sub(self.sched_ns)
        }
    }
}

/// Requests of one segment plus the trace events drained while it ran.
#[derive(Default)]
pub struct Segment {
    pub served: Vec<Served>,
    pub events: Vec<SpanEvent>,
    /// First full response per node, compared exactly after the segment.
    pub first: Vec<(usize, Explanation)>,
}

impl Segment {
    pub fn latency(&self) -> Dist {
        let mut d = Dist::new();
        for s in &self.served {
            d.record(s.latency_ns());
        }
        d
    }

    /// The p99 of each consecutive window of `window` requests (in arrival
    /// order), as a distribution. Its median is the run's p99: a host stall
    /// of a few hundred milliseconds spoils the windows it falls in, not
    /// the statistic.
    pub fn window_p99(&self, window: usize) -> Dist {
        let mut out = Dist::new();
        for chunk in self.served.chunks_exact(window) {
            let mut d = Dist::new();
            for s in chunk {
                d.record(s.latency_ns());
            }
            out.record(d.quantile(0.99));
        }
        out
    }

    pub fn failed(&self) -> usize {
        self.served.iter().filter(|s| s.shed || s.failed).count()
    }

    /// Completed requests per second over the segment's span, from the
    /// first scheduled arrival to the last response.
    pub fn achieved_rps(&self) -> f64 {
        let first = self.served.iter().map(|s| s.sched_ns).min().unwrap_or(0);
        let last = self.served.iter().map(|s| s.done_ns).max().unwrap_or(0);
        let done = self.served.iter().filter(|s| !s.shed).count();
        done as f64 / ((last.saturating_sub(first)).max(1) as f64 / 1e9)
    }

    /// Exact (sorted) comparison of each node's first response; marks
    /// every request for a mismatched node failed.
    pub fn exact_check(&mut self, expected: &Expected) {
        let bad: Vec<usize> = self
            .first
            .iter()
            .filter(|(node, edges)| !expected.matches_exactly(*node, edges))
            .map(|(node, _)| *node)
            .collect();
        for s in &mut self.served {
            if bad.contains(&s.node) {
                s.failed = true;
            }
        }
    }
}

/// Records a finished request into the segment: checks it and keeps the
/// node's first explanation for the exact comparison.
fn finish(
    seg: &mut Segment,
    seen: &mut [bool],
    expected: &Expected,
    mut s: Served,
    result: Result<Response, ServeError>,
) {
    match result {
        Ok(resp) => {
            s.hit = resp.tier == Tier::Cache;
            s.failed = resp.tier == Tier::PredictOnly
                || resp.tier == Tier::Saliency
                || !expected.matches(s.node, resp.prediction, &resp.edges);
            if !seen[s.node] {
                seen[s.node] = true;
                seg.first.push((s.node, resp.edges));
            }
        }
        Err(_) => s.failed = true,
    }
    seg.served.push(s);
}

/// Drains the trace buffer into the segment every this many requests, far
/// below the 2^16-event buffer.
const DRAIN_EVERY: usize = 1000;

/// Jittered constant-rate arrivals: request `i` arrives at a seeded
/// uniform point of its slot `[i/rate, (i+1)/rate)`, in nanoseconds. The
/// rate is exact over any window of a few slots, so the nominal rate stays
/// well below capacity; Poisson arrivals at the same mean rate put p99 at
/// 4.3 ms instead of 0.6 ms on a 2-vCPU host, which measured burst
/// queueing rather than the server.
pub fn schedule(seed: u64, rate: f64, count: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0a11_7e5c_4ed0_1e00);
    (0..count)
        .map(|i| ((i as f64 + rng.gen::<f64>()) / rate * 1e9) as u64)
        .collect()
}

/// Runs `nodes[i]` open-loop, each arriving `arrivals[i]` nanoseconds
/// after the segment starts, on one thread. Between two `run_next` calls
/// the thread submits every request that has arrived, in order, so the
/// server's bounded queue admits or sheds each exactly as it would have at
/// the arrival instant: nothing leaves the queue while a request is in
/// service. When the queue is empty, the thread spins until the next
/// arrival.
///
/// A generator thread and a worker thread would keep both vCPUs of a
/// 2-vCPU host busy. Measured there, a spinning thread then lost about 90
/// pauses over 1 ms in 10 s to the host, against 13 with one vCPU busy,
/// and those pauses set the p99.
pub fn open_loop(
    server: &Server,
    expected: &Expected,
    nodes: &[usize],
    arrivals: &[u64],
) -> Segment {
    assert_eq!(nodes.len(), arrivals.len(), "one arrival per request");
    let mut seg = Segment::default();
    let mut seen = vec![false; expected.nodes.len()];
    // Admitted requests, oldest first: (index, submit time, admission id).
    let mut queued = std::collections::VecDeque::new();
    let mut next = 0;
    // When the worker last came free.
    let mut free_ns = 0;
    let start = Instant::now();
    loop {
        let now = elapsed_ns(start);
        while next < nodes.len() && arrivals[next] <= now {
            let submit_ns = elapsed_ns(start);
            let lag_ns = submit_ns.saturating_sub(arrivals[next].max(free_ns));
            match server.submit(nodes[next]) {
                Ok(id) => queued.push_back((next, lag_ns, id)),
                Err(_) => seg.served.push(Served {
                    node: nodes[next],
                    sched_ns: arrivals[next],
                    lag_ns,
                    done_ns: submit_ns,
                    shed: true,
                    ..Served::default()
                }),
            }
            next += 1;
        }
        let Some((i, lag_ns, id)) = queued.pop_front() else {
            if next == nodes.len() {
                break;
            }
            wait_until(start + Duration::from_nanos(arrivals[next]));
            continue;
        };
        let t0 = Instant::now();
        let guard = trace::request("bench.request");
        let answer = {
            let _span = ses_obs::span!("serve.run_next");
            server.run_next()
        };
        let trace_id = guard.trace_id().map(|t| t.0);
        drop(guard);
        let done_ns = elapsed_ns(start);
        let service_ns = elapsed_ns(t0);
        free_ns = done_ns;
        let (req, result) = answer.expect("an admitted request is queued");
        assert_eq!(
            (req.id, req.node),
            (id, nodes[i]),
            "requests answered out of order"
        );
        let s = Served {
            node: nodes[i],
            sched_ns: arrivals[i],
            lag_ns,
            done_ns,
            service_ns,
            trace: trace_id,
            ..Served::default()
        };
        finish(&mut seg, &mut seen, expected, s, result);
        if seg.served.len() % DRAIN_EVERY == 0 {
            seg.events.extend(trace::take_events());
        }
    }
    seg.served.sort_by_key(|s| s.sched_ns);
    seg.events.extend(trace::take_events());
    seg
}

/// Runs requests closed-loop: each is submitted when the previous one has
/// answered. Stops once at least `min_requests` were served and `min_time`
/// has passed.
pub fn closed_loop(
    server: &Server,
    expected: &Expected,
    nodes: impl Iterator<Item = usize>,
    min_requests: usize,
    min_time: Duration,
) -> Segment {
    let mut seg = Segment::default();
    let mut seen = vec![false; expected.nodes.len()];
    let start = Instant::now();
    for node in nodes {
        if seg.served.len() >= min_requests && start.elapsed() >= min_time {
            break;
        }
        let sched_ns = elapsed_ns(start);
        let t0 = Instant::now();
        let guard = trace::request("bench.request");
        let result = {
            let _span = ses_obs::span!("serve.run_next");
            server.serve_one(node)
        };
        let trace_id = guard.trace_id().map(|t| t.0);
        drop(guard);
        let service_ns = elapsed_ns(t0);
        let s = Served {
            node,
            sched_ns,
            done_ns: elapsed_ns(start),
            service_ns,
            trace: trace_id,
            ..Served::default()
        };
        finish(&mut seg, &mut seen, expected, s, result);
        if seg.served.len() % DRAIN_EVERY == 0 {
            seg.events.extend(trace::take_events());
        }
    }
    seg.events.extend(trace::take_events());
    seg
}

/// Spins until `t` (sleeping through waits longer than 2 ms), so
/// arrivals keep to the schedule within a few microseconds.
fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > Duration::from_millis(2) {
            std::thread::sleep(left - Duration::from_millis(1));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One attempt at a rung of the ladder.
pub struct Rung {
    pub rate: f64,
    pub achieved_rps: f64,
    pub p99_ns: u64,
    pub shed: usize,
    /// Requests answered (not shed).
    pub answered: usize,
    /// Answers that errored or were wrong.
    pub wrong: usize,
    pub passed: bool,
}

/// Bisects the fixed ladder for its highest passing rung, starting from
/// rung 0. A rung runs for [`RUNG_SECONDS`] (at least [`WINDOW`]
/// requests) and passes when nothing is shed or fails and its p99 meets
/// [`LIMIT_P99_NS`]; past capacity the backlog grows, so p99 rises
/// through the limit. A missed rung is run once more, so one host stall
/// does not decide it. Every attempt is returned, in order.
pub fn ladder(
    server: &Server,
    expected: &Expected,
    nodes: &mut impl Iterator<Item = usize>,
    seed: u64,
) -> Vec<Rung> {
    let mut rungs: Vec<Rung> = Vec::new();
    let mut attempt = |i: usize, rungs: &mut Vec<Rung>| {
        let rate = rung_rate(i);
        let count = ((rate * RUNG_SECONDS) as usize).max(WINDOW);
        let seq: Vec<usize> = nodes.take(count).collect();
        let arrivals = schedule(seed.wrapping_add(1 + rungs.len() as u64), rate, seq.len());
        let mut seg = open_loop(server, expected, &seq, &arrivals);
        seg.exact_check(expected);
        let p99_ns = seg.latency().quantile(0.99);
        let shed = seg.served.iter().filter(|s| s.shed).count();
        let wrong = seg.failed() - shed;
        rungs.push(Rung {
            rate,
            achieved_rps: seg.achieved_rps(),
            p99_ns,
            shed,
            answered: seg.served.len() - shed,
            wrong,
            passed: shed == 0 && wrong == 0 && p99_ns <= LIMIT_P99_NS,
        });
    };
    let mut passes = |i: usize, rungs: &mut Vec<Rung>| {
        attempt(i, rungs);
        if !rungs[rungs.len() - 1].passed {
            attempt(i, rungs);
        }
        rungs[rungs.len() - 1].passed
    };
    if !passes(0, &mut rungs) {
        return rungs;
    }
    // Rung `lo` passed; rung `hi` missed or lies past the ladder.
    let (mut lo, mut hi) = (0, LADDER_RUNGS);
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if passes(mid, &mut rungs) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    rungs
}

/// `max_rps`: the achieved rate of the highest-rate attempt that passed
/// (the first attempt's, when none passed).
pub fn max_rps(rungs: &[Rung]) -> f64 {
    rungs
        .iter()
        .filter(|r| r.passed)
        .max_by(|a, b| a.rate.total_cmp(&b.rate))
        .or(rungs.first())
        .map_or(0.0, |r| r.achieved_rps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_tensor::Matrix;
    use std::sync::Arc;

    fn served(sched_ns: u64, done_ns: u64) -> Served {
        Served {
            sched_ns,
            done_ns,
            ..Served::default()
        }
    }

    #[test]
    fn schedules_are_seeded_and_keep_the_rate() {
        let a = schedule(5, 1000.0, 20_000);
        assert_eq!(a, schedule(5, 1000.0, 20_000));
        assert_ne!(a, schedule(6, 1000.0, 20_000));
        for (i, &t) in a.iter().enumerate() {
            let slot = i as u64 * 1_000_000;
            assert!(
                t >= slot && t < slot + 1_000_000,
                "arrival {i} at {t} ns left its slot"
            );
        }
    }

    #[test]
    fn latency_counts_from_scheduled_arrival() {
        // A worker stalled for 10 ms at t=0: requests due at 1, 2, 3 ms all
        // wait behind the stall, so each carries the stall, not just the
        // first.
        let seg = Segment {
            served: vec![
                served(0, 10_000_000),
                served(1_000_000, 10_100_000),
                served(2_000_000, 10_200_000),
                served(3_000_000, 10_300_000),
            ],
            ..Segment::default()
        };
        let lat: Vec<u64> = seg.served.iter().map(Served::latency_ns).collect();
        assert_eq!(lat, vec![10_000_000, 9_100_000, 8_200_000, 7_300_000]);
        let mut shed = served(0, 0);
        shed.shed = true;
        assert_eq!(shed.latency_ns(), MISSED_NS);
    }

    /// A server and reference answers for a 4-node path graph.
    fn tiny_server() -> (Server, Expected) {
        let g = Graph::new(
            4,
            &[(0, 1), (1, 2), (2, 3)],
            Matrix::zeros(4, 2),
            vec![0, 1, 0, 1],
        );
        let khop = ses_graph::khop_structure(&g, 2);
        let nnz = khop.nnz();
        let ex = Explanations {
            feature_mask: Matrix::full(4, 2, 0.5),
            khop: Arc::clone(&khop),
            structure_weights: (0..nnz).map(|i| i as f32 / nnz as f32).collect(),
        };
        let preds = vec![0, 1, 0, 1];
        (
            make_server(&g, &preds, &ex),
            Expected::build(&g, &preds, &ex),
        )
    }

    #[test]
    fn queued_requests_carry_the_wait_for_earlier_ones() {
        let (server, expected) = tiny_server();
        // Eight requests all due at t=0: the worker is busy with the ones
        // ahead, so each request's latency includes their service times.
        let seg = open_loop(&server, &expected, &[0, 1, 2, 3, 0, 1, 2, 3], &[0; 8]);
        assert_eq!(seg.failed(), 0);
        assert_eq!(seg.served.len(), 8);
        let mut ahead = 0u64;
        for s in &seg.served {
            ahead += s.service_ns;
            assert!(
                s.latency_ns() >= ahead,
                "latency {} < work ahead {ahead}",
                s.latency_ns()
            );
        }
    }

    #[test]
    fn a_burst_past_the_queue_is_shed_and_misses() {
        let (server, expected) = tiny_server();
        let capacity = server.config().queue_capacity;
        let nodes: Vec<usize> = (0..capacity + 6).map(|i| i % 4).collect();
        let seg = open_loop(&server, &expected, &nodes, &vec![0; nodes.len()]);
        let shed: Vec<&Served> = seg.served.iter().filter(|s| s.shed).collect();
        let shed_nodes: Vec<usize> = shed.iter().map(|s| s.node).collect();
        assert_eq!(shed_nodes, nodes[capacity..], "the newest six are shed");
        assert!(shed.iter().all(|s| s.latency_ns() == MISSED_NS));
        assert_eq!(seg.failed(), 6);
    }
}
