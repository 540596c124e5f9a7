//! Every percentile the benchmark reports comes from one implementation,
//! `ses_obs::hist::HistSnapshot` (log-linear buckets, ≤1/64 relative
//! error, independent of whether telemetry is on). This module only adds
//! the reporting conventions around it, plus the host probes (peak RSS and
//! a calibration loop) printed with every run.

use ses_obs::HistSnapshot;

/// Quantiles the benchmark knows how to name, lowest first.
const LADDER: [(f64, &str); 4] = [(0.5, "p50"), (0.9, "p90"), (0.99, "p99"), (0.999, "p99.9")];

/// A sample distribution in nanoseconds (or any u64 unit).
#[derive(Clone, Default)]
pub struct Dist {
    pub hist: HistSnapshot,
}

impl Dist {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&mut self, v: u64) {
        self.hist.record(v);
    }

    pub fn count(&self) -> u64 {
        self.hist.count()
    }

    pub fn quantile(&self, q: f64) -> u64 {
        self.hist.quantile(q)
    }

    pub fn median(&self) -> u64 {
        self.hist.quantile(0.5)
    }

    /// The highest named quantile with at least ten samples beyond it, or
    /// `None` when even the median has fewer than ten above it.
    pub fn highest_supported(&self) -> Option<(f64, &'static str)> {
        highest_supported(self.count())
    }

    /// `name: n=<count> p50=… p90=… …` up to the highest supported
    /// quantile, each value divided by `scale` (e.g. 1e3 for ns → µs).
    pub fn describe(&self, name: &str, scale: f64, unit: &str) -> String {
        let mut line = format!("{name}: n={}", self.count());
        let top = self.highest_supported().map_or(0.5, |(q, _)| q);
        for (q, label) in LADDER {
            if q <= top {
                line.push_str(&format!(
                    " {label}={:.4}{unit}",
                    self.quantile(q) as f64 / scale
                ));
            }
        }
        line
    }
}

/// See [`Dist::highest_supported`].
pub fn highest_supported(n: u64) -> Option<(f64, &'static str)> {
    LADDER
        .iter()
        .rev()
        .find(|(q, _)| (n as f64) * (1.0 - q) >= 10.0 - 1e-9)
        .copied()
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 when the
/// platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed integer/float loop timed in this process, in milliseconds. Its
/// work never changes, so a run whose calibration reads slow ran on a
/// slowed host.
pub fn calibration_ms() -> f64 {
    let t = std::time::Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0.0f64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += (x >> 40) as f64 * 1e-9;
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_supported_needs_ten_beyond() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20).map(|q| q.1), Some("p50"));
        assert_eq!(highest_supported(100).map(|q| q.1), Some("p90"));
        assert_eq!(highest_supported(999).map(|q| q.1), Some("p90"));
        assert_eq!(highest_supported(1000).map(|q| q.1), Some("p99"));
        assert_eq!(highest_supported(10_000).map(|q| q.1), Some("p99.9"));
    }

    #[test]
    fn describe_prints_count_and_supported_quantiles() {
        let mut d = Dist::new();
        for v in 1..=200u64 {
            d.record(v * 1000);
        }
        let line = d.describe("x", 1e3, "us");
        assert!(line.starts_with("x: n=200 p50="), "{line}");
        assert!(line.contains("p90=") && !line.contains("p99="), "{line}");
    }
}
