//! The sanctioned wall-clock primitive for library code.
//!
//! The `no-raw-instant-in-lib` lint rule bans ad-hoc `std::time::Instant`
//! in library runtime paths: timing that matters should flow through
//! `ses-obs` so it is visible to spans and histograms. This
//! `Stopwatch` is the escape hatch for durations that feed telemetry
//! *values* (epoch records, latency histograms) rather than span trees —
//! one audited wrapper instead of scattered `Instant::now()` pairs.

use std::time::{Duration, Instant};

/// A started wall-clock timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed nanoseconds, saturating at `u64::MAX`.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Elapsed milliseconds as a float (reporting convenience).
    pub fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }

    /// Restarts the timer and returns the elapsed time up to the restart.
    pub fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let d = now.duration_since(self.start);
        self.start = now;
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_measures_and_laps() {
        let mut sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(2));
        assert!(sw.elapsed_ns() >= 1_000_000);
        assert!(sw.elapsed_ms() >= 1.0);
        let lap = sw.lap();
        assert!(lap >= Duration::from_millis(1));
        // After a lap the clock restarts near zero.
        assert!(sw.elapsed() < lap + Duration::from_secs(1));
    }
}
