//! Small statistics helpers: mean ± std aggregation for multi-seed runs, and
//! the paper tables' duration format.

use std::time::Duration;

/// Mean and (population) standard deviation of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanStd {
    /// Sample mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
}

impl MeanStd {
    /// Computes mean ± std of `values` (0 ± 0 for an empty slice).
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self {
                mean: 0.0,
                std: 0.0,
            };
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
        Self {
            mean,
            std: var.sqrt(),
        }
    }
}

impl std::fmt::Display for MeanStd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2}±{:.2}", self.mean, self.std)
    }
}

/// Formats a duration like the paper's tables: `"9 min 50s"` above a minute,
/// `"4.3s"` below.
pub fn format_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 60.0 {
        let m = (secs / 60.0).floor() as u64;
        format!("{m} min {:.0}s", secs - m as f64 * 60.0)
    } else if secs >= 1.0 {
        format!("{secs:.1}s")
    } else {
        format!("{:.1}ms", secs * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_hand_case() {
        let m = MeanStd::of(&[1.0, 2.0, 3.0, 4.0]);
        assert!((m.mean - 2.5).abs() < 1e-12);
        assert!((m.std - (1.25f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn mean_std_empty_and_singleton() {
        assert_eq!(
            MeanStd::of(&[]),
            MeanStd {
                mean: 0.0,
                std: 0.0
            }
        );
        let m = MeanStd::of(&[7.0]);
        assert_eq!(m.mean, 7.0);
        assert_eq!(m.std, 0.0);
    }

    #[test]
    fn display_format() {
        let m = MeanStd::of(&[90.0, 91.0]);
        assert_eq!(m.to_string(), "90.50±0.50");
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(format_duration(Duration::from_secs_f64(590.0)), "9 min 50s");
        assert_eq!(format_duration(Duration::from_secs_f64(4.3)), "4.3s");
        assert_eq!(format_duration(Duration::from_secs_f64(0.0123)), "12.3ms");
    }
}
