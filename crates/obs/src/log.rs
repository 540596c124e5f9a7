//! Human-oriented logging routed through `ses-obs`.
//!
//! Library crates in this workspace must not call `println!`/`eprintln!`
//! directly (the `no-println-in-lib` lint rule enforces it). They use the
//! [`crate::info!`] / [`crate::outln!`] macros, which land here:
//!
//! * [`info`] writes a progress/diagnostic line to **stderr** (always — a
//!   human is watching regardless of telemetry state) and mirrors it to the
//!   JSONL sink as a `{"event":"log",...}` record when the sink is active;
//! * [`outln`] writes a result line (tables, CSV) to **stdout** with no
//!   sink mirror — stdout is the deliverable, the sink has structured
//!   records for the same data.
//!
//! This module is the one place in the workspace allowed to talk to the
//! standard streams from library code; it does so via `io::Write` on the
//! locked handles.

use std::fmt;
use std::io::Write;

/// Writes a diagnostic line to stderr and mirrors it to the sink.
pub fn info(args: fmt::Arguments<'_>) {
    let msg = fmt::format(args);
    {
        let mut err = std::io::stderr().lock();
        let _ = err.write_all(msg.as_bytes());
        let _ = err.write_all(b"\n");
    }
    if crate::sink::active() {
        crate::Record::new("log").str("msg", &msg).emit();
    }
}

/// Writes a result line to stdout (no sink mirror).
pub fn outln(args: fmt::Arguments<'_>) {
    let mut out = std::io::stdout().lock();
    let _ = out.write_fmt(args);
    let _ = out.write_all(b"\n");
}

/// Diagnostic line to stderr, mirrored to the JSONL sink when active.
/// `ses_obs::info!("epoch {e}: loss {loss:.4}")`
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        $crate::log::info(format_args!($($arg)*))
    };
}

/// Result line to stdout (tables, CSV). `ses_obs::outln!("{row}")`
#[macro_export]
macro_rules! outln {
    () => {
        $crate::log::outln(format_args!(""))
    };
    ($($arg:tt)*) => {
        $crate::log::outln(format_args!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn info_mirrors_to_active_sink() {
        let _obs = crate::force_enabled(true);
        crate::sink::begin_capture();
        crate::info!("hello {}", 42);
        let cap = crate::sink::take_capture();
        let line = cap.lines().next().expect("one mirrored record");
        let v = crate::json::Json::parse(line).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj.get("event").unwrap().as_str(), Some("log"));
        assert_eq!(obj.get("msg").unwrap().as_str(), Some("hello 42"));
    }
}
