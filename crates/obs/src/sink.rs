//! JSONL event sink: one JSON object per line, appended to the file named
//! by `SES_OBS_FILE` (truncated at first write of the process), or captured
//! into an in-memory buffer for tests.
//!
//! The sink is the only locking component of `ses-obs` — record emission
//! happens at epoch granularity (dozens per run), never inside kernels, so
//! a mutex is fine here.

use std::fs::File;
use std::io::Write;
use std::sync::Mutex;

enum Target {
    /// Not yet resolved from the environment.
    Unresolved,
    /// No `SES_OBS_FILE`; records are dropped (stderr logging still works).
    None,
    File(File),
    /// Test mode: capture lines in memory.
    Buffer(String),
}

static SINK: Mutex<Target> = Mutex::new(Target::Unresolved);

fn resolve(target: &mut Target) {
    if !matches!(target, Target::Unresolved) {
        return;
    }
    *target = match std::env::var_os("SES_OBS_FILE") {
        Some(path) => match File::create(&path) {
            Ok(f) => Target::File(f),
            Err(e) => {
                crate::log::info(format_args!(
                    "ses-obs: cannot open SES_OBS_FILE {path:?}: {e}"
                ));
                Target::None
            }
        },
        None => Target::None,
    };
}

/// Appends one line (no trailing newline expected) to the active sink.
/// No-op when telemetry is disabled or no file/buffer target exists.
pub fn write_line(line: &str) {
    if !crate::enabled() {
        return;
    }
    let mut guard = match SINK.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    resolve(&mut guard);
    match &mut *guard {
        Target::File(f) => {
            // Ignore IO errors: telemetry must never take down training.
            let _ = f.write_all(line.as_bytes());
            let _ = f.write_all(b"\n");
        }
        Target::Buffer(buf) => {
            buf.push_str(line);
            buf.push('\n');
        }
        Target::None | Target::Unresolved => {}
    }
}

/// True when the sink has somewhere to write (file or capture buffer).
/// Lets callers skip building expensive records that would be dropped.
pub fn active() -> bool {
    if !crate::enabled() {
        return false;
    }
    let mut guard = match SINK.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    resolve(&mut guard);
    matches!(&*guard, Target::File(_) | Target::Buffer(_))
}

/// Redirects the sink into an in-memory buffer (test helper). Any previous
/// target is dropped; pair with [`take_capture`].
pub fn begin_capture() {
    let mut guard = match SINK.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    *guard = Target::Buffer(String::new());
}

/// Returns everything captured since [`begin_capture`] and restores the
/// environment-resolved target.
pub fn take_capture() -> String {
    let mut guard = match SINK.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    match std::mem::replace(&mut *guard, Target::Unresolved) {
        Target::Buffer(buf) => buf,
        other => {
            *guard = other;
            String::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_roundtrip() {
        let _obs = crate::force_enabled(true);
        begin_capture();
        write_line("{\"event\":\"a\"}");
        write_line("{\"event\":\"b\"}");
        let got = take_capture();
        assert_eq!(got, "{\"event\":\"a\"}\n{\"event\":\"b\"}\n");
    }

    #[test]
    fn disabled_sink_drops_lines() {
        let _obs = crate::force_enabled(true);
        begin_capture();
        crate::set_enabled_override(Some(false));
        write_line("{\"event\":\"dropped\"}");
        crate::set_enabled_override(Some(true));
        let got = take_capture();
        assert!(got.is_empty());
    }
}
