//! Seeded fault injection for recovery-path testing.
//!
//! A [`FaultSpec`] names one deterministic fault: *what* goes wrong
//! ([`FaultKind`]), *where/when* (an epoch, a pipeline stage, or a request
//! ordinal, depending on the kind), and a seed that pins any remaining
//! choice (e.g. which gradient element turns NaN). Specs parse from the
//! `SES_FAULT` environment variable with the grammar
//!
//! ```text
//! SES_FAULT = <fault> [ "," "seed=" <n> ]
//! <fault>   = "nan-grad"     "@" <epoch>        training-path faults
//!           | "worker-panic" "@" <epoch>
//!           | "ckpt-io"      "@" <epoch>
//!           | "slow-stage"   "@" <stage>        serve-path faults
//!           | "panic"        "@" "request-" <n>
//!           | "cache-poison"
//! <stage>   = "extract" | "encode" | "mask" | "rank"
//! ```
//!
//! e.g. `SES_FAULT=nan-grad@3,seed=7` or `SES_FAULT=slow-stage@encode`. The
//! harness is test/drill infrastructure: nothing fires unless a spec is
//! passed in a config (`TrainConfig::fault`, `SesConfig::fault`,
//! `ServeConfig::fault`). Only the drill binaries read the environment,
//! through [`from_env`]. A training run's
//! [`RecoveryManager`](crate::RecoveryManager) consults the spec at fixed
//! points of each epoch; the serving runtime consults it per request/stage,
//! so a given run sees the fault deterministically.

use std::fmt;
use std::sync::OnceLock;

use ses_tensor::Matrix;

/// An explain-pipeline stage a serve-path fault can target. Mirrors
/// `ses_explain::stage::STAGES`, kept as an enum here so fault specs stay
/// `Copy` and misspelled stages fail at parse time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeStage {
    /// Ego-subgraph extraction.
    Extract,
    /// Per-node relevance gathering.
    Encode,
    /// Edge scoring via the masks.
    Mask,
    /// Edge ordering.
    Rank,
}

impl ServeStage {
    /// The spelling used in `SES_FAULT` and the stage instrumentation.
    pub fn as_str(self) -> &'static str {
        match self {
            ServeStage::Extract => "extract",
            ServeStage::Encode => "encode",
            ServeStage::Mask => "mask",
            ServeStage::Rank => "rank",
        }
    }

    /// Parses one of the four canonical stage names.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "extract" => Ok(ServeStage::Extract),
            "encode" => Ok(ServeStage::Encode),
            "mask" => Ok(ServeStage::Mask),
            "rank" => Ok(ServeStage::Rank),
            other => Err(format!(
                "unknown stage `{other}` (expected extract, encode, mask, or rank)"
            )),
        }
    }
}

impl fmt::Display for ServeStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What kind of failure to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Overwrite one element of one gradient with `NaN` after backward.
    NanGrad,
    /// Panic the first parallel-kernel worker spawned in the target epoch.
    WorkerPanic,
    /// Fail the checkpoint write for the target epoch with an IO error.
    CkptIo,
    /// Stall the named explain-pipeline stage past its deadline budget
    /// (`slow-stage@<stage>`).
    SlowStage(ServeStage),
    /// Panic the serving pipeline while handling request number `n`
    /// (`panic@request-<n>`, 0-based admission order).
    PanicRequest(u64),
    /// Corrupt the next explanation-cache entry written, so a later hit
    /// fails its checksum (`cache-poison`).
    CachePoison,
}

impl FaultKind {
    /// The base spelling used in `SES_FAULT` and ci.sh (without the `@`
    /// target payload).
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::NanGrad => "nan-grad",
            FaultKind::WorkerPanic => "worker-panic",
            FaultKind::CkptIo => "ckpt-io",
            FaultKind::SlowStage(_) => "slow-stage",
            FaultKind::PanicRequest(_) => "panic",
            FaultKind::CachePoison => "cache-poison",
        }
    }

    /// True for the training-path kinds that fire at an epoch.
    pub fn is_training(self) -> bool {
        matches!(
            self,
            FaultKind::NanGrad | FaultKind::WorkerPanic | FaultKind::CkptIo
        )
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::SlowStage(stage) => write!(f, "slow-stage@{stage}"),
            FaultKind::PanicRequest(n) => write!(f, "panic@request-{n}"),
            other => f.write_str(other.as_str()),
        }
    }
}

/// One deterministic injected fault: kind, trigger epoch (training kinds
/// only), and seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// What goes wrong.
    pub kind: FaultKind,
    /// Epoch (0-based) at which a training-path fault fires. Serve-path
    /// kinds carry their target inside [`FaultKind`] and leave this 0.
    pub epoch: u64,
    /// Seed pinning any remaining choice inside the fault.
    pub seed: u64,
}

impl FaultSpec {
    /// Parses the full `SES_FAULT` grammar (see the module docs). Returns a
    /// human-readable error for anything else — a mistyped fault spec must
    /// never silently run a clean experiment.
    pub fn parse(s: &str) -> Result<Self, String> {
        let s = s.trim();
        let (head, seed) = match s.split_once(',') {
            None => (s, 0u64),
            Some((head, tail)) => {
                let n = tail
                    .trim()
                    .strip_prefix("seed=")
                    .ok_or_else(|| format!("expected `seed=<n>` after comma, got `{tail}`"))?;
                let seed = n
                    .parse::<u64>()
                    .map_err(|_| format!("invalid seed `{n}`"))?;
                (head, seed)
            }
        };
        // `cache-poison` is the one targetless kind: no `@` payload at all.
        if head.trim() == "cache-poison" {
            return Ok(Self {
                kind: FaultKind::CachePoison,
                epoch: 0,
                seed,
            });
        }
        let (kind, target) = head
            .split_once('@')
            .ok_or_else(|| format!("expected `<kind>@<target>`, got `{head}`"))?;
        let target = target.trim();
        let (kind, epoch) = match kind.trim() {
            "nan-grad" => (FaultKind::NanGrad, parse_epoch(target)?),
            "worker-panic" => (FaultKind::WorkerPanic, parse_epoch(target)?),
            "ckpt-io" => (FaultKind::CkptIo, parse_epoch(target)?),
            "slow-stage" => (FaultKind::SlowStage(ServeStage::parse(target)?), 0),
            "panic" => {
                let n = target.strip_prefix("request-").ok_or_else(|| {
                    format!("expected `request-<n>` after `panic@`, got `{target}`")
                })?;
                let n = n
                    .parse::<u64>()
                    .map_err(|_| format!("invalid request number `{n}`"))?;
                (FaultKind::PanicRequest(n), 0)
            }
            "cache-poison" => {
                return Err("`cache-poison` takes no `@<target>`".to_string());
            }
            other => {
                return Err(format!(
                    "unknown fault kind `{other}` (expected nan-grad, worker-panic, \
                     ckpt-io, slow-stage, panic, or cache-poison)"
                ))
            }
        };
        Ok(Self { kind, epoch, seed })
    }

    /// Does this training-path spec fire at `epoch`? Serve-path kinds never
    /// fire on the epoch axis.
    pub fn fires_at(&self, epoch: u64) -> bool {
        self.kind.is_training() && self.epoch == epoch
    }

    /// The stage a `slow-stage@<stage>` spec targets, if this is one.
    pub fn slow_stage(&self) -> Option<ServeStage> {
        match self.kind {
            FaultKind::SlowStage(stage) => Some(stage),
            _ => None,
        }
    }

    /// The request ordinal a `panic@request-<n>` spec targets, if this is
    /// one.
    pub fn panic_request(&self) -> Option<u64> {
        match self.kind {
            FaultKind::PanicRequest(n) => Some(n),
            _ => None,
        }
    }

    /// True for `cache-poison`.
    pub fn is_cache_poison(&self) -> bool {
        self.kind == FaultKind::CachePoison
    }
}

fn parse_epoch(target: &str) -> Result<u64, String> {
    target
        .parse::<u64>()
        .map_err(|_| format!("invalid epoch `{target}`"))
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.kind.is_training() {
            write!(f, "{}@{},seed={}", self.kind, self.epoch, self.seed)
        } else {
            // Serve-path kinds carry the target inside the kind's Display.
            write!(f, "{},seed={}", self.kind, self.seed)
        }
    }
}

/// The ambient `SES_FAULT` spec, read once per process. The drill binaries
/// (`fault-drill`, `serve-drill`) call it and pass the result in their
/// config; the libraries never read the environment themselves.
///
/// # Panics
/// Panics on a malformed `SES_FAULT` value: a mistyped fault drill must die
/// loudly rather than measure nothing.
pub fn from_env() -> Option<FaultSpec> {
    static CACHE: OnceLock<Option<FaultSpec>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        let raw = std::env::var("SES_FAULT").ok()?;
        if raw.trim().is_empty() {
            return None;
        }
        match FaultSpec::parse(&raw) {
            Ok(spec) => Some(spec),
            // lint:allow(no-unwrap): a mistyped fault drill must die loudly, not run clean
            Err(e) => panic!("SES_FAULT=`{raw}`: {e}"),
        }
    })
}

/// Injects one `NaN` into one gradient, chosen deterministically from
/// `seed`. `grads` is the per-parameter gradient list (absent entries are
/// parameters the loss never reached). Returns `false` when there is
/// nothing to corrupt.
pub fn corrupt_one_grad(grads: &mut [Option<Matrix>], seed: u64) -> bool {
    let present: Vec<usize> = grads
        .iter()
        .enumerate()
        .filter_map(|(i, g)| g.as_ref().map(|_| i))
        .collect();
    if present.is_empty() {
        return false;
    }
    // lint:allow(no-narrowing-cast): indices are tiny by construction
    let which = present[(seed as usize) % present.len()];
    let Some(g) = grads[which].as_mut() else {
        return false;
    };
    let len = g.as_slice().len();
    if len == 0 {
        return false;
    }
    let elem = (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) as usize) % len;
    g.as_mut_slice()[elem] = f32::NAN;
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec() {
        let spec = FaultSpec::parse("nan-grad@3,seed=7").expect("valid");
        assert_eq!(
            spec,
            FaultSpec {
                kind: FaultKind::NanGrad,
                epoch: 3,
                seed: 7
            }
        );
        assert!(spec.fires_at(3));
        assert!(!spec.fires_at(4));
    }

    #[test]
    fn seed_defaults_to_zero() {
        let spec = FaultSpec::parse("worker-panic@0").expect("valid");
        assert_eq!(spec.kind, FaultKind::WorkerPanic);
        assert_eq!(spec.seed, 0);
    }

    #[test]
    fn parses_serve_path_kinds() {
        let spec = FaultSpec::parse("slow-stage@encode").expect("valid");
        assert_eq!(spec.kind, FaultKind::SlowStage(ServeStage::Encode));
        assert_eq!(spec.slow_stage(), Some(ServeStage::Encode));
        assert!(
            !spec.fires_at(0),
            "serve kinds never fire on the epoch axis"
        );

        for (raw, stage) in [
            ("slow-stage@extract", ServeStage::Extract),
            ("slow-stage@mask", ServeStage::Mask),
            ("slow-stage@rank", ServeStage::Rank),
        ] {
            assert_eq!(
                FaultSpec::parse(raw).expect("valid").slow_stage(),
                Some(stage)
            );
        }

        let spec = FaultSpec::parse("panic@request-3,seed=9").expect("valid");
        assert_eq!(spec.kind, FaultKind::PanicRequest(3));
        assert_eq!(spec.panic_request(), Some(3));
        assert_eq!(spec.seed, 9);

        let spec = FaultSpec::parse("cache-poison").expect("valid");
        assert!(spec.is_cache_poison());
        let spec = FaultSpec::parse("cache-poison,seed=4").expect("valid");
        assert_eq!(spec.seed, 4);
    }

    #[test]
    fn display_round_trips() {
        for raw in [
            "nan-grad@3,seed=7",
            "worker-panic@0,seed=0",
            "ckpt-io@12,seed=99",
            "slow-stage@extract,seed=0",
            "slow-stage@rank,seed=2",
            "panic@request-5,seed=1",
            "cache-poison,seed=0",
        ] {
            let spec = FaultSpec::parse(raw).expect("valid");
            assert_eq!(FaultSpec::parse(&spec.to_string()), Ok(spec));
        }
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "nan-grad",
            "nan-grad@",
            "nan-grad@x",
            "typo@3",
            "nan-grad@3,seed=",
            "nan-grad@3,sead=1",
            "nan-grad@3,seed=abc",
            // serve-path malformed forms: every shape that almost parses
            "slow-stage",
            "slow-stage@",
            "slow-stage@bogus",
            "slow-stage@3",
            "slow-stage@Extract",
            "panic",
            "panic@",
            "panic@3",
            "panic@request-",
            "panic@request-x",
            "panic@request",
            "cache-poison@1",
            "cache-poison@",
            "cache-poison,seed=x",
        ] {
            assert!(FaultSpec::parse(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn serve_accessors_are_none_for_training_kinds() {
        let spec = FaultSpec::parse("nan-grad@1").expect("valid");
        assert_eq!(spec.slow_stage(), None);
        assert_eq!(spec.panic_request(), None);
        assert!(!spec.is_cache_poison());
    }

    #[test]
    fn corrupt_one_grad_is_deterministic_and_skips_absent() {
        let mk = || {
            vec![
                None,
                Some(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0])),
                Some(Matrix::from_vec(1, 3, vec![5.0, 6.0, 7.0])),
            ]
        };
        let mut a = mk();
        let mut b = mk();
        assert!(corrupt_one_grad(&mut a, 42));
        assert!(corrupt_one_grad(&mut b, 42));
        for (ga, gb) in a.iter().zip(&b) {
            match (ga, gb) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    let nan_x: Vec<usize> = x
                        .as_slice()
                        .iter()
                        .enumerate()
                        .filter(|(_, v)| v.is_nan())
                        .map(|(i, _)| i)
                        .collect();
                    let nan_y: Vec<usize> = y
                        .as_slice()
                        .iter()
                        .enumerate()
                        .filter(|(_, v)| v.is_nan())
                        .map(|(i, _)| i)
                        .collect();
                    assert_eq!(nan_x, nan_y, "same seed must hit the same element");
                }
                _ => panic!("presence pattern changed"),
            }
        }
        let total_nans: usize = a
            .iter()
            .flatten()
            .map(|g| g.as_slice().iter().filter(|v| v.is_nan()).count())
            .sum();
        assert_eq!(total_nans, 1, "exactly one element corrupted");
        assert!(a[0].is_none(), "absent grads stay absent");
    }

    #[test]
    fn corrupt_one_grad_handles_empty() {
        assert!(!corrupt_one_grad(&mut [], 0));
        assert!(!corrupt_one_grad(&mut [None, None], 0));
    }
}
