//! Zero-dependency binary training checkpoints.
//!
//! A [`TrainCheckpoint`] snapshots everything a full-batch training loop
//! needs to resume **bit-identically**: every parameter value, its Adam
//! moment buffers, the optimiser's step counter and learning rate, the
//! training RNG state, and the epoch counter. The on-disk format is
//! hand-rolled little-endian binary (this workspace is offline — no serde):
//!
//! ```text
//! magic    8 bytes   "SESCKPT1"
//! payload  epoch:u64  adam_steps:u64  lr:f32  rng_state:[u64;4]  n_params:u64
//!          then per parameter: rows:u64 cols:u64
//!                              value:[f32; rows*cols]
//!                              m:[f32; rows*cols]  v:[f32; rows*cols]
//! trailer  fnv1a64(payload):u64
//! ```
//!
//! Writes go through a temp file + atomic rename, so a crash mid-write can
//! never leave a half-written file under the checkpoint's name. Reads verify
//! the magic, the exact payload length, and the FNV-1a checksum — truncated
//! or corrupted files surface a typed [`CheckpointError`] and are never
//! silently loaded. See `docs/ROBUSTNESS.md`.

use std::fmt;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use ses_tensor::{Adam, Matrix, Optimizer, Param};

/// File magic, bumped with the format version.
const MAGIC: &[u8; 8] = b"SESCKPT1";

/// Why a checkpoint could not be written or loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure (open/write/rename/read), or the injected
    /// `SES_FAULT=ckpt-io` fault.
    Io {
        /// Path involved.
        path: PathBuf,
        /// Stringified OS error (or the injection marker).
        msg: String,
    },
    /// The file does not start with the `SESCKPT1` magic.
    BadMagic,
    /// The file ends before the declared payload does.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The FNV-1a trailer does not match the payload.
    ChecksumMismatch,
    /// Structurally invalid contents (impossible shapes, trailing bytes,
    /// or a shape mismatch against the live parameters on restore).
    Malformed(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, msg } => {
                write!(f, "checkpoint IO error at {}: {msg}", path.display())
            }
            CheckpointError::BadMagic => write!(f, "not a SES checkpoint (bad magic)"),
            CheckpointError::Truncated { needed, available } => write!(
                f,
                "checkpoint truncated: needed {needed} more byte(s), {available} available"
            ),
            CheckpointError::ChecksumMismatch => {
                write!(f, "checkpoint checksum mismatch (corrupted file)")
            }
            CheckpointError::Malformed(msg) => write!(f, "malformed checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// One parameter's snapshot: shape, value, and Adam moments.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamState {
    /// Rows of the parameter matrix.
    pub rows: usize,
    /// Columns of the parameter matrix.
    pub cols: usize,
    /// Row-major parameter values.
    pub value: Vec<f32>,
    /// Adam first-moment buffer.
    pub m: Vec<f32>,
    /// Adam second-moment buffer.
    pub v: Vec<f32>,
}

/// A complete, resumable training snapshot. See the module docs for the
/// serialised layout.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainCheckpoint {
    /// Last fully completed epoch (resume starts at `epoch + 1`).
    pub epoch: u64,
    /// Adam step counter (drives bias correction).
    pub adam_steps: u64,
    /// Learning rate at capture time (rollback applies backoff on top).
    pub lr: f32,
    /// Training RNG state ([`StdRng::state`]).
    pub rng_state: [u64; 4],
    /// Every trainable parameter, in `params_mut()` order.
    pub params: Vec<ParamState>,
}

impl TrainCheckpoint {
    /// Snapshots the live training state. `params` must be the same
    /// parameters, in the same order, that [`TrainCheckpoint::restore_into`]
    /// will later receive.
    pub fn capture(epoch: u64, opt: &Adam, rng: &StdRng, params: &[&mut Param]) -> Self {
        let params = params
            .iter()
            .map(|p| {
                let (rows, cols) = p.shape();
                let (m, v) = p.moments();
                ParamState {
                    rows,
                    cols,
                    value: p.value.as_slice().to_vec(),
                    m: m.as_slice().to_vec(),
                    v: v.as_slice().to_vec(),
                }
            })
            .collect();
        Self {
            epoch,
            adam_steps: opt.steps(),
            lr: opt.learning_rate(),
            rng_state: rng.state(),
            params,
        }
    }

    /// Restores the snapshot into live training state: parameter values,
    /// Adam moments and step counter, learning rate, and the RNG stream.
    /// Fails (without touching anything) when the parameter count or any
    /// shape disagrees with the snapshot.
    pub fn restore_into(
        &self,
        opt: &mut Adam,
        rng: &mut StdRng,
        params: &mut [&mut Param],
    ) -> Result<(), CheckpointError> {
        if params.len() != self.params.len() {
            return Err(CheckpointError::Malformed(format!(
                "checkpoint has {} parameter(s), model has {}",
                self.params.len(),
                params.len()
            )));
        }
        for (i, (live, saved)) in params.iter().zip(self.params.iter()).enumerate() {
            if live.shape() != (saved.rows, saved.cols) {
                return Err(CheckpointError::Malformed(format!(
                    "parameter {i}: checkpoint shape {}x{} != model shape {}x{}",
                    saved.rows,
                    saved.cols,
                    live.shape().0,
                    live.shape().1
                )));
            }
        }
        for (live, saved) in params.iter_mut().zip(self.params.iter()) {
            live.value = Matrix::from_vec(saved.rows, saved.cols, saved.value.clone());
            live.set_moments(
                Matrix::from_vec(saved.rows, saved.cols, saved.m.clone()),
                Matrix::from_vec(saved.rows, saved.cols, saved.v.clone()),
            );
        }
        opt.set_steps(self.adam_steps);
        opt.set_learning_rate(self.lr);
        *rng = StdRng::from_state(self.rng_state);
        Ok(())
    }

    /// Serialises to the documented binary layout (magic + payload +
    /// checksum trailer).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        push_u64(&mut payload, self.epoch);
        push_u64(&mut payload, self.adam_steps);
        payload.extend_from_slice(&self.lr.to_le_bytes());
        for s in self.rng_state {
            push_u64(&mut payload, s);
        }
        push_u64(&mut payload, self.params.len() as u64);
        for p in &self.params {
            push_u64(&mut payload, p.rows as u64);
            push_u64(&mut payload, p.cols as u64);
            for buf in [&p.value, &p.m, &p.v] {
                for &x in buf.iter() {
                    payload.extend_from_slice(&x.to_le_bytes());
                }
            }
        }
        let mut out = Vec::with_capacity(MAGIC.len() + payload.len() + 8);
        out.extend_from_slice(MAGIC);
        let sum = fnv1a64(&payload);
        out.extend_from_slice(&payload);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Decodes and fully validates a serialised checkpoint. Any deviation —
    /// wrong magic, short file, bad checksum, impossible shape, trailing
    /// bytes — is an error; a corrupt file is never partially loaded.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < MAGIC.len() {
            return Err(CheckpointError::BadMagic);
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let rest = &bytes[MAGIC.len()..];
        if rest.len() < 8 {
            return Err(CheckpointError::Truncated {
                needed: 8 - rest.len(),
                available: rest.len(),
            });
        }
        let (payload, trailer) = rest.split_at(rest.len() - 8);
        let mut sum = [0u8; 8];
        sum.copy_from_slice(trailer);
        if fnv1a64(payload) != u64::from_le_bytes(sum) {
            return Err(CheckpointError::ChecksumMismatch);
        }

        let mut pos = 0usize;
        let epoch = read_u64(payload, &mut pos)?;
        let adam_steps = read_u64(payload, &mut pos)?;
        let lr = read_f32(payload, &mut pos)?;
        let mut rng_state = [0u64; 4];
        for s in &mut rng_state {
            *s = read_u64(payload, &mut pos)?;
        }
        let n_params = read_u64(payload, &mut pos)?;
        let mut params = Vec::new();
        for i in 0..n_params {
            let rows = usize_from(read_u64(payload, &mut pos)?, "rows")?;
            let cols = usize_from(read_u64(payload, &mut pos)?, "cols")?;
            let len = rows.checked_mul(cols).ok_or_else(|| {
                CheckpointError::Malformed(format!("parameter {i}: shape {rows}x{cols} overflows"))
            })?;
            let value = read_f32_vec(payload, &mut pos, len)?;
            let m = read_f32_vec(payload, &mut pos, len)?;
            let v = read_f32_vec(payload, &mut pos, len)?;
            params.push(ParamState {
                rows,
                cols,
                value,
                m,
                v,
            });
        }
        if pos != payload.len() {
            return Err(CheckpointError::Malformed(format!(
                "{} trailing byte(s) after the declared payload",
                payload.len() - pos
            )));
        }
        Ok(Self {
            epoch,
            adam_steps,
            lr,
            rng_state,
            params,
        })
    }

    /// Writes the checkpoint to `path` via a sibling temp file and an atomic
    /// rename: readers only ever see the old complete file or the new
    /// complete file. Pass `inject_io_fault = true` (the seeded
    /// `SES_FAULT=ckpt-io` harness does) to simulate a failed write.
    pub fn write_atomic(&self, path: &Path, inject_io_fault: bool) -> Result<(), CheckpointError> {
        if inject_io_fault {
            return Err(CheckpointError::Io {
                path: path.to_path_buf(),
                msg: "injected IO fault (SES_FAULT=ckpt-io)".to_string(),
            });
        }
        let io_err = |msg: std::io::Error| CheckpointError::Io {
            path: path.to_path_buf(),
            msg: msg.to_string(),
        };
        let mut tmp_name = path.as_os_str().to_os_string();
        tmp_name.push(".tmp");
        let tmp = PathBuf::from(tmp_name);
        std::fs::write(&tmp, self.to_bytes()).map_err(io_err)?;
        std::fs::rename(&tmp, path).map_err(io_err)?;
        Ok(())
    }

    /// Reads and validates a checkpoint from disk.
    pub fn read_from(path: &Path) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path).map_err(|e| CheckpointError::Io {
            path: path.to_path_buf(),
            msg: e.to_string(),
        })?;
        Self::from_bytes(&bytes)
    }
}

/// Epoch-stamped rotation sibling of a base checkpoint path: `train.ckpt`
/// at epoch 7 becomes `train.ckpt.e00000007`. The fixed-width epoch keeps
/// lexical and numeric ordering in agreement (up to 10^8 epochs, far beyond
/// any training run here).
pub fn rotated_path(base: &Path, epoch: u64) -> PathBuf {
    let mut name = base.as_os_str().to_os_string();
    name.push(format!(".e{epoch:08}"));
    PathBuf::from(name)
}

/// Every rotated sibling of `base` currently on disk, as `(epoch, path)`
/// sorted ascending by epoch. Files whose suffix does not parse as an epoch
/// are ignored (they are not ours to manage).
pub fn rotated_checkpoints(base: &Path) -> Vec<(u64, PathBuf)> {
    let Some(file_name) = base.file_name().and_then(|n| n.to_str()) else {
        return Vec::new();
    };
    let dir = base.parent().filter(|p| !p.as_os_str().is_empty());
    let Ok(entries) = std::fs::read_dir(dir.unwrap_or(Path::new("."))) else {
        return Vec::new();
    };
    let prefix = format!("{file_name}.e");
    let mut found: Vec<(u64, PathBuf)> = entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name();
            let name = name.to_str()?;
            let epoch: u64 = name.strip_prefix(&prefix)?.parse().ok()?;
            Some((epoch, e.path()))
        })
        .collect();
    found.sort_by_key(|(epoch, _)| *epoch);
    found
}

/// The newest *valid* checkpoint reachable from `base`: candidates are the
/// rotated siblings newest-first, then `base` itself, and each is fully
/// read and checksum-validated before being offered. A corrupt or truncated
/// entry (torn disk write, bit rot) is skipped with a
/// `trainer.recover.corrupt_ckpt_skipped` count and a one-line warning —
/// resume falls back to the next-newest rotation copy instead of
/// hard-erroring on a file that can never load. Returns `None` when no
/// candidate validates. This is the resume entry point — callers pass it
/// straight to [`TrainCheckpoint::read_from`] (or a trainer's
/// `resume_from`), which is guaranteed to succeed barring a concurrent
/// delete.
pub fn latest_checkpoint(base: &Path) -> Option<PathBuf> {
    let mut candidates: Vec<PathBuf> = rotated_checkpoints(base)
        .into_iter()
        .rev()
        .map(|(_, path)| path)
        .collect();
    if base.exists() {
        candidates.push(base.to_path_buf());
    }
    for path in candidates {
        match TrainCheckpoint::read_from(&path) {
            Ok(_) => return Some(path),
            Err(e) => {
                ses_obs::metrics::TRAIN_RECOVER_CORRUPT_CKPT_SKIPPED.incr();
                ses_obs::info!(
                    "trainer.recover: skipping corrupt checkpoint {} ({e})",
                    path.display()
                );
            }
        }
    }
    None
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], CheckpointError> {
    let end = pos.checked_add(n).ok_or(CheckpointError::Truncated {
        needed: n,
        available: 0,
    })?;
    if end > buf.len() {
        return Err(CheckpointError::Truncated {
            needed: end - buf.len(),
            available: buf.len() - *pos,
        });
    }
    let out = &buf[*pos..end];
    *pos = end;
    Ok(out)
}

fn read_u64(buf: &[u8], pos: &mut usize) -> Result<u64, CheckpointError> {
    let mut b = [0u8; 8];
    b.copy_from_slice(take(buf, pos, 8)?);
    Ok(u64::from_le_bytes(b))
}

fn read_f32(buf: &[u8], pos: &mut usize) -> Result<f32, CheckpointError> {
    let mut b = [0u8; 4];
    b.copy_from_slice(take(buf, pos, 4)?);
    Ok(f32::from_le_bytes(b))
}

fn read_f32_vec(buf: &[u8], pos: &mut usize, len: usize) -> Result<Vec<f32>, CheckpointError> {
    let n_bytes = len.checked_mul(4).ok_or_else(|| {
        CheckpointError::Malformed(format!("parameter buffer of {len} floats overflows"))
    })?;
    let raw = take(buf, pos, n_bytes)?;
    Ok(raw
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

fn usize_from(v: u64, what: &str) -> Result<usize, CheckpointError> {
    usize::try_from(v).map_err(|_| CheckpointError::Malformed(format!("{what} {v} exceeds usize")))
}

/// FNV-1a 64-bit hash — small, dependency-free, and plenty to detect the
/// truncation/bit-rot class of corruption (this is an integrity check, not
/// an adversarial one).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn sample_checkpoint() -> TrainCheckpoint {
        TrainCheckpoint {
            epoch: 7,
            adam_steps: 8,
            lr: 3e-3,
            rng_state: [1, 2, 3, u64::MAX],
            params: vec![
                ParamState {
                    rows: 2,
                    cols: 3,
                    value: vec![1.0, -2.0, 3.5, 0.0, f32::MIN_POSITIVE, 6.0],
                    m: vec![0.1; 6],
                    v: vec![0.2; 6],
                },
                ParamState {
                    rows: 1,
                    cols: 1,
                    value: vec![42.0],
                    m: vec![0.0],
                    v: vec![0.0],
                },
            ],
        }
    }

    #[test]
    fn bytes_round_trip() {
        let c = sample_checkpoint();
        let decoded = TrainCheckpoint::from_bytes(&c.to_bytes()).expect("round trip");
        assert_eq!(decoded, c);
    }

    #[test]
    fn truncation_and_corruption_are_detected() {
        let bytes = sample_checkpoint().to_bytes();
        for cut in [0, 4, MAGIC.len(), bytes.len() / 2, bytes.len() - 1] {
            assert!(
                TrainCheckpoint::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must not load"
            );
        }
        for flip in [MAGIC.len() + 1, bytes.len() / 2, bytes.len() - 3] {
            let mut bad = bytes.clone();
            bad[flip] ^= 0x40;
            assert!(
                TrainCheckpoint::from_bytes(&bad).is_err(),
                "bit flip at {flip} must not load"
            );
        }
    }

    #[test]
    fn bad_magic_is_its_own_error() {
        let mut bytes = sample_checkpoint().to_bytes();
        bytes[0] = b'X';
        assert_eq!(
            TrainCheckpoint::from_bytes(&bytes),
            Err(CheckpointError::BadMagic)
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        // Valid payload + checksum, then junk: the checksum no longer covers
        // the file tail, so this must fail (as checksum mismatch — the
        // trailer moved).
        let mut bytes = sample_checkpoint().to_bytes();
        bytes.extend_from_slice(&[0xAB; 16]);
        assert!(TrainCheckpoint::from_bytes(&bytes).is_err());
    }

    #[test]
    fn atomic_write_round_trips_and_replaces() {
        let dir = std::env::temp_dir().join("ses-resilience-test-ckpt");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("a.ckpt");
        let c = sample_checkpoint();
        c.write_atomic(&path, false).expect("write");
        let mut c2 = c.clone();
        c2.epoch = 9;
        c2.write_atomic(&path, false).expect("overwrite");
        let back = TrainCheckpoint::read_from(&path).expect("read");
        assert_eq!(back, c2);
        // With no rotation copies beside it, the base path is the resume point.
        assert_eq!(latest_checkpoint(&path), Some(path.clone()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_io_fault_fails_write() {
        let path = std::env::temp_dir().join("ses-resilience-never-written.ckpt");
        let err = sample_checkpoint()
            .write_atomic(&path, true)
            .expect_err("injection must fail the write");
        assert!(matches!(err, CheckpointError::Io { .. }));
        assert!(!path.exists());
    }

    #[test]
    fn capture_restore_resumes_rng_and_adam() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut opt = Adam::new(0.01);
        let mut p = Param::new(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let g = Matrix::from_vec(2, 2, vec![0.5, -0.5, 0.25, -0.25]);
        opt.step(&mut [(&mut p, &g)]);
        let _burn: f32 = rng.gen();

        let ckpt = {
            let mut refs = vec![&mut p];
            TrainCheckpoint::capture(3, &opt, &rng, &refs.as_mut_slice()[..])
        };

        // Diverge the live state, then restore.
        opt.step(&mut [(&mut p, &g)]);
        let expected_next: u64 = {
            let mut probe = StdRng::from_state(ckpt.rng_state);
            probe.gen()
        };
        let _skip: u64 = rng.gen();

        let mut refs = vec![&mut p];
        ckpt.restore_into(&mut opt, &mut rng, refs.as_mut_slice())
            .expect("restore");
        assert_eq!(opt.steps(), 1);
        let after: u64 = rng.gen();
        assert_eq!(after, expected_next, "RNG stream must resume exactly");
        assert_eq!(p.value.as_slice(), &ckpt.params[0].value[..]);
    }

    #[test]
    fn restore_rejects_shape_mismatch() {
        let rng = StdRng::seed_from_u64(0);
        let mut opt = Adam::new(0.01);
        let mut p = Param::new(Matrix::zeros(2, 2));
        let ckpt = {
            let mut refs = vec![&mut p];
            TrainCheckpoint::capture(0, &opt, &rng, &refs.as_mut_slice()[..])
        };
        let mut wrong = Param::new(Matrix::zeros(3, 2));
        let mut rng2 = StdRng::seed_from_u64(0);
        let mut refs = vec![&mut wrong];
        assert!(matches!(
            ckpt.restore_into(&mut opt, &mut rng2, refs.as_mut_slice()),
            Err(CheckpointError::Malformed(_))
        ));
    }
}
