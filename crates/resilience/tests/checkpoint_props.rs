//! Property tests for the checkpoint wire format: arbitrary model shapes
//! and values (including NaN/±inf/−0.0 payloads) round-trip bit-exactly,
//! and *any* truncation, single-bit corruption, or trailing garbage on a
//! valid file is detected — a damaged checkpoint is never silently loaded.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use ses_resilience::{
    latest_checkpoint, rotated_path, CheckpointError, ParamState, TrainCheckpoint,
};

/// Assembles a checkpoint from flat fuzz inputs: `dims` pairs become
/// parameter shapes, `raw` feeds values cyclically, and a deterministic
/// sprinkle of IEEE specials (NaN, ±inf, −0.0, subnormal) exercises the
/// payloads `==` can't compare.
fn build_ckpt(
    epoch: u64,
    adam_steps: u64,
    lr: f32,
    rng_state: &[u64],
    dims: &[usize],
    raw: &[f32],
) -> TrainCheckpoint {
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1e-40];
    let mut cursor = 0usize;
    let next = |cursor: &mut usize| -> f32 {
        let i = *cursor;
        *cursor += 1;
        if i % 11 == 7 {
            specials[i % specials.len()]
        } else {
            raw[i % raw.len()]
        }
    };
    let params = dims
        .chunks_exact(2)
        .map(|pair| {
            let (rows, cols) = (pair[0], pair[1]);
            let len = rows * cols;
            ParamState {
                rows,
                cols,
                value: (0..len).map(|_| next(&mut cursor)).collect(),
                m: (0..len).map(|_| next(&mut cursor)).collect(),
                v: (0..len).map(|_| next(&mut cursor)).collect(),
            }
        })
        .collect();
    TrainCheckpoint {
        epoch,
        adam_steps,
        lr,
        rng_state: [rng_state[0], rng_state[1], rng_state[2], rng_state[3]],
        params,
    }
}

/// f32 slices compared by bit pattern so NaN payloads count as equal to
/// themselves (the format must preserve them even though `==` won't).
fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn is_typed_rejection(err: &CheckpointError) -> bool {
    matches!(
        err,
        CheckpointError::BadMagic
            | CheckpointError::ChecksumMismatch
            | CheckpointError::Truncated { .. }
            | CheckpointError::Malformed(_)
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_checkpoints_round_trip_bit_exactly(
        epoch in 0u64..1_000_000_000_000,
        adam_steps in 0u64..1_000_000_000_000,
        lr in -10.0f32..10.0,
        rng_state in proptest::collection::vec(0u64..u64::MAX, 4),
        dims in proptest::collection::vec(1usize..6, 0..12),
        raw in proptest::collection::vec(-1e6f32..1e6, 1..64),
    ) {
        let ckpt = build_ckpt(epoch, adam_steps, lr, &rng_state, &dims, &raw);
        let encoded = ckpt.to_bytes();
        let decoded = TrainCheckpoint::from_bytes(&encoded).expect("valid bytes must decode");
        prop_assert_eq!(decoded.epoch, ckpt.epoch);
        prop_assert_eq!(decoded.adam_steps, ckpt.adam_steps);
        prop_assert_eq!(decoded.lr.to_bits(), ckpt.lr.to_bits());
        prop_assert_eq!(decoded.rng_state, ckpt.rng_state);
        prop_assert_eq!(decoded.params.len(), ckpt.params.len());
        for (d, o) in decoded.params.iter().zip(ckpt.params.iter()) {
            prop_assert_eq!((d.rows, d.cols), (o.rows, o.cols));
            prop_assert_eq!(bits(&d.value), bits(&o.value));
            prop_assert_eq!(bits(&d.m), bits(&o.m));
            prop_assert_eq!(bits(&d.v), bits(&o.v));
        }
    }

    #[test]
    fn any_truncation_is_detected(
        rng_state in proptest::collection::vec(0u64..u64::MAX, 4),
        dims in proptest::collection::vec(1usize..6, 2..10),
        raw in proptest::collection::vec(-100.0f32..100.0, 1..16),
        cut in 0usize..1_000_000,
    ) {
        let ckpt = build_ckpt(3, 4, 0.01, &rng_state, &dims, &raw);
        let encoded = ckpt.to_bytes();
        let cut = cut % encoded.len(); // strictly shorter than the original
        let err = TrainCheckpoint::from_bytes(&encoded[..cut])
            .expect_err("truncated checkpoint must not load");
        prop_assert!(is_typed_rejection(&err), "unexpected error class: {err}");
    }

    #[test]
    fn any_single_bit_flip_is_detected(
        rng_state in proptest::collection::vec(0u64..u64::MAX, 4),
        dims in proptest::collection::vec(1usize..6, 0..10),
        raw in proptest::collection::vec(-100.0f32..100.0, 1..16),
        byte in 0usize..1_000_000,
        bit in 0u32..8,
    ) {
        let ckpt = build_ckpt(7, 9, 3e-3, &rng_state, &dims, &raw);
        let mut encoded = ckpt.to_bytes();
        let byte = byte % encoded.len();
        encoded[byte] ^= 1u8 << bit;
        // A flip anywhere — magic, payload, or checksum trailer — must
        // surface as *some* typed error; silently loading wrong state is
        // the one unacceptable outcome.
        let err = TrainCheckpoint::from_bytes(&encoded)
            .expect_err("corrupted checkpoint must not load");
        prop_assert!(is_typed_rejection(&err), "unexpected error class: {err}");
    }

    #[test]
    fn trailing_garbage_is_detected(
        rng_state in proptest::collection::vec(0u64..u64::MAX, 4),
        dims in proptest::collection::vec(1usize..6, 0..6),
        raw in proptest::collection::vec(-100.0f32..100.0, 1..16),
        extra in 1usize..32,
    ) {
        let ckpt = build_ckpt(1, 2, 0.5, &rng_state, &dims, &raw);
        let mut encoded = ckpt.to_bytes();
        encoded.extend(std::iter::repeat_n(0xAAu8, extra));
        prop_assert!(TrainCheckpoint::from_bytes(&encoded).is_err());
    }

    /// Any single corrupted rotation file still resumes: `latest_checkpoint`
    /// skips the damaged entry and lands on the newest sibling that
    /// validates — never the corrupt one, never a hard error.
    #[test]
    fn single_corrupted_rotation_entry_still_resumes(
        rng_state in proptest::collection::vec(0u64..u64::MAX, 4),
        raw in proptest::collection::vec(-100.0f32..100.0, 1..16),
        n_rotations in 2usize..5,
        victim in 0usize..1_000,
        damage in 0usize..1_000_000,
        mode in 0usize..3,
    ) {
        let dir = fresh_dir();
        let base = dir.join("train.ckpt");
        let epochs: Vec<u64> = (0..n_rotations as u64).map(|i| 10 + i).collect();
        for &epoch in &epochs {
            let ckpt = build_ckpt(epoch, epoch * 3, 0.01, &rng_state, &[2, 3], &raw);
            ckpt.write_atomic(&rotated_path(&base, epoch), false)
                .expect("rotation write");
        }
        let victim_epoch = epochs[victim % epochs.len()];
        let victim_path = rotated_path(&base, victim_epoch);
        corrupt_file(&victim_path, damage, mode);

        let resolved = latest_checkpoint(&base).expect("a valid sibling must remain");
        let resumed = TrainCheckpoint::read_from(&resolved)
            .expect("resolved checkpoint must load");
        // The newest *valid* epoch: the last rotation unless it was the victim.
        let expect_epoch = epochs
            .iter()
            .rev()
            .copied()
            .find(|&e| e != victim_epoch)
            .expect("n_rotations >= 2");
        prop_assert_eq!(resumed.epoch, expect_epoch);
        prop_assert_eq!(resolved, rotated_path(&base, expect_epoch));

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A unique scratch directory per proptest case (no timestamps — keyed off
/// the pid and a process-local counter).
fn fresh_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    // ordering: test-local unique-id counter; no data published
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ses-ckpt-props-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Damages the file at `path` one of three ways, keyed by `mode`:
/// truncation, a single bit flip, or whole-file garbage replacement.
fn corrupt_file(path: &std::path::Path, damage: usize, mode: usize) {
    let bytes = std::fs::read(path).expect("read victim");
    let damaged = match mode {
        0 => bytes[..damage % bytes.len()].to_vec(),
        1 => {
            let mut b = bytes;
            let at = damage % b.len();
            b[at] ^= 1u8 << (damage % 8);
            b
        }
        _ => vec![0x5Au8; 1 + damage % 64],
    };
    std::fs::write(path, damaged).expect("write damage");
}

/// The corrupt-skip path is observable: each skipped sibling moves the
/// `trainer.recover.corrupt_ckpt_skipped` counter.
#[test]
fn corrupt_skip_counter_moves() {
    let _obs = ses_obs::force_enabled(true);
    let dir = fresh_dir();
    let base = dir.join("train.ckpt");
    let ckpt = build_ckpt(5, 15, 0.01, &[1, 2, 3, 4], &[2, 2], &[1.0, -2.0]);
    ckpt.write_atomic(&rotated_path(&base, 5), false)
        .expect("write");
    let newest = build_ckpt(6, 18, 0.01, &[1, 2, 3, 4], &[2, 2], &[3.0, 4.0]);
    newest
        .write_atomic(&rotated_path(&base, 6), false)
        .expect("write");
    corrupt_file(&rotated_path(&base, 6), 13, 1);

    let before = ses_obs::metrics::TRAIN_RECOVER_CORRUPT_CKPT_SKIPPED.get();
    let resolved = latest_checkpoint(&base).expect("epoch 5 still valid");
    assert_eq!(resolved, rotated_path(&base, 5));
    let after = ses_obs::metrics::TRAIN_RECOVER_CORRUPT_CKPT_SKIPPED.get();
    assert_eq!(after, before + 1, "one skipped sibling, one count");

    let _ = std::fs::remove_dir_all(&dir);
}
