//! `alloc.saved_bytes` counts exactly the bytes a pool hit serves.
//!
//! The counter is process-global and nearly every kernel test reuses
//! scratch buffers on its own thread, so an exact delta only holds in a test
//! binary where nothing else runs: this file holds the one test.

use ses_tensor::scratch::{clear, give, take};

#[test]
fn saved_bytes_counter_moves_on_reuse() {
    let _obs = ses_obs::force_enabled(true);
    clear();
    let before = ses_obs::metrics::ALLOC_SAVED_BYTES.get();
    give(take(256));
    let _hit = take(256);
    assert_eq!(
        ses_obs::metrics::ALLOC_SAVED_BYTES.get() - before,
        256 * std::mem::size_of::<f32>() as u64
    );
}
