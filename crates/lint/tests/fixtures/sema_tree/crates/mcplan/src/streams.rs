//! Seeded rng-stream-discipline violations: a literal stream-id collision,
//! an RNG captured by a parallel closure, and a chunk loop re-deriving a
//! stream range.

use rayon::prelude::*;

/// The second `substream(42, 7)` collides with the first.
pub fn colliding_pair() -> (u64, u64) {
    let a = crate::rng::substream(42, 7);
    let b = crate::rng::substream(42, 7);
    (a, b)
}

/// One RNG value shared by every worker thread.
pub fn captured_rng(xs: &[u64]) -> Vec<u64> {
    let rng = crate::rng::substream(9, 1);
    xs.par_iter().map(|x| x ^ rng).collect()
}

/// The second loop re-derives the stream ids the first already consumed.
pub fn chunked_runs(chunks: u64) -> u64 {
    let mut acc = 0;
    for c in 0..chunks {
        acc ^= crate::rng::substream(1000, c);
    }
    for c in 0..chunks {
        acc ^= crate::rng::substream(1000, c);
    }
    acc
}

/// One RNG value shared by every worker of a parallel sweep.
pub fn captured_in_sweep(fa: &crate::Analyzer, xs: &[u64]) -> Vec<u64> {
    let rng = crate::rng::substream(9, 2);
    fa.sweep(xs, |_, _, x| x ^ rng)
}
