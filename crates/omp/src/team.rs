//! Thread teams and static loop scheduling.
//!
//! OpenMP's default static schedule "distribute[s] computations inside a
//! loop based on the loop index range regardless of data locations" (§5.1)
//! — which is exactly what creates the partition boundaries that aggressive
//! prefetching then crosses. The chunk computation here reproduces that
//! blocked distribution, with each thread bound to one CPU (the paper binds
//! each thread to a different processor).

use serde::{Deserialize, Serialize};

/// Calling convention for parallel-region bodies (register numbers the
/// runtime writes thread arguments into; all are non-rotating registers).
pub mod abi {
    /// Chunk lower bound (inclusive element index): `r8`.
    pub const R_LO: u8 = 8;
    /// Chunk upper bound (exclusive element index): `r9`.
    pub const R_HI: u8 = 9;
    /// Thread id within the team: `r10`.
    pub const R_TID: u8 = 10;
    /// Team size: `r11`.
    pub const R_NTH: u8 = 11;
    /// First user argument register: `r12` (up to [`MAX_USER_ARGS`]).
    pub const R_ARG0: u8 = 12;
    /// Number of user argument registers (`r12`–`r21`).
    pub(crate) const MAX_USER_ARGS: usize = 10;
}

/// A team of worker threads, thread `t` bound to CPU `t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Team {
    pub num_threads: usize,
}

impl Team {
    pub fn new(num_threads: usize) -> Self {
        assert!(num_threads >= 1);
        Team { num_threads }
    }

    /// Static (blocked) chunks of `[lo, hi)`: thread `t` gets the `t`-th
    /// contiguous block; remainders go to the leading threads, matching the
    /// usual `schedule(static)` split.
    pub fn static_chunks(&self, lo: i64, hi: i64) -> Vec<(i64, i64)> {
        assert!(hi >= lo, "empty or negative range");
        let n = self.num_threads as i64;
        let total = hi - lo;
        let base = total / n;
        let rem = total % n;
        let mut chunks = Vec::with_capacity(self.num_threads);
        let mut start = lo;
        for t in 0..n {
            let len = base + if t < rem { 1 } else { 0 };
            chunks.push((start, start + len));
            start += len;
        }
        debug_assert_eq!(start, hi);
        chunks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_range_exactly() {
        let team = Team::new(4);
        let chunks = team.static_chunks(0, 1000);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[0], (0, 250));
        assert_eq!(chunks[3], (750, 1000));
        // Contiguity.
        for w in chunks.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
    }

    #[test]
    fn remainder_goes_to_leading_threads() {
        let team = Team::new(4);
        let chunks = team.static_chunks(0, 10);
        assert_eq!(chunks, vec![(0, 3), (3, 6), (6, 8), (8, 10)]);
    }

    #[test]
    fn single_thread_takes_everything() {
        let team = Team::new(1);
        assert_eq!(team.static_chunks(5, 50), vec![(5, 50)]);
    }

    #[test]
    fn range_smaller_than_team() {
        let team = Team::new(4);
        let chunks = team.static_chunks(0, 2);
        assert_eq!(chunks, vec![(0, 1), (1, 2), (2, 2), (2, 2)]);
    }

    #[test]
    #[should_panic(expected = "empty or negative")]
    fn negative_range_panics() {
        Team::new(2).static_chunks(10, 0);
    }
}
