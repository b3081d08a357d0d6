//! How much the host is slowing the benchmark down right now, measured
//! beside the work.
//!
//! This sandbox is a two-CPU guest on a shared host. Its core shares its
//! issue ports and caches with whatever the host runs on the sibling
//! thread: for stretches of a few milliseconds to a few minutes the same
//! fixed work takes 1.2 to 2 times as long, and in a bad quarter of an
//! hour no 0.3 s cell runs undisturbed. The host's floor is steady (the
//! loop below reads 2.70 ns per step whenever nothing contends, all day), so
//! the disturbance only ever adds time — but no statistic over a run's
//! passes removes a disturbance that outlasts the run.
//!
//! So every cell is timed together with a probe of the host: a short loop
//! of eight independent multiply-add chains, which saturates the core's
//! issue ports and is therefore slowed by a busy sibling at least as much
//! as the simulator is. It runs just before the cell, every few
//! milliseconds while the cell runs (between simulation quanta, its time
//! kept out of the cell's), and just after. The cell's *slowdown* is the
//! mean of those samples over the quiet-host figure, and the cell's timing
//! is reported divided by it: seconds on the quiet host. The loop is this
//! file's own code, touches no memory and nothing under test, so a change
//! to the simulator cannot move it.
//!
//! Measured over 3600 cell timings of all six workloads on a disturbed
//! host: a latency-bound loop (one chain) does not see the disturbance at
//! all, a pointer chase through 8 MB sees a quarter of it, this loop tracks
//! it with a residual of 8–10 % per cell against 12–23 % uncorrected, and
//! the more samples around a cell the better (one before and after: 11 %;
//! eight: 8 %). It is a correction, not a cure (README.md, Steadiness).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nanoseconds per step of the probe on this sandbox's host when nothing
/// contends. Only the ratio to a sample matters; on another host every
/// timing is scaled by one constant.
const QUIET_NS: f64 = 2.70;
/// One sample: about 0.27 ms.
const STEPS: u64 = 100_000;
/// A sample read above this is a descheduled CPU, not a slow one; a busy
/// sibling costs at most a factor of 2.5.
const MAX_SLOWDOWN: f64 = 3.0;
/// Samples taken in a row before a cell and after it.
const EDGE_SAMPLES: usize = 6;
/// Gap between samples taken while a cell runs: 3 % of its time.
const SAMPLE_EVERY: Duration = Duration::from_millis(9);

/// Every sample of a run, as slowdowns, in the order taken.
#[derive(Default)]
pub struct Calibrator {
    samples: Vec<f64>,
}

/// Where a cell's samples begin.
#[derive(Clone, Copy)]
pub struct Mark(usize);

impl Calibrator {
    /// Time the probe once.
    pub fn sample(&mut self) {
        let t = Instant::now();
        let mut chains = [1u64, 2, 3, 4, 5, 6, 7, 8];
        for i in 0..black_box(STEPS) {
            for x in &mut chains {
                *x = (*x ^ (*x >> 29))
                    .wrapping_mul(0xbf58_476d_1ce4_e5b9)
                    .wrapping_add(i);
            }
        }
        black_box(chains);
        let ns = t.elapsed().as_nanos() as f64 / STEPS as f64;
        self.samples.push((ns / QUIET_NS).min(MAX_SLOWDOWN));
    }

    /// Open a cell: sample the host, and remember where.
    pub fn mark(&mut self) -> Mark {
        let mark = Mark(self.samples.len());
        (0..EDGE_SAMPLES).for_each(|_| self.sample());
        mark
    }

    /// Close a cell: sample the host again, and return the mean slowdown
    /// over everything sampled since `mark`, 1 on a quiet host.
    pub fn slowdown_since(&mut self, mark: Mark) -> f64 {
        (0..EDGE_SAMPLES).for_each(|_| self.sample());
        let cell = &self.samples[mark.0..];
        cell.iter().sum::<f64>() / cell.len() as f64
    }

    /// Mean slowdown over the whole run so far; 1 when nothing was sampled.
    pub fn mean_slowdown(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }
}

/// Samples the host every [`SAMPLE_EVERY`] while a cell runs. The caller
/// polls it wherever the work can be interrupted and takes `spent` out of
/// the cell's time.
pub struct Inline<'a> {
    host: &'a mut Calibrator,
    next: Instant,
    pub spent: Duration,
}

impl<'a> Inline<'a> {
    pub fn new(host: &'a mut Calibrator) -> Inline<'a> {
        Inline {
            host,
            next: Instant::now() + SAMPLE_EVERY,
            spent: Duration::ZERO,
        }
    }

    pub fn poll(&mut self) {
        let now = Instant::now();
        if now >= self.next {
            self.host.sample();
            let end = Instant::now();
            self.spent += end - now;
            self.next = end + SAMPLE_EVERY;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cells_slowdown_is_the_mean_of_its_own_samples() {
        let mut c = Calibrator::default();
        assert_eq!(c.mean_slowdown(), 1.0);
        c.samples.extend([9.0, 9.0]);
        let mark = c.mark();
        assert_eq!(mark.0, 2);
        let s = c.slowdown_since(mark);
        assert_eq!(c.samples.len(), 2 + 2 * EDGE_SAMPLES);
        let own = &c.samples[2..];
        assert!((s - own.iter().sum::<f64>() / own.len() as f64).abs() < 1e-12);
        assert!(own.iter().all(|&v| v > 0.0 && v <= MAX_SLOWDOWN));
    }

    #[test]
    fn inline_sampling_accounts_for_its_own_time() {
        let mut c = Calibrator::default();
        let mut inline = Inline::new(&mut c);
        inline.poll();
        assert_eq!(inline.spent, Duration::ZERO, "not due yet");
        inline.next = Instant::now();
        inline.poll();
        assert!(inline.spent > Duration::ZERO);
        assert_eq!(c.samples.len(), 1);
    }
}
