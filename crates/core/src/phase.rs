//! Phase detection — the *Continuous Re-Adaptation* in COBRA's name.
//!
//! §3.1: "using the number of L2 and L3 misses per 1000 instructions could
//! track the changes in cache miss patterns for detecting changes in data
//! working sets and their access behavior." The detector keeps an
//! exponentially-smoothed estimate of the miss rates; when a fresh window
//! departs from the estimate by more than a fixed factor, it reports
//! a phase change so the framework can reset the profile and let the
//! optimizer re-evaluate (e.g. after the program moves to a new data set).

use crate::profile::CounterWindow;

// Multi-pass programs alternate between loops with very different miss
// rates within one "phase"; the factor and the warm-up are sized so only
// sustained working-set changes fire.

/// A window whose miss rate differs from the smoothed estimate by more than
/// this factor (either direction) signals a phase change.
const CHANGE_FACTOR: f64 = 4.0;
/// Exponential smoothing weight of a fresh window in the running estimate.
const ALPHA: f64 = 0.3;
/// Windows folded into the estimate before a phase change can fire.
const WARMUP_WINDOWS: u32 = 6;
/// Fewer instructions than this make no meaningful rate; such windows are
/// skipped.
const MIN_INSTRUCTIONS: u64 = 20_000;

/// Running phase state.
#[derive(Debug, Clone)]
pub(crate) struct PhaseDetector {
    smoothed_l2_kinst: f64,
    smoothed_l3_kinst: f64,
    windows_seen: u32,
    phases: u64,
}

impl Default for PhaseDetector {
    fn default() -> Self {
        PhaseDetector {
            smoothed_l2_kinst: 0.0,
            smoothed_l3_kinst: 0.0,
            windows_seen: 0,
            phases: 1,
        }
    }
}

impl PhaseDetector {
    /// Feed one merged window; returns true when a phase change is detected
    /// (the estimate restarts from the new window).
    pub fn observe(&mut self, window: &CounterWindow) -> bool {
        if window.instructions < MIN_INSTRUCTIONS {
            return false;
        }
        let l2 = window.l2_per_kinst();
        let l3 = window.l3_per_kinst();
        self.windows_seen += 1;
        // The warm-up windows, the first among them, *define* the estimate.
        if self.windows_seen <= WARMUP_WINDOWS {
            self.fold(l2, l3);
            return false;
        }
        let changed = Self::departed(self.smoothed_l2_kinst, l2)
            || Self::departed(self.smoothed_l3_kinst, l3);
        if changed {
            // Restart the estimate at the new behaviour.
            self.smoothed_l2_kinst = l2;
            self.smoothed_l3_kinst = l3;
            self.windows_seen = 1;
            self.phases += 1;
            true
        } else {
            self.fold(l2, l3);
            false
        }
    }

    fn fold(&mut self, l2: f64, l3: f64) {
        let a = ALPHA;
        if self.windows_seen == 1 {
            self.smoothed_l2_kinst = l2;
            self.smoothed_l3_kinst = l3;
        } else {
            self.smoothed_l2_kinst = a * l2 + (1.0 - a) * self.smoothed_l2_kinst;
            self.smoothed_l3_kinst = a * l3 + (1.0 - a) * self.smoothed_l3_kinst;
        }
    }

    fn departed(smoothed: f64, fresh: f64) -> bool {
        // Both near zero: no change. A rate appearing from (or vanishing to)
        // nothing is a change once it is non-trivial.
        let floor = 0.05;
        let s = smoothed.max(floor);
        let f = fresh.max(floor);
        (f / s) > CHANGE_FACTOR || (s / f) > CHANGE_FACTOR
    }

    /// Phases observed so far (starts at 1).
    pub(crate) fn phases(&self) -> u64 {
        self.phases
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(l2: u64, l3: u64) -> CounterWindow {
        CounterWindow {
            instructions: 100_000,
            cycles: 150_000,
            bus_memory: 100,
            bus_coherent: 10,
            l2_miss: l2,
            l3_miss: l3,
        }
    }

    #[test]
    fn stable_behaviour_never_fires() {
        let mut d = PhaseDetector::default();
        for _ in 0..50 {
            assert!(!d.observe(&window(500, 300)));
        }
        assert_eq!(d.phases(), 1);
    }

    #[test]
    fn working_set_growth_fires_once_then_stabilizes() {
        let mut d = PhaseDetector::default();
        for _ in 0..10 {
            d.observe(&window(500, 100));
        }
        // Data set grows: L3 misses jump 10x.
        assert!(d.observe(&window(500, 1000)));
        assert_eq!(d.phases(), 2);
        // The new behaviour is now the baseline.
        let mut fired = false;
        for _ in 0..10 {
            fired |= d.observe(&window(520, 1050));
        }
        assert!(!fired);
    }

    #[test]
    fn shrinking_working_set_also_fires() {
        let mut d = PhaseDetector::default();
        for _ in 0..10 {
            d.observe(&window(2000, 1500));
        }
        assert!(d.observe(&window(2000, 10)));
    }

    /// `departed` uses a strict `>`: a fresh rate at *exactly* the change
    /// factor is still the same phase; one epsilon beyond departs.
    #[test]
    fn exact_threshold_delta_does_not_fire() {
        // Identical warm-up windows pin the estimate at their rate: 100
        // misses / 100k inst = 1.0 per kinst on both levels.
        let seeded = || {
            let mut d = PhaseDetector::default();
            for _ in 0..WARMUP_WINDOWS {
                assert!(!d.observe(&window(100, 100)));
            }
            assert_eq!((d.smoothed_l2_kinst, d.smoothed_l3_kinst), (1.0, 1.0));
            d
        };
        // Exactly 4.0x on both levels: ratio == factor, strict > says no.
        assert_eq!(CHANGE_FACTOR, 4.0);
        let mut d = seeded();
        assert!(!d.observe(&window(400, 400)));
        assert_eq!(d.phases(), 1);
        // One miss beyond the exact multiple crosses the threshold.
        let mut d = seeded();
        assert!(d.observe(&window(401, 100)));
        assert_eq!(d.phases(), 2);
    }

    /// Zero-instruction windows (idle quantum, all CPUs stalled out of the
    /// sampling window) are skipped without dividing by zero or aging the
    /// warm-up counter.
    #[test]
    fn zero_instruction_windows_are_inert() {
        let mut d = PhaseDetector::default();
        let empty = CounterWindow::default();
        for _ in 0..100 {
            assert!(!d.observe(&empty));
        }
        assert_eq!(d.phases(), 1);
        // The detector is still in pristine warm-up: the usual warm-up
        // window count must elapse before anything can fire.
        for _ in 0..WARMUP_WINDOWS {
            assert!(!d.observe(&window(500, 100)));
        }
        assert!(d.observe(&window(500, 5000)));
        assert_eq!(d.phases(), 2);
    }

    /// Zero misses on a busy window: the 0.05 floor keeps a silent cache
    /// from reading as an infinite-ratio phase change against a quiet
    /// baseline, while a real burst from silence still fires.
    #[test]
    fn silence_to_silence_is_stable_but_burst_from_silence_fires() {
        let mut d = PhaseDetector::default();
        for _ in 0..10 {
            assert!(!d.observe(&window(0, 0)));
        }
        assert_eq!(d.phases(), 1);
        // 100 misses/kinst against a floored 0.05 baseline: departs.
        assert!(d.observe(&window(10_000, 0)));
        assert_eq!(d.phases(), 2);
    }

    #[test]
    fn warmup_and_tiny_windows_are_ignored() {
        let mut d = PhaseDetector::default();
        // Wild swings during warm-up do not fire.
        assert!(!d.observe(&window(10, 5)));
        assert!(!d.observe(&window(4000, 2000)));
        // Windows below the instruction floor are skipped entirely.
        let tiny = CounterWindow {
            instructions: 10,
            ..window(9999, 9999)
        };
        for _ in 0..20 {
            assert!(!d.observe(&tiny));
        }
    }
}
