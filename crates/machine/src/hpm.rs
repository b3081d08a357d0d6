//! Hardware performance monitor per CPU: PMC sampling configuration, the
//! Branch Trace Buffer, and the Data Event Address Register.
//!
//! These are the three profile sources §3.1 of the paper enumerates:
//!
//! * Four programmable counters (we expose the full event set of
//!   [`crate::events::Event`]; a PMC is a view of the free-running per-CPU
//!   counters with a programmable sampling period and overflow flag).
//! * The **BTB** keeps the last four taken branch (source, target) address
//!   pairs — COBRA's trace selection rebuilds loop boundaries from them.
//! * The **DEAR** latches the most recent demand-load miss whose latency
//!   exceeded a programmable threshold (instruction address, data address,
//!   latency). §4's two-level filter first programs the threshold just above
//!   the L3 hit latency, then classifies latencies in the coherent band.

use serde::{Deserialize, Serialize};

use crate::events::{CpuStats, Event};

/// One (source, target) pair of a taken branch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BtbEntry {
    pub src: u32,
    pub target: u32,
}

/// Number of branch pairs the BTB retains (Itanium 2: four pairs).
pub(crate) const BTB_PAIRS: usize = 4;

/// The latched data-event address record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DearRecord {
    /// Instruction (slot) address of the missing load.
    pub pc: u32,
    /// Byte address of the data access.
    pub addr: u64,
    /// Observed load-to-use latency in cycles.
    pub latency: u64,
    /// Cycle at which the event was latched.
    pub cycle: u64,
}

/// Sampling configuration of one PMC.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SamplingConfig {
    /// Which event drives the sampling counter.
    pub event: Event,
    /// Overflow period (events between samples).
    pub period: u64,
}

/// Per-CPU monitor state.
#[derive(Debug, Clone)]
pub struct Hpm {
    btb: [BtbEntry; BTB_PAIRS],
    btb_next: usize,
    btb_filled: usize,
    dear: Option<DearRecord>,
    /// DEAR latency filter threshold (events below it are not latched).
    pub dear_min_latency: u64,
    sampling: Option<SamplingState>,
}

/// State captured by the sampling hardware at the instant a counter
/// overflows (a real PMU interrupt records the event-time state; deferring
/// capture to the driver's poll would smear timestamps across the quantum).
#[derive(Debug, Clone, PartialEq)]
pub struct OverflowCapture {
    pub cycle: u64,
    pub pc: u32,
    /// Software thread id running at overflow (`u32::MAX` if none).
    pub tid: u32,
    /// Snapshot of all free-running counters at overflow.
    pub stats: CpuStats,
    /// BTB contents at overflow.
    pub btb: Vec<BtbEntry>,
    /// DEAR latch at overflow.
    pub dear: Option<DearRecord>,
}

/// Maximum captures buffered in the monitor between driver polls.
pub(crate) const MAX_PENDING_CAPTURES: usize = 256;

#[derive(Debug, Clone)]
struct SamplingState {
    config: SamplingConfig,
    next_threshold: u64,
    pending: Vec<OverflowCapture>,
    dropped: u64,
}

impl Hpm {
    pub fn new(dear_min_latency: u64) -> Self {
        Hpm {
            btb: [BtbEntry::default(); BTB_PAIRS],
            btb_next: 0,
            btb_filled: 0,
            dear: None,
            dear_min_latency,
            sampling: None,
        }
    }

    /// Record a taken branch.
    pub(crate) fn btb_push(&mut self, src: u32, target: u32) {
        self.btb[self.btb_next] = BtbEntry { src, target };
        self.btb_next = (self.btb_next + 1) % BTB_PAIRS;
        self.btb_filled = (self.btb_filled + 1).min(BTB_PAIRS);
    }

    /// The retained branch pairs, oldest first.
    pub(crate) fn btb_snapshot(&self) -> Vec<BtbEntry> {
        let mut out = Vec::with_capacity(self.btb_filled);
        for k in 0..self.btb_filled {
            let idx = (self.btb_next + BTB_PAIRS - self.btb_filled + k) % BTB_PAIRS;
            out.push(self.btb[idx]);
        }
        out
    }

    /// Latch a qualifying data event (called by the memory system for demand
    /// loads). Events below the latency threshold are filtered in hardware.
    /// Returns true when the event was latched (so the caller can count
    /// `DATA_EAR_EVENTS`).
    pub(crate) fn dear_latch(&mut self, pc: u32, addr: u64, latency: u64, cycle: u64) -> bool {
        if latency < self.dear_min_latency {
            return false;
        }
        self.dear = Some(DearRecord {
            pc,
            addr,
            latency,
            cycle,
        });
        true
    }

    /// Current DEAR contents.
    pub fn dear(&self) -> Option<DearRecord> {
        self.dear
    }

    /// Program event sampling with the given period, clearing any previous
    /// configuration. `baseline` is the current free-running count of the
    /// event (the driver reads it from [`CpuStats`] at programming time).
    pub fn program_sampling(&mut self, config: SamplingConfig, baseline: u64) {
        assert!(config.period > 0, "sampling period must be positive");
        self.sampling = Some(SamplingState {
            config,
            next_threshold: baseline + config.period,
            pending: Vec::new(),
            dropped: 0,
        });
    }

    /// Stop sampling.
    pub fn stop_sampling(&mut self) {
        self.sampling = None;
    }

    /// The sampled event and how many more of it `stats` may count before
    /// the next overflow (≥ 1 after every poll). `None` when sampling is off.
    ///
    /// The fast engine's budget rule reads this to size a stretch or batch
    /// that polls only at its end: letting the event pass the headroom
    /// before the last cycle would smear a capture past its true cycle.
    pub(crate) fn sampling_headroom(&self, stats: &CpuStats) -> Option<(Event, u64)> {
        self.sampling.as_ref().map(|s| {
            let event = s.config.event;
            (event, s.next_threshold.saturating_sub(stats.get(event)))
        })
    }

    /// Check the free-running counters against the sampling threshold; on a
    /// crossing, capture the monitor state at this instant (one capture per
    /// crossed period; captures beyond the buffer are dropped and counted,
    /// like a saturated interrupt queue).
    pub(crate) fn poll_overflow(&mut self, stats: &CpuStats, pc: u32, tid: u32, cycle: u64) {
        let Some(s) = self.sampling.as_ref() else {
            return;
        };
        let current = stats.get(s.config.event);
        if current < s.next_threshold {
            return;
        }
        let btb = self.btb_snapshot();
        let dear = self.dear;
        let Some(s) = self.sampling.as_mut() else {
            return;
        };
        while current >= s.next_threshold {
            s.next_threshold += s.config.period;
            if s.pending.len() >= MAX_PENDING_CAPTURES {
                s.dropped += 1;
                continue;
            }
            s.pending.push(OverflowCapture {
                cycle,
                pc,
                tid,
                stats: stats.clone(),
                btb: btb.clone(),
                dear,
            });
        }
    }

    /// Take all pending captures (the perfmon driver converts each into a
    /// sample record).
    pub fn take_overflows(&mut self) -> Vec<OverflowCapture> {
        match self.sampling.as_mut() {
            Some(s) => std::mem::take(&mut s.pending),
            None => Vec::new(),
        }
    }

    /// Captures dropped because the interrupt queue was full.
    pub fn dropped_captures(&self) -> u64 {
        self.sampling.as_ref().map_or(0, |s| s.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn btb_keeps_last_four_pairs_in_order() {
        let mut h = Hpm::new(13);
        assert!(h.btb_snapshot().is_empty());
        for k in 0..6u32 {
            h.btb_push(k, 100 + k);
        }
        let snap = h.btb_snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(
            snap[0],
            BtbEntry {
                src: 2,
                target: 102
            }
        );
        assert_eq!(
            snap[3],
            BtbEntry {
                src: 5,
                target: 105
            }
        );
        // An overflow capture carries the same pairs in the same order.
        let mut stats = CpuStats::new();
        h.program_sampling(
            SamplingConfig {
                event: Event::InstRetired,
                period: 1,
            },
            0,
        );
        stats.add(Event::InstRetired, 1);
        h.poll_overflow(&stats, 0, 0, 0);
        assert_eq!(h.take_overflows()[0].btb, snap);
    }

    #[test]
    fn dear_filters_below_threshold() {
        let mut h = Hpm::new(13);
        assert!(!h.dear_latch(10, 0x1000, 12, 5), "L3 hits are filtered out");
        assert_eq!(h.dear(), None);
        assert!(
            h.dear_latch(10, 0x1000, 190, 6),
            "coherent-band latency latches"
        );
        let rec = h.dear().unwrap();
        assert_eq!(rec.latency, 190);
        assert_eq!(rec.pc, 10);
        // A newer qualifying event replaces the latch.
        assert!(h.dear_latch(11, 0x2000, 140, 7));
        assert_eq!(h.dear().unwrap().pc, 11);
    }

    #[test]
    fn sampling_overflow_captures_per_period() {
        let mut h = Hpm::new(13);
        let mut stats = CpuStats::new();
        stats.add(Event::InstRetired, 50);
        h.program_sampling(
            SamplingConfig {
                event: Event::InstRetired,
                period: 100,
            },
            stats.get(Event::InstRetired),
        );
        h.poll_overflow(&stats, 11, 2, 500);
        assert!(h.take_overflows().is_empty());
        stats.add(Event::InstRetired, 100);
        h.poll_overflow(&stats, 12, 2, 600);
        let caps = h.take_overflows();
        assert_eq!(caps.len(), 1);
        // The capture freezes the overflow-instant state.
        assert_eq!(caps[0].pc, 12);
        assert_eq!(caps[0].tid, 2);
        assert_eq!(caps[0].cycle, 600);
        assert_eq!(caps[0].stats.get(Event::InstRetired), 150);
        // Jumping several periods at once yields several captures.
        stats.add(Event::InstRetired, 350);
        h.poll_overflow(&stats, 13, 2, 700);
        assert_eq!(h.take_overflows().len(), 3);
        assert!(h.take_overflows().is_empty(), "taking drains");
        h.stop_sampling();
        stats.add(Event::InstRetired, 1000);
        h.poll_overflow(&stats, 14, 2, 800);
        assert!(h.take_overflows().is_empty());
        assert_eq!(h.dropped_captures(), 0);
    }

    #[test]
    fn capture_queue_saturates_and_counts_drops() {
        let mut h = Hpm::new(13);
        let mut stats = CpuStats::new();
        h.program_sampling(
            SamplingConfig {
                event: Event::InstRetired,
                period: 1,
            },
            0,
        );
        stats.add(Event::InstRetired, 2 * MAX_PENDING_CAPTURES as u64);
        h.poll_overflow(&stats, 1, 0, 1);
        assert_eq!(h.take_overflows().len(), MAX_PENDING_CAPTURES);
        assert_eq!(h.dropped_captures(), MAX_PENDING_CAPTURES as u64);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        let mut h = Hpm::new(13);
        h.program_sampling(
            SamplingConfig {
                event: Event::CpuCycles,
                period: 0,
            },
            0,
        );
    }
}
