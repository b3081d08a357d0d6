//! Performance events and per-CPU statistics.
//!
//! The event vocabulary mirrors the Itanium 2 PMU events the paper uses in
//! §3.1/§4: cycle and retirement counts, cache miss/writeback counts per
//! level, and the coherent-bus snoop-response events (`BUS_RD_HIT`,
//! `BUS_RD_HITM`, `BUS_RD_INVAL_ALL_HITM`) relative to total bus traffic
//! (`BUS_MEMORY`). COBRA's profiler estimates the fraction of coherent
//! memory accesses as `(BUS_RD_HIT + BUS_RD_HITM + BUS_RD_INVAL_ALL_HITM +
//! BUS_UPGRADE) / BUS_MEMORY`.

use serde::{Deserialize, Serialize};

/// A hardware performance event. Events are attributed to the CPU that
/// *initiated* the access (the monitoring-processor view the paper's
/// per-thread profiling relies on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(usize)]
pub enum Event {
    /// Elapsed CPU cycles.
    CpuCycles,
    /// Retired instructions (`IA64_INST_RETIRED`).
    InstRetired,
    /// L1D load misses (integer side only; FP loads bypass L1 on Itanium 2).
    L1dMiss,
    /// L2 misses (demand and prefetch).
    L2Miss,
    /// L3 misses — on Itanium these become bus/memory transactions, which is
    /// why the paper's Figures 6 and 7 track each other.
    L3Miss,
    /// Dirty lines written back out of L2.
    L2Writeback,
    /// Dirty lines written back out of L3 (to the bus/memory).
    L3Writeback,
    /// All memory bus transactions initiated by this CPU (`BUS_MEMORY`).
    BusMemory,
    /// Read snooped another cache holding the line clean (`BUS_RD_HIT`).
    BusRdHit,
    /// Read snooped a modified line in another cache (`BUS_RD_HITM`).
    BusRdHitm,
    /// Read-for-ownership snooped a modified line (`BUS_RD_INVAL_ALL_HITM`).
    BusRdInvalAllHitm,
    /// Store upgrade of a Shared line (invalidation broadcast).
    BusUpgrade,
    /// Demand loads whose latency qualified for the DEAR latency filter.
    DearEvents,
    /// `lfetch` instructions issued (predicated-off slots excluded).
    LfetchIssued,
    /// `lfetch` dropped because all MSHRs were busy (non-binding semantics).
    LfetchDropped,
    /// Cycles the core was stalled waiting for operands or memory structures.
    StallCycles,
    /// Taken branches (feeds the Branch Trace Buffer).
    BrTaken,
    /// Guest memory faults (out-of-bounds data accesses that terminated the
    /// offending thread instead of the simulator host).
    GuestFaults,
}

/// Number of distinct events.
pub const NUM_EVENTS: usize = Event::GuestFaults as usize + 1;

/// All events, for iteration/reporting.
pub const ALL_EVENTS: [Event; NUM_EVENTS] = [
    Event::CpuCycles,
    Event::InstRetired,
    Event::L1dMiss,
    Event::L2Miss,
    Event::L3Miss,
    Event::L2Writeback,
    Event::L3Writeback,
    Event::BusMemory,
    Event::BusRdHit,
    Event::BusRdHitm,
    Event::BusRdInvalAllHitm,
    Event::BusUpgrade,
    Event::DearEvents,
    Event::LfetchIssued,
    Event::LfetchDropped,
    Event::StallCycles,
    Event::BrTaken,
    Event::GuestFaults,
];

impl Event {
    /// Short mnemonic for reports.
    pub fn name(self) -> &'static str {
        match self {
            Event::CpuCycles => "CPU_CYCLES",
            Event::InstRetired => "IA64_INST_RETIRED",
            Event::L1dMiss => "L1D_READ_MISSES",
            Event::L2Miss => "L2_MISSES",
            Event::L3Miss => "L3_MISSES",
            Event::L2Writeback => "L2_WRITEBACKS",
            Event::L3Writeback => "L3_WRITEBACKS",
            Event::BusMemory => "BUS_MEMORY",
            Event::BusRdHit => "BUS_RD_HIT",
            Event::BusRdHitm => "BUS_RD_HITM",
            Event::BusRdInvalAllHitm => "BUS_RD_INVAL_ALL_HITM",
            Event::BusUpgrade => "BUS_UPGRADE",
            Event::DearEvents => "DATA_EAR_EVENTS",
            Event::LfetchIssued => "LFETCH_ISSUED",
            Event::LfetchDropped => "LFETCH_DROPPED",
            Event::StallCycles => "BE_STALL_CYCLES",
            Event::BrTaken => "BR_TAKEN",
            Event::GuestFaults => "GUEST_FAULTS",
        }
    }
}

/// Per-CPU event counters, held inline: one per [`Event`], so a decoded
/// `counts` of any other length is a decode error.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CpuStats {
    counts: [u64; NUM_EVENTS],
}

impl CpuStats {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn add(&mut self, event: Event, n: u64) {
        self.counts[event as usize] += n;
    }

    #[inline]
    pub fn get(&self, event: Event) -> u64 {
        self.counts[event as usize]
    }

    /// Sum of the coherent snoop-response events (the numerator of the
    /// paper's coherent-access ratio).
    pub fn coherent_events(&self) -> u64 {
        self.get(Event::BusRdHit)
            + self.get(Event::BusRdHitm)
            + self.get(Event::BusRdInvalAllHitm)
            + self.get(Event::BusUpgrade)
    }

    /// Coherent bus events / total bus transactions; `None` when no bus
    /// traffic has been observed yet.
    pub fn coherent_ratio(&self) -> Option<f64> {
        let total = self.get(Event::BusMemory);
        if total == 0 {
            None
        } else {
            Some(self.coherent_events() as f64 / total as f64)
        }
    }

    /// The compact counter set telemetry snapshots at quantum boundaries:
    /// `(inst_retired, l2_miss, l3_miss, bus_memory, coherent)`.
    pub fn snapshot_counts(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.get(Event::InstRetired),
            self.get(Event::L2Miss),
            self.get(Event::L3Miss),
            self.get(Event::BusMemory),
            self.coherent_events(),
        )
    }

    /// Element-wise accumulate (for building machine-wide totals).
    pub fn merge(&mut self, other: &CpuStats) {
        for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
    }
}

/// Machine-wide totals across CPUs.
pub fn total(stats: &[CpuStats]) -> CpuStats {
    let mut sum = CpuStats::new();
    for s in stats {
        sum.merge(s);
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_indices_are_dense_and_named() {
        for (i, e) in ALL_EVENTS.iter().enumerate() {
            assert_eq!(*e as usize, i);
            assert!(!e.name().is_empty());
        }
    }

    #[test]
    fn coherent_ratio_matches_paper_formula() {
        let mut s = CpuStats::new();
        assert_eq!(s.coherent_ratio(), None);
        s.add(Event::BusMemory, 100);
        s.add(Event::BusRdHit, 10);
        s.add(Event::BusRdHitm, 20);
        s.add(Event::BusRdInvalAllHitm, 5);
        s.add(Event::BusUpgrade, 15);
        assert_eq!(s.coherent_events(), 50);
        assert!((s.coherent_ratio().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn counts_of_the_wrong_length_do_not_decode() {
        let mut s = CpuStats::new();
        s.add(Event::GuestFaults, 2);
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(serde_json::from_str::<CpuStats>(&json).unwrap(), s);
        // One counter short: `get(Event::GuestFaults)` would index past it.
        let short = format!("{{\"counts\":{:?}}}", vec![0u64; NUM_EVENTS - 1]);
        let err = serde_json::from_str::<CpuStats>(&short).unwrap_err();
        assert!(err.to_string().contains("length"), "{err}");
    }

    #[test]
    fn merge_and_total() {
        let mut a = CpuStats::new();
        a.add(Event::L3Miss, 3);
        let mut b = CpuStats::new();
        b.add(Event::L3Miss, 4);
        b.add(Event::CpuCycles, 7);
        let t = total(&[a.clone(), b.clone()]);
        assert_eq!(t.get(Event::L3Miss), 7);
        assert_eq!(t.get(Event::CpuCycles), 7);
        a.merge(&b);
        assert_eq!(a.get(Event::L3Miss), 7);
    }
}
