//! Sample records, laid out as §3.1 of the paper describes:
//!
//! > "Each sample consists of a sample index, Program Counter (PC) address,
//! > process ID, thread ID, processor ID, four performance counters, eight
//! > BTB entries, data cache miss instruction address, miss latency, and
//! > miss data cache line address."
//!
//! (Four BTB *pairs* are eight buffer entries — four branch addresses and
//! four target addresses.)

use cobra_machine::{BtbEntry, DearRecord, Event};
use serde::{Deserialize, Serialize};

/// The fixed number of programmable performance counters (Itanium 2 exposes
/// four counting PMCs to perfmon).
pub const NUM_PMCS: usize = 4;

/// Selection of the four monitored events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PmcSelection {
    pub events: [Event; NUM_PMCS],
}

impl PmcSelection {
    /// The one selection COBRA programs: coherence traffic relative to
    /// total bus traffic, plus cache-miss progress counters. The driver
    /// programs these four and `cobra_rt::ThreadProfiler::reduce` finds
    /// each counter's slot in this same constant.
    pub const fn coherence_default() -> Self {
        PmcSelection {
            events: [
                Event::BusMemory,
                Event::BusRdHitm,
                Event::L2Miss,
                Event::L3Miss,
            ],
        }
    }
}

/// One sample captured on a PMC overflow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleRecord {
    /// Monotone per-CPU sample index.
    pub index: u64,
    /// PC of the monitored CPU at capture time.
    pub pc: u32,
    /// Process id (single simulated process: always 1).
    pub pid: u32,
    /// Software thread id running on the CPU (0xffff_ffff when idle).
    pub tid: u32,
    /// Processor id.
    pub cpu: u32,
    /// Machine cycle of the capture.
    pub cycle: u64,
    /// Free-running values of the four programmed counters.
    pub counters: [u64; NUM_PMCS],
    /// Events each counter is programmed to.
    pub events: [Event; NUM_PMCS],
    /// The last taken-branch pairs (up to four source/target pairs — the
    /// "eight BTB entries").
    pub btb: Vec<BtbEntry>,
    /// Data Event Address Register contents: the most recent qualifying
    /// cache-miss (instruction address, data address, latency).
    pub dear: Option<DearRecord>,
}

impl SampleRecord {
    /// Counter value for `event`, if it was one of the programmed four.
    #[cfg(test)]
    fn counter(&self, event: Event) -> Option<u64> {
        self.events
            .iter()
            .position(|&e| e == event)
            .map(|i| self.counters[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_lookup_by_event() {
        let sel = PmcSelection::coherence_default();
        let rec = SampleRecord {
            index: 0,
            pc: 5,
            pid: 1,
            tid: 2,
            cpu: 3,
            cycle: 100,
            counters: [10, 20, 30, 40],
            events: sel.events,
            btb: vec![],
            dear: None,
        };
        assert_eq!(rec.counter(Event::BusMemory), Some(10));
        assert_eq!(rec.counter(Event::L3Miss), Some(40));
        assert_eq!(rec.counter(Event::CpuCycles), None);
    }
}
