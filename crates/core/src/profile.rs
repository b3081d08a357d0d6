//! Dynamic profile aggregation.
//!
//! Each thread's [`ThreadProfiler`] reduces raw samples into a
//! [`ProfileDelta`]; the framework merges the deltas from every thread into
//! a [`SystemProfile`] — "optimization decisions are based on profiles
//! collected from multiple threads to determine if a system-wide
//! optimization is warranted" (§1). The profile tracks:
//!
//! * counter *rates* (per sampled instruction window): bus transactions,
//!   coherent snoop hits, L2/L3 misses — the coherent-access ratio of §4;
//! * DEAR-derived delinquent loads, classified by the second-level latency
//!   filter into *coherent-band* and *memory-band* misses;
//! * BTB branch-pair frequencies, the raw material of trace selection.

use std::collections::HashMap;

use cobra_isa::CodeAddr;
use cobra_machine::Event;
use cobra_perfmon::{PmcSelection, SampleRecord};
use serde::{Deserialize, Serialize};

/// Second-level DEAR latency classification thresholds (§4: memory loads run
/// 120–150 cycles while coherent misses exceed 180–200 on the SMP).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LatencyBands {
    /// Latencies at or above this are attributed to coherent misses.
    pub coherent_min: u64,
}

impl LatencyBands {
    /// Derive the bands from machine latencies: anything clearly above the
    /// plain memory latency is coherent.
    pub fn from_machine(cfg: &cobra_machine::MachineConfig) -> Self {
        LatencyBands {
            coherent_min: cfg.mem_latency + (cfg.hitm_latency - cfg.mem_latency) / 2,
        }
    }
}

/// Accumulated statistics for one delinquent-load site (one PC).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DelinquentStats {
    /// DEAR captures in the coherent latency band.
    pub coherent: u64,
    /// DEAR captures in the memory band (below coherent, above L3).
    pub memory: u64,
    /// Sum of observed latencies (for averages).
    pub total_latency: u64,
}

impl DelinquentStats {
    pub(crate) fn samples(&self) -> u64 {
        self.coherent + self.memory
    }

    /// Fraction of qualifying misses in the coherent band.
    pub(crate) fn coherent_fraction(&self) -> f64 {
        if self.samples() == 0 {
            0.0
        } else {
            self.coherent as f64 / self.samples() as f64
        }
    }
}

/// Windowed counter rates extracted from consecutive samples of one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CounterWindow {
    /// Instructions covered (samples × sampling period).
    pub instructions: u64,
    /// Machine cycles covered (from sample timestamps).
    pub cycles: u64,
    pub bus_memory: u64,
    pub bus_coherent: u64,
    pub l2_miss: u64,
    pub l3_miss: u64,
}

impl CounterWindow {
    pub(crate) fn merge(&mut self, other: &CounterWindow) {
        self.instructions += other.instructions;
        self.cycles += other.cycles;
        self.bus_memory += other.bus_memory;
        self.bus_coherent += other.bus_coherent;
        self.l2_miss += other.l2_miss;
        self.l3_miss += other.l3_miss;
    }

    /// Coherent bus events relative to all bus transactions (§4's ratio).
    pub(crate) fn coherent_ratio(&self) -> f64 {
        if self.bus_memory == 0 {
            0.0
        } else {
            self.bus_coherent as f64 / self.bus_memory as f64
        }
    }

    /// L3 misses per thousand instructions.
    pub(crate) fn l3_per_kinst(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            1000.0 * self.l3_miss as f64 / self.instructions as f64
        }
    }

    /// L2 misses per thousand instructions.
    pub(crate) fn l2_per_kinst(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            1000.0 * self.l2_miss as f64 / self.instructions as f64
        }
    }

    /// Capacity-driven L2 misses per kilo-instruction: total L2 misses
    /// minus coherent snoop hits (misses a bigger cache would not absorb
    /// are what make prefetching worth keeping — the §5.2 "L2 miss ratio"
    /// measured net of sharing).
    pub(crate) fn capacity_l2_per_kinst(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            1000.0 * self.l2_miss.saturating_sub(self.bus_coherent) as f64
                / self.instructions as f64
        }
    }

    /// Cycles per instruction (the regression-detection proxy).
    pub(crate) fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }
}

/// One profiler's reduction of a batch of samples: what
/// [`SystemProfile::absorb`] merges.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ProfileDelta {
    pub window: CounterWindow,
    /// (pc, latency) of DEAR captures in this batch.
    pub dear_events: Vec<(CodeAddr, u64)>,
    /// Taken-branch pairs observed in BTB snapshots.
    pub branch_pairs: Vec<(CodeAddr, CodeAddr)>,
    /// Number of raw samples reduced.
    pub samples: u64,
}

/// Slot of `event` among the counters the driver programs. A selection
/// without it fails to compile here, so the slots [`ThreadProfiler::reduce`]
/// reads cannot drift from the events the driver programs.
const fn pmc_slot(event: Event) -> usize {
    let events = PmcSelection::coherence_default().events;
    let mut k = 0;
    while events[k] as usize != event as usize {
        k += 1;
    }
    k
}

const BUS_MEMORY: usize = pmc_slot(Event::BusMemory);
const BUS_COHERENT: usize = pmc_slot(Event::BusRdHitm);
const L2_MISS: usize = pmc_slot(Event::L2Miss);
const L3_MISS: usize = pmc_slot(Event::L3Miss);

/// One working thread's monitor: reduces the [`SampleRecord`]s drained from
/// its CPU's kernel buffer into deltas.
#[derive(Debug)]
pub struct ThreadProfiler {
    cpu: u32,
    period: u64,
    last_counters: Option<[u64; 4]>,
    last_cycle: u64,
    last_tid: u32,
    last_dear_cycle: u64,
}

impl ThreadProfiler {
    pub fn new(cpu: u32, sampling_period: u64) -> Self {
        ThreadProfiler {
            cpu,
            period: sampling_period,
            last_counters: None,
            last_cycle: 0,
            last_tid: u32::MAX,
            last_dear_cycle: 0,
        }
    }

    /// Reduce a batch of samples into a delta. The four PMCs are read by
    /// their slots in [`PmcSelection::coherence_default`], the one selection
    /// the driver programs.
    pub fn reduce(&mut self, samples: &[SampleRecord]) -> ProfileDelta {
        let mut delta = ProfileDelta::default();
        for s in samples {
            debug_assert_eq!(s.cpu, self.cpu);
            delta.samples += 1;
            if let Some(prev) = self.last_counters {
                let d = |k: usize| s.counters[k].saturating_sub(prev[k]);
                delta.window.bus_memory += d(BUS_MEMORY);
                delta.window.bus_coherent += d(BUS_COHERENT);
                delta.window.l2_miss += d(L2_MISS);
                delta.window.l3_miss += d(L3_MISS);
                // A sample pair spanning a software-thread change (region
                // join/fork) includes idle time that would bias CPI upward,
                // and a pair with no elapsed cycles is a duplicate capture
                // from one poll batch (several overflows materialized at the
                // same instant) that would dilute CPI toward zero. Such
                // pairs contribute events but not time. Within one thread,
                // every elapsed cycle is real cost, however slow.
                let dc = s.cycle.saturating_sub(self.last_cycle);
                if s.tid == self.last_tid && dc > 0 {
                    delta.window.cycles += dc;
                    delta.window.instructions += self.period;
                }
            } else {
                delta.window.instructions += self.period;
            }
            self.last_counters = Some(s.counters);
            self.last_cycle = s.cycle;
            self.last_tid = s.tid;
            if let Some(dear) = s.dear {
                // The DEAR is a latch: dedupe identical captures across
                // samples by capture cycle.
                if dear.cycle > self.last_dear_cycle {
                    self.last_dear_cycle = dear.cycle;
                    delta.dear_events.push((dear.pc, dear.latency));
                }
            }
            for pair in &s.btb {
                delta.branch_pairs.push((pair.src, pair.target));
            }
        }
        delta
    }
}

/// The system-wide merged profile the optimizer decides from.
#[derive(Debug, Clone)]
pub struct SystemProfile {
    bands: LatencyBands,
    /// Merged counter window across all threads (current phase).
    pub window: CounterWindow,
    /// Delinquent loads by PC.
    pub delinquent: HashMap<CodeAddr, DelinquentStats>,
    /// Branch-pair occurrence counts.
    pub branch_pairs: HashMap<(CodeAddr, CodeAddr), u64>,
    /// Total samples merged.
    pub samples: u64,
}

impl SystemProfile {
    pub fn new(bands: LatencyBands) -> Self {
        SystemProfile {
            bands,
            window: CounterWindow::default(),
            delinquent: HashMap::new(),
            branch_pairs: HashMap::new(),
            samples: 0,
        }
    }

    /// Merge one thread's delta.
    pub fn absorb(&mut self, delta: &ProfileDelta) {
        self.window.merge(&delta.window);
        self.samples += delta.samples;
        for &(pc, latency) in &delta.dear_events {
            let entry = self.delinquent.entry(pc).or_default();
            if latency >= self.bands.coherent_min {
                entry.coherent += 1;
            } else {
                entry.memory += 1;
            }
            entry.total_latency += latency;
        }
        for &pair in &delta.branch_pairs {
            *self.branch_pairs.entry(pair).or_insert(0) += 1;
        }
    }

    /// Delinquent loads with a dominant coherent fraction, hottest first.
    pub(crate) fn coherent_delinquent(
        &self,
        min_samples: u64,
        min_fraction: f64,
    ) -> Vec<(CodeAddr, DelinquentStats)> {
        let mut v: Vec<_> = self
            .delinquent
            .iter()
            .filter(|(_, s)| s.samples() >= min_samples && s.coherent_fraction() >= min_fraction)
            .map(|(&pc, &s)| (pc, s))
            .collect();
        v.sort_by(|a, b| b.1.samples().cmp(&a.1.samples()).then(a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_machine::{BtbEntry, DearRecord};

    fn sample(
        cpu: u32,
        counters: [u64; 4],
        dear: Option<DearRecord>,
        btb: Vec<BtbEntry>,
    ) -> SampleRecord {
        SampleRecord {
            index: 0,
            pc: 100,
            pid: 1,
            tid: cpu,
            cpu,
            cycle: 0,
            counters,
            events: PmcSelection::coherence_default().events,
            btb,
            dear,
        }
    }

    #[test]
    fn reducer_computes_counter_deltas() {
        let mut tp = ThreadProfiler::new(2, 1000);
        let btb = vec![BtbEntry {
            src: 50,
            target: 30,
        }];
        let mut s1 = sample(2, [100, 10, 5, 2], None, vec![]);
        let mut s2 = sample(2, [180, 30, 9, 4], None, btb);
        let mut s3 = sample(2, [260, 40, 12, 8], None, vec![]);
        s1.cycle = 1000;
        s2.cycle = 2500;
        s3.cycle = 4200;
        let d = tp.reduce(&[s1, s2, s3]);
        assert_eq!(d.samples, 3);
        assert_eq!(d.branch_pairs, vec![(50, 30)]);
        // First sample has no predecessor (counts instructions only);
        // pairs 2 and 3 carry both time and events.
        assert_eq!(d.window.instructions, 3000);
        assert_eq!(d.window.cycles, 3200);
        assert!((d.window.cpi() - 3200.0 / 3000.0).abs() < 1e-12);
        assert_eq!(d.window.bus_memory, 160);
        assert_eq!(d.window.bus_coherent, 30);
        assert_eq!(d.window.l2_miss, 7);
        assert_eq!(d.window.l3_miss, 6);
        assert!((d.window.coherent_ratio() - 30.0 / 160.0).abs() < 1e-12);
    }

    #[test]
    fn reducer_dedupes_stale_dear_latches() {
        let mut tp = ThreadProfiler::new(0, 1000);
        let dear = DearRecord {
            pc: 7,
            addr: 0x1000,
            latency: 190,
            cycle: 50,
        };
        let d = tp.reduce(&[
            sample(0, [1, 0, 0, 0], Some(dear), vec![]),
            // Same latch content re-observed (no new event since).
            sample(0, [2, 0, 0, 0], Some(dear), vec![]),
            sample(
                0,
                [3, 0, 0, 0],
                Some(DearRecord {
                    pc: 9,
                    addr: 0x2000,
                    latency: 140,
                    cycle: 80,
                }),
                vec![],
            ),
        ]);
        assert_eq!(d.dear_events.len(), 2);
        assert_eq!(d.dear_events[0].0, 7);
        assert_eq!(d.dear_events[1].0, 9);
    }

    #[test]
    fn system_profile_classifies_latency_bands() {
        let mut sp = SystemProfile::new(LatencyBands { coherent_min: 165 });
        let delta = ProfileDelta {
            window: CounterWindow {
                instructions: 10_000,
                cycles: 20_000,
                bus_memory: 100,
                bus_coherent: 40,
                l2_miss: 10,
                l3_miss: 8,
            },
            dear_events: vec![(7, 190), (7, 200), (7, 140), (9, 150)],
            branch_pairs: vec![(20, 10), (20, 10), (5, 30)],
            samples: 4,
        };
        sp.absorb(&delta);
        let d7 = sp.delinquent[&7];
        assert_eq!(d7.coherent, 2);
        assert_eq!(d7.memory, 1);
        assert!((d7.coherent_fraction() - 2.0 / 3.0).abs() < 1e-12);
        let d9 = sp.delinquent[&9];
        assert_eq!(d9.coherent, 0);
        assert_eq!(sp.branch_pairs[&(20, 10)], 2);

        let hot = sp.coherent_delinquent(2, 0.5);
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].0, 7);
    }

    #[test]
    fn bands_derive_between_memory_and_hitm() {
        let cfg = cobra_machine::MachineConfig::smp4();
        let b = LatencyBands::from_machine(&cfg);
        assert!(b.coherent_min > cfg.mem_latency);
        assert!(b.coherent_min < cfg.hitm_latency);
    }

    #[test]
    fn multi_thread_absorb_merges_windows() {
        let mut sp = SystemProfile::new(LatencyBands { coherent_min: 165 });
        for _ in 0..4 {
            sp.absorb(&ProfileDelta {
                window: CounterWindow {
                    instructions: 1000,
                    cycles: 1500,
                    bus_memory: 10,
                    bus_coherent: 5,
                    l2_miss: 1,
                    l3_miss: 1,
                },
                dear_events: vec![],
                branch_pairs: vec![],
                samples: 1,
            });
        }
        assert_eq!(sp.window.instructions, 4000);
        assert_eq!(sp.window.bus_memory, 40);
        assert!((sp.window.coherent_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(sp.samples, 4);
    }
}
