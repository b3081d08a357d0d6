//! The sampling "kernel driver".
//!
//! Mirrors the perfmon architecture of §3.1–3.2: at startup "all hardware
//! performance counters are initialized by [the] perfmon sampling kernel
//! device driver" and a **Kernel Sampling Buffer** is allocated per CPU;
//! each monitoring thread later copies samples out into its own User
//! Sampling Buffer. Here, [`PerfmonDriver::attach`] programs every CPU's HPM
//! and [`PerfmonDriver::poll`] converts accumulated PMC overflows into
//! [`SampleRecord`]s in per-CPU ring buffers, which COBRA's monitoring
//! threads drain with [`PerfmonDriver::drain`].
//!
//! Polling happens at simulation-quantum boundaries — the moral equivalent
//! of the driver's overflow interrupt + signal delivery, at the coarse
//! sampling granularity the paper relies on to keep overhead low.

use std::collections::VecDeque;

use cobra_machine::{Event, Machine, SamplingConfig};
use serde::{Deserialize, Serialize};

use crate::sample::{PmcSelection, SampleRecord};

/// What a caller can set of the driver: the sampling period. The events it
/// programs are always [`PmcSelection::coherence_default`], behind an
/// instructions-retired sampling event, because the profiler reads those
/// four counters by their slots there and credits each sample with
/// `sampling_period` retired instructions.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PerfmonConfig {
    /// Overflow period of the sampling event, in instructions retired.
    pub sampling_period: u64,
}

impl Default for PerfmonConfig {
    fn default() -> Self {
        PerfmonConfig {
            sampling_period: SAMPLING_PERIOD,
        }
    }
}

/// The period COBRA samples at: the paper keeps overhead low with
/// "relatively less frequent sampling", and every golden run uses this one.
const SAMPLING_PERIOD: u64 = 2000;

/// The sampling interrupt counts retired instructions: the profiler credits
/// each sample with one period of them.
const SAMPLING_EVENT: Event = Event::InstRetired;

/// Kernel sampling buffer capacity per CPU; samples beyond it are dropped
/// and counted, as a real ring would. COBRA drains every quantum, long
/// before a CPU retires the 8M instructions that fill it.
const BUFFER_CAPACITY: usize = 4096;

#[derive(Debug, Default)]
struct CpuCtx {
    buffer: VecDeque<SampleRecord>,
    next_index: u64,
    dropped: u64,
}

/// Per-machine sampling driver.
#[derive(Debug)]
pub struct PerfmonDriver {
    config: PerfmonConfig,
    per_cpu: Vec<CpuCtx>,
    attached: bool,
}

impl PerfmonDriver {
    pub fn new(num_cpus: usize, config: PerfmonConfig) -> Self {
        assert!(config.sampling_period > 0);
        PerfmonDriver {
            config,
            per_cpu: (0..num_cpus).map(|_| CpuCtx::default()).collect(),
            attached: false,
        }
    }

    pub fn config(&self) -> &PerfmonConfig {
        &self.config
    }

    /// Program every CPU's HPM for sampling (counter init at startup, §3.2).
    pub fn attach(&mut self, machine: &mut Machine) {
        assert_eq!(
            machine.num_cpus(),
            self.per_cpu.len(),
            "driver/machine CPU count mismatch"
        );
        for cpu in 0..machine.num_cpus() {
            let baseline = machine.stats()[cpu].get(SAMPLING_EVENT);
            machine.shared.hpm[cpu].program_sampling(
                SamplingConfig {
                    event: SAMPLING_EVENT,
                    period: self.config.sampling_period,
                },
                baseline,
            );
        }
        self.attached = true;
    }

    /// Detach: stop sampling on every CPU (buffers keep pending samples).
    pub fn detach(&mut self, machine: &mut Machine) {
        for cpu in 0..machine.num_cpus() {
            machine.shared.hpm[cpu].stop_sampling();
        }
        self.attached = false;
    }

    /// Convert pending PMC overflow captures into sample records. Call
    /// between simulation quanta. Each capture carries the monitor state of
    /// the overflow *instant* (PC, cycle, counters, BTB, DEAR), as a real
    /// PMU interrupt would record.
    pub fn poll(&mut self, machine: &mut Machine) {
        assert!(self.attached, "poll before attach");
        for cpu in 0..machine.num_cpus() {
            let captures = machine.shared.hpm[cpu].take_overflows();
            if captures.is_empty() {
                continue;
            }
            let ctx = &mut self.per_cpu[cpu];
            for cap in captures {
                if ctx.buffer.len() >= BUFFER_CAPACITY {
                    ctx.dropped += 1;
                    continue;
                }
                let events = PmcSelection::coherence_default().events;
                let counters = events.map(|e| cap.stats.get(e));
                let rec = SampleRecord {
                    index: ctx.next_index,
                    pc: cap.pc,
                    pid: 1,
                    tid: cap.tid,
                    cpu: cpu as u32,
                    cycle: cap.cycle,
                    counters,
                    events,
                    btb: cap.btb,
                    dear: cap.dear,
                };
                ctx.next_index += 1;
                ctx.buffer.push_back(rec);
            }
        }
    }

    /// Drain all buffered samples for one CPU (what that CPU's monitoring
    /// thread reduces into its profile).
    pub fn drain(&mut self, cpu: usize) -> Vec<SampleRecord> {
        self.per_cpu[cpu].buffer.drain(..).collect()
    }

    /// Samples currently buffered for a CPU.
    pub fn pending(&self, cpu: usize) -> usize {
        self.per_cpu[cpu].buffer.len()
    }

    /// Samples dropped on a CPU due to a full kernel buffer.
    pub fn dropped(&self, cpu: usize) -> u64 {
        self.per_cpu[cpu].dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::NUM_PMCS;
    use cobra_isa::Assembler;
    use cobra_machine::MachineConfig;

    /// A busy-loop program: every CPU can run it.
    fn busy_program(iters: i64) -> cobra_isa::CodeImage {
        let mut a = Assembler::new();
        a.movi(4, iters);
        a.mov_to_lc(4);
        let top = a.new_label();
        a.bind(top);
        a.addi(5, 5, 1);
        a.br_cloop(top);
        a.hlt();
        a.finish()
    }

    fn sampled_machine(iters: i64, threads: usize, period: u64) -> (Machine, PerfmonDriver) {
        let mut m = Machine::new(MachineConfig::smp4(), busy_program(iters));
        for cpu in 0..threads {
            m.spawn_thread(cpu, 0, &[]);
        }
        let mut drv = PerfmonDriver::new(
            4,
            PerfmonConfig {
                sampling_period: period,
            },
        );
        drv.attach(&mut m);
        (m, drv)
    }

    #[test]
    fn sampling_produces_proportional_records() {
        let (mut m, mut drv) = sampled_machine(5_000, 1, 1000);
        let r = m.run(1_000_000);
        assert!(r.halted);
        drv.poll(&mut m);
        let samples = drv.drain(0);
        // ~2 retired insns per iteration + setup: at least 8 samples.
        assert!(samples.len() >= 8, "got {}", samples.len());
        assert_eq!(drv.pending(0), 0, "drain empties the buffer");
        // Indices are monotone, cpu/tid tagged, counters in the one
        // selection's order.
        for (k, s) in samples.iter().enumerate() {
            assert_eq!(s.index, k as u64);
            assert_eq!(s.events, PmcSelection::coherence_default().events);
            assert_eq!(s.cpu, 0);
            assert_eq!(s.tid, 0);
            assert_eq!(s.pid, 1);
        }
        // Counters are non-decreasing across records.
        for w in samples.windows(2) {
            for k in 0..NUM_PMCS {
                assert!(w[1].counters[k] >= w[0].counters[k]);
            }
        }
    }

    #[test]
    fn samples_tag_each_cpu_separately() {
        let (mut m, mut drv) = sampled_machine(2_000, 4, 500);
        let r = m.run(1_000_000);
        assert!(r.halted);
        drv.poll(&mut m);
        for cpu in 0..4 {
            let samples = drv.drain(cpu);
            assert!(!samples.is_empty(), "cpu {cpu} produced no samples");
            assert!(samples.iter().all(|s| s.cpu == cpu as u32));
            assert!(
                samples.iter().all(|s| s.tid == cpu as u32),
                "tid == spawn order here"
            );
        }
    }

    #[test]
    fn btb_snapshots_capture_the_loop() {
        let (mut m, mut drv) = sampled_machine(5_000, 1, 2000);
        m.run(1_000_000);
        drv.poll(&mut m);
        let samples = drv.drain(0);
        let with_btb = samples.iter().filter(|s| !s.btb.is_empty()).count();
        assert!(with_btb > 0, "loop branches must appear in BTB snapshots");
        // The loop back edge branches to the bound label; targets repeat.
        let s = samples.iter().find(|s| s.btb.len() == 4).expect("full BTB");
        let target = s.btb[0].target;
        assert!(s.btb.iter().all(|e| e.target == target), "single hot loop");
    }

    #[test]
    fn buffer_overflow_drops_and_counts() {
        // ~100k retired instructions at one sample per 10, polled often
        // enough that the HPM's own capture queue never fills but never
        // drained: more than the kernel buffer holds.
        let (mut m, mut drv) = sampled_machine(50_000, 1, 10);
        while !m.run_quantum(1_000).halted {
            drv.poll(&mut m);
        }
        drv.poll(&mut m);
        assert_eq!(m.shared.hpm[0].dropped_captures(), 0);
        assert_eq!(drv.pending(0), BUFFER_CAPACITY);
        assert!(drv.dropped(0) > 0);
    }

    #[test]
    fn detach_stops_sampling() {
        let (mut m, mut drv) = sampled_machine(2_000, 1, 200);
        m.run_quantum(2_000);
        drv.poll(&mut m);
        let first = drv.drain(0).len();
        assert!(first > 0);
        drv.detach(&mut m);
        m.run(10_000_000);
        // No further overflows accumulate after detach.
        assert!(m.shared.hpm[0].take_overflows().is_empty());
    }

    #[test]
    #[should_panic(expected = "poll before attach")]
    fn poll_requires_attach() {
        let mut m = Machine::new(MachineConfig::smp4(), busy_program(10));
        let mut drv = PerfmonDriver::new(4, PerfmonConfig::default());
        drv.poll(&mut m);
    }
}
