//! The common workload interface the harness and COBRA tests drive.

use cobra_isa::CodeImage;
use cobra_machine::{DataMem, Machine, MachineConfig};
use cobra_omp::{NullHook, OmpRuntime, QuantumHook, Team};

/// A simple bump allocator for laying out workload data in the flat data
/// memory. Allocations are aligned to the 128-byte coherence line so that
/// arrays never share lines by accident (the sharing we study must come
/// from the access pattern, not the layout).
#[derive(Debug, Clone)]
pub struct Arena {
    next: u64,
    limit: u64,
}

impl Arena {
    /// Data space starts above the low region reserved for barrier counters
    /// and per-thread scratch slots.
    pub const DATA_BASE: u64 = 0x1_0000;

    pub fn new(mem_bytes: usize) -> Self {
        Arena {
            next: Self::DATA_BASE,
            limit: mem_bytes as u64,
        }
    }

    /// Allocate `n` f64 elements; returns the byte address.
    pub fn alloc_f64(&mut self, n: usize) -> u64 {
        self.alloc_bytes(8 * n as u64)
    }

    /// Allocate `n` i64 elements; returns the byte address.
    pub fn alloc_i64(&mut self, n: usize) -> u64 {
        self.alloc_bytes(8 * n as u64)
    }

    /// Allocate raw bytes, line-aligned.
    pub fn alloc_bytes(&mut self, bytes: u64) -> u64 {
        let base = (self.next + 127) & !127;
        self.next = base + bytes;
        assert!(
            self.next <= self.limit,
            "workload does not fit in data memory ({} > {})",
            self.next,
            self.limit
        );
        base
    }

    /// Bytes consumed so far.
    pub fn used(&self) -> u64 {
        self.next - Self::DATA_BASE
    }
}

/// Result of one workload execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadRun {
    /// Total simulated cycles from first fork to last join.
    pub cycles: u64,
}

/// A complete benchmark program: binary image, data initialization,
/// orchestration, and numerical verification.
pub trait Workload {
    /// Short benchmark name (`daxpy`, `bt`, `cg`, ...).
    fn name(&self) -> &'static str;

    /// The program binary (cloned into each machine that runs it).
    fn image(&self) -> &CodeImage;

    /// Initialize the data segment.
    fn init(&self, mem: &mut DataMem);

    /// Execute the benchmark's full schedule of parallel regions.
    fn run(
        &self,
        machine: &mut Machine,
        team: Team,
        rt: &OmpRuntime,
        hook: &mut dyn QuantumHook,
    ) -> WorkloadRun;

    /// Check the results against a host-side mirror computation.
    fn verify(&self, mem: &DataMem) -> Result<(), String>;
}

/// Build a machine for a workload, initialize its data, run it with no
/// observer attached (baseline runs), verify, and return `(machine, run)`.
pub fn execute_plain(
    workload: &dyn Workload,
    cfg: &MachineConfig,
    team: Team,
) -> (Machine, WorkloadRun) {
    let mut machine = Machine::new(cfg.clone(), workload.image().clone());
    workload.init(&mut machine.shared.mem);
    let run = workload.run(&mut machine, team, &OmpRuntime::default(), &mut NullHook);
    if let Err(e) = workload.verify(&machine.shared.mem) {
        panic!("workload {} failed verification: {e}", workload.name());
    }
    (machine, run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_alignment_and_accounting() {
        let mut a = Arena::new(1 << 20);
        let x = a.alloc_f64(3);
        let y = a.alloc_f64(5);
        assert_eq!(x % 128, 0);
        assert_eq!(y % 128, 0);
        assert!(y >= x + 24, "allocations must not overlap");
        assert!(a.used() >= 24 + 40);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn arena_overflow_panics() {
        let mut a = Arena::new(1 << 17);
        a.alloc_f64(1 << 20);
    }
}
