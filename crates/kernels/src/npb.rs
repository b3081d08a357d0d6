//! Class-S-scaled kernels with the memory-access skeletons of the NAS
//! Parallel Benchmarks (the paper's evaluation suite, §5.1).
//!
//! These are *skeletons*, not ports: each reproduces the loop-parallel
//! memory behaviour that drives the paper's experiments — blocked OpenMP
//! partitions whose aggressive prefetch streams cross partition boundaries
//! — at class-S scale, where "60–70 % of memory accesses … are related to
//! coherent memory accesses". The simulated CFD codes (BT, SP, LU) and the
//! grid kernels (FT, MG) are sequences of software-pipelined stream passes
//! over shared grids; CG is a real CSR conjugate-gradient solver; EP and IS
//! are the compute-bound / integer kernels that show no long-latency
//! coherent misses and are excluded from Figures 5–7, as in the paper.
//! DESIGN.md documents the substitution in detail.

mod cgk;
mod epk;
mod isk;
mod sweep;
mod sweeps;

pub(crate) use cgk::{Cg, CgParams};
pub(crate) use epk::{Ep, EpParams};
pub(crate) use isk::{Is, IsParams};
pub use sweep::{ArrayDecl, PassSpec, SweepKernel};

use crate::workload::Workload;

/// The NPB benchmarks the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    Bt,
    Sp,
    Lu,
    Ft,
    Mg,
    Cg,
    Ep,
    Is,
}

impl Benchmark {
    /// All benchmarks, in the paper's Table 1 order.
    pub const ALL: [Benchmark; 8] = [
        Benchmark::Bt,
        Benchmark::Sp,
        Benchmark::Lu,
        Benchmark::Ft,
        Benchmark::Mg,
        Benchmark::Cg,
        Benchmark::Ep,
        Benchmark::Is,
    ];

    /// The six benchmarks of Figures 5–7 (EP and IS show no long-latency
    /// coherent misses and are excluded, §5.2).
    pub const COHERENT: [Benchmark; 6] = [
        Benchmark::Bt,
        Benchmark::Sp,
        Benchmark::Lu,
        Benchmark::Ft,
        Benchmark::Mg,
        Benchmark::Cg,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Bt => "bt",
            Benchmark::Sp => "sp",
            Benchmark::Lu => "lu",
            Benchmark::Ft => "ft",
            Benchmark::Mg => "mg",
            Benchmark::Cg => "cg",
            Benchmark::Ep => "ep",
            Benchmark::Is => "is",
        }
    }
}

/// Build a benchmark at class-S-like scale under a prefetch policy.
/// `mem_bytes` bounds the data layout (pass the machine config's memory).
pub fn build(
    bench: Benchmark,
    policy: &crate::minicc::PrefetchPolicy,
    mem_bytes: usize,
) -> Box<dyn Workload> {
    match bench {
        Benchmark::Bt => Box::new(sweeps::bt(policy, mem_bytes)),
        Benchmark::Sp => Box::new(sweeps::sp(policy, mem_bytes)),
        Benchmark::Lu => Box::new(sweeps::lu(policy, mem_bytes)),
        Benchmark::Ft => Box::new(sweeps::ft(policy, mem_bytes)),
        Benchmark::Mg => Box::new(sweeps::mg(policy, mem_bytes)),
        Benchmark::Cg => Box::new(Cg::build(CgParams::class_s(), policy, mem_bytes)),
        Benchmark::Ep => Box::new(Ep::build(EpParams::class_s(), policy, mem_bytes)),
        Benchmark::Is => Box::new(Is::build(IsParams::class_s(), policy, mem_bytes)),
    }
}
