//! # cobra-kernels — workloads compiled by the icc-like `minicc` generator
//!
//! Provides the programs COBRA optimizes:
//!
//! * [`minicc`] — the code generator reproducing icc -O3's software-pipelined
//!   loops with aggressive prefetching (the Figure 2 code shape).
//! * [`Daxpy`] — the OpenMP DAXPY kernel of Figures 1–3.
//! * [`npb`] — class-S-scaled kernels with the memory-access skeletons of the
//!   NAS Parallel Benchmarks (BT, SP, LU, FT, MG, CG, EP, IS).
//! * [`workload`] — the common `Workload` trait: build image, initialize
//!   data, run under the OpenMP runtime, verify numerics.

pub(crate) mod daxpy;
pub mod minicc;
pub mod npb;
pub mod workload;

pub use daxpy::{Daxpy, DaxpyParams};
pub use minicc::{
    emit_coef, emit_prefetch_burst, emit_ptr, emit_stream_loop, emit_trip_count, LoopMeta,
    PrefetchPolicy, Stream, StreamLoopSpec, StreamOp,
};
pub use workload::{Arena, Workload, WorkloadRun};
