//! # cobra — reproduction of *COBRA: An Adaptive Runtime Binary Optimization
//! # Framework for Multithreaded Applications* (Kim, Hsu, Yew; ICPP 2007)
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`isa`] — the Itanium-2-inspired instruction set and binary format.
//! * [`machine`] — the multiprocessor timing simulator (MESI SMP bus and
//!   cc-NUMA directory machines, in-order cores, hardware performance
//!   monitors).
//! * [`perfmon`] — the sampling-driver analogue feeding COBRA's profiler.
//! * [`omp`] — a minimal OpenMP-like runtime for the simulated machine.
//! * [`kernels`] — the `minicc` code generator plus DAXPY and the NPB-like
//!   benchmark suite.
//! * [`rt`] — **the paper's contribution**: the COBRA framework itself
//!   (per-thread monitors, the optimization stage, trace selection, and the
//!   `noprefetch` / `lfetch.excl` binary optimizations), attached via
//!   `rt::Cobra::builder()`, with typed pipeline telemetry in
//!   `rt::telemetry`.
//! * [`harness`] — experiment drivers regenerating every table and figure.
//!
//! See `README.md` for a guided tour and `examples/quickstart.rs` for the
//! fastest way to watch COBRA speed up a program.

pub use cobra_harness as harness;
pub use cobra_isa as isa;
pub use cobra_kernels as kernels;
pub use cobra_machine as machine;
pub use cobra_omp as omp;
pub use cobra_perfmon as perfmon;
pub use cobra_rt as rt;
