//! # cobra-omp — a minimal OpenMP-like runtime for the simulated machine
//!
//! The paper's workloads are OpenMP programs: `#pragma omp parallel for`
//! regions with static scheduling and implicit join barriers, each thread
//! bound to a processor. This crate reproduces that execution model on the
//! simulator:
//!
//! * [`Team`]/[`abi`] — thread teams, static chunking, and the
//!   register calling convention for region bodies.
//! * [`OmpRuntime`] — fork/join execution with a per-quantum [`QuantumHook`]
//!   through which COBRA samples the HPMs and patches the binary at safe
//!   points while the program runs.
//!
//! A multi-phase kernel forks and joins once per phase: the join is its
//! only barrier.

pub(crate) mod runtime;
pub(crate) mod team;

pub use runtime::{NullHook, OmpRuntime, QuantumHook, RegionStats};
pub use team::{abi, Team};
