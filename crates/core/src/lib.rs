//! # cobra-rt — COBRA: Continuous Binary Re-Adaptation
//!
//! The paper's core contribution: an adaptive runtime binary optimization
//! framework for multithreaded applications. COBRA attaches to a running
//! OpenMP program, continuously samples every working thread's hardware
//! performance monitors through a perfmon-style driver, aggregates the
//! profiles system-wide, discovers the hot loops responsible for coherent
//! cache misses, and rewrites the program's binary while it runs — either
//! removing the offending prefetches (`noprefetch`) or granting them
//! ownership (`lfetch.excl`) — deploying the rewrites through a trace cache
//! in the program's own address space.
//!
//! Architecture (the paper's Figure 4):
//!
//! ```text
//!  working threads --HPM--> perfmon driver --samples--> profilers
//!                                                            | deltas
//!                                                            v
//!  patched binary <--plans-- code deployment <-- profile merge, phase
//!                                                detection (Cobra), trace
//!                                                selection, decisions
//!                                                (Optimizer)
//! ```
//!
//! The paper's monitoring and optimization *threads* are roles here: each
//! quantum, [`Cobra`] calls every thread's profiler, folds what they return
//! and calls the optimizer, on the simulator's thread; what the threads
//! would cost the program is charged to it as guest cycles (see
//! `framework.rs`).
//!
//! Entry point: [`Cobra::builder`], a fluent configuration API whose
//! `attach` step implements the OpenMP runtime's `QuantumHook` so the
//! framework observes and patches the program at simulation-quantum safe
//! points. Pass a [`TelemetrySink`] to the builder to record the whole
//! decision pipeline as typed, cycle-stamped events.

mod framework;
mod optimizer;
mod persist;
mod phase;
mod profile;
mod report;
mod telemetry;
mod trace;

pub use framework::{Cobra, CobraBuilder, OVERHEAD_PER_SAMPLE};
pub use optimizer::{
    verify_plan, OptKind, Optimizer, OptimizerConfig, PatchPlan, PlanAction, Strategy, TracePlan,
};
pub use profile::{
    CounterWindow, DelinquentStats, LatencyBands, ProfileDelta, SystemProfile, ThreadProfiler,
};
pub use report::{AppliedPlan, CobraReport, RevertedPlan};
pub use telemetry::{
    read_jsonl, write_jsonl, CpuCounterSnapshot, RunTotals, Telemetry, TelemetryEvent,
    TelemetryLog, TelemetryRecord, TelemetrySink,
};
pub use trace::{select_loops, HotLoop, TraceConfig};
