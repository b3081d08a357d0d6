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
//!  working threads --HPM--> perfmon driver --samples--> monitors
//!                                                            | deltas
//!                                                            v
//!  patched binary <--plans-- code deployment <-- optimization stage
//!                                                 (profile merge, phase
//!                                                  detection, trace
//!                                                  selection, decisions)
//! ```
//!
//! The paper's monitoring and optimization *threads* are roles here, called
//! in turn on the simulator's thread each quantum; what they would cost the
//! program is charged to it as guest cycles (see [`framework`]).
//!
//! Entry point: [`Cobra::builder`], a fluent configuration API whose
//! `attach` step implements the OpenMP runtime's `QuantumHook` so the
//! framework observes and patches the program at simulation-quantum safe
//! points. Pass a [`TelemetrySink`] to the builder to record the whole
//! decision pipeline as typed, cycle-stamped events.

pub mod framework;
pub mod monitor;
pub mod optimizer;
pub mod persist;
pub mod phase;
pub mod profile;
pub mod report;
pub mod telemetry;
pub mod trace;

pub use framework::{Cobra, CobraBuilder, OVERHEAD_PER_SAMPLE};
pub use monitor::{OptFinal, OptimizationStage};
pub use optimizer::{
    verify_plan, DecisionExport, OptKind, Optimizer, OptimizerConfig, PatchPlan, PlanAction,
    Strategy, TracePlan, WarmSeed,
};
pub use persist::{profile_record, seed_from_snapshot, snapshot_from_final};
pub use phase::PhaseDetector;
pub use profile::{
    CounterWindow, DelinquentStats, LatencyBands, ProfileDelta, SystemProfile, ThreadProfiler,
};
pub use report::{AppliedPlan, CobraReport, RevertedPlan};
pub use telemetry::{
    read_jsonl, write_jsonl, CpuCounterSnapshot, RunTotals, Telemetry, TelemetryEvent,
    TelemetryLog, TelemetryRecord, TelemetrySink,
};
pub use trace::{loop_lfetch_sites, select_loops, HotLoop, TraceConfig};
