//! # cobra-machine — an Itanium-2-class multiprocessor timing simulator
//!
//! The COBRA paper evaluates on two machines we cannot buy anymore: a 4-way
//! Itanium 2 SMP (MESI snooping front-side bus) and an SGI Altix cc-NUMA
//! system. This crate is the substitute substrate: a functional-first,
//! timing-modelled simulator with
//!
//! * per-CPU private L1D/L2/L3 hierarchies with **MESI** coherence
//!   (`cache`, [`memsys`]),
//! * a **snooping bus** with occupancy/queueing so prefetch storms create
//!   real contention ([`bus`]),
//! * a **cc-NUMA** mode: 2-CPU nodes, first-touch page placement, fat-tree
//!   hop latencies ([`config`], [`memsys`]),
//! * **in-order cores** with predication, register rotation and the
//!   software-pipelined loop branches (`br.ctop` …) that icc-style code
//!   depends on ([`core`]),
//! * **hardware performance monitors**: event counters, the Branch Trace
//!   Buffer and the Data Event Address Register with latency filtering
//!   ([`hpm`], [`events`]) — the profile sources COBRA consumes,
//! * live **binary patching** of the executing image ([`machine`]).
//!
//! See `DESIGN.md` at the workspace root for the full substitution argument.

pub mod blocks;
pub mod bus;
mod cache;
pub mod config;
pub mod core;
pub mod events;
pub mod hpm;
pub mod machine;
pub mod memsys;
pub mod redirect;

pub use blocks::{Block, BlockCache, BlockStats, FallbackReason};
pub use bus::Bus;
pub use cache::Mesi;
pub use config::{CacheGeometry, HostAccel, MachineConfig, Topology};
pub use core::{Core, CoreStatus, FaultInfo};
pub use events::{CpuStats, Event, ALL_EVENTS, NUM_EVENTS};
pub use hpm::{BtbEntry, DearRecord, Hpm, OverflowCapture, SamplingConfig, BTB_PAIRS};
pub use machine::{DataMem, Machine, RunResult, Shared};
pub use memsys::{AccessKind, AccessOutcome, MemSystem, PageMap};
pub use redirect::RedirectTable;
