//! # cobra-harness — experiment drivers for every table and figure
//!
//! One module per paper artefact:
//!
//! | module | reproduces |
//! |---|---|
//! | [`fig2`] | Figure 2 — compiler-generated DAXPY assembly |
//! | [`fig3`] | Figure 3(a)/(b) — DAXPY static prefetch strategies |
//! | [`table1`] | Table 1 — static loop/prefetch counts of the NPB binaries |
//! | [`npbsuite`] | Figures 5, 6, 7 — COBRA on NPB (speedup, L3, bus) |
//!
//! The `cobra-repro` binary exposes them as subcommands through [`cli`],
//! the one grammar and dispatcher (`--md` emits Markdown for
//! EXPERIMENTS.md; `--json` dumps raw measurements). Simulations fan out
//! across host threads through [`parallel_map`].

pub mod cli;
pub mod fig2;
pub mod fig3;
pub mod fleetcmd;
pub mod npbsuite;
pub mod profilecmd;
pub mod staticnpb;
mod sweep;
pub mod table;
pub mod table1;
pub mod verifycmd;

pub use sweep::{default_workers, parallel_map};
pub use table::Table;
