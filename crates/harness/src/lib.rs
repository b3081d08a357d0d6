//! # cobra-harness — experiment drivers for every table and figure
//!
//! One module per paper artefact:
//!
//! | module | reproduces |
//! |---|---|
//! | `fig2` | Figure 2 — compiler-generated DAXPY assembly |
//! | [`fig3`] | Figure 3(a)/(b) — DAXPY static prefetch strategies |
//! | [`table1`] | Table 1 — static loop/prefetch counts of the NPB binaries |
//! | [`npbsuite`] | Figures 5, 6, 7 — COBRA on NPB (speedup, L3, bus) |
//! | `convergence` | time-to-optimized, OSR against entry-only transfer |
//!
//! The `cobra-repro` binary exposes them as subcommands through [`cli`],
//! the one grammar and dispatcher (`--md` emits Markdown, and `all --md`
//! is results_all.md; `--json` dumps raw measurements). Simulations fan out
//! across host threads through `sweep::parallel_map`.

pub mod cli;
mod convergence;
mod fig2;
pub mod fig3;
mod fleetcmd;
pub mod npbsuite;
pub mod profilecmd;
mod staticnpb;
mod sweep;
mod table;
pub mod table1;
mod verifycmd;

use sweep::default_workers;
