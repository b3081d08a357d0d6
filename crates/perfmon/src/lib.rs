//! # cobra-perfmon — the sampling-driver analogue
//!
//! On the paper's systems, COBRA's monitoring threads "track signals from
//! the perfmon sampling kernel drivers" and copy performance-counter state
//! from a Kernel Sampling Buffer into a User Sampling Buffer (§3.1). This
//! crate plays the part of that kernel driver for the simulated machine:
//!
//! * [`PerfmonConfig`]/[`PerfmonDriver`] — program the four PMCs and the
//!   sampling period on every CPU, accumulate overflow-triggered
//!   [`SampleRecord`]s in per-CPU kernel buffers, and hand them to the
//!   monitoring threads via [`PerfmonDriver::drain`].
//! * [`SampleRecord`] — the paper's sample layout: index, PC, pid/tid/cpu,
//!   four counters, the BTB pairs, and the DEAR miss triple.

pub(crate) mod driver;
pub(crate) mod sample;

pub use driver::{PerfmonConfig, PerfmonDriver};
pub use sample::{PmcSelection, SampleRecord, NUM_PMCS};
