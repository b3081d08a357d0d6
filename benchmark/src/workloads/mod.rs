//! The six workloads. Each module's header says why it exists.

pub mod adapt_fine;
pub mod compute_dense;
pub mod daxpy_sweep;
pub mod fleet_mixed;
pub mod npb_fixed;
