//! Bus bandwidth/queueing model.
//!
//! Each transaction occupies the bus for a fixed number of cycles; a
//! transaction issued while the bus is busy waits its turn. This is the
//! mechanism behind the paper's observation that aggressive prefetching in
//! one thread "could exert tremendous stress on [the] system bus" — useless
//! prefetch transactions delay every other processor's demand misses.

use serde::{Deserialize, Serialize};

/// A single shared channel with fixed per-transaction occupancy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Bus {
    free_at: u64,
    occupancy: u64,
    transactions: u64,
    busy_cycles: u64,
}

impl Bus {
    pub fn new(occupancy: u64) -> Self {
        Bus {
            free_at: 0,
            occupancy,
            transactions: 0,
            busy_cycles: 0,
        }
    }

    /// Acquire the bus at time `now`; returns the grant time (>= `now`).
    /// The caller's added latency is `grant - now`.
    pub fn acquire(&mut self, now: u64) -> u64 {
        let grant = self.free_at.max(now);
        self.free_at = grant + self.occupancy;
        self.transactions += 1;
        self.busy_cycles += self.occupancy;
        grant
    }

    /// Total transactions granted.
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// Total cycles of bus occupancy consumed.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_bus_grants_immediately() {
        let mut bus = Bus::new(6);
        assert_eq!(bus.acquire(100), 100);
        assert_eq!(bus.transactions(), 1);
    }

    #[test]
    fn back_to_back_transactions_queue() {
        let mut bus = Bus::new(6);
        assert_eq!(bus.acquire(0), 0);
        assert_eq!(bus.acquire(0), 6);
        assert_eq!(bus.acquire(0), 12);
        assert_eq!(bus.free_at, 18);
        // After the backlog drains, grants are immediate again.
        assert_eq!(bus.acquire(40), 40);
        assert_eq!(bus.transactions(), 4);
        assert_eq!(bus.busy_cycles(), 24);
    }

    #[test]
    fn contention_grows_latency_linearly() {
        // Four CPUs issuing simultaneously model the paper's bus-stress
        // scenario: the fourth requester waits three occupancies.
        let mut bus = Bus::new(6);
        let grants: Vec<u64> = (0..4).map(|_| bus.acquire(1000)).collect();
        assert_eq!(grants, vec![1000, 1006, 1012, 1018]);
    }
}
