//! The coherent memory system: private cache hierarchies, MESI transactions
//! over node buses, NUMA home directories with first-touch placement, MSHRs
//! and store buffers.
//!
//! This module computes the *timing* and *event accounting* of every memory
//! access (functional data lives in [`crate::machine::DataMem`]). The three
//! behaviours the paper's optimizations exploit all originate here:
//!
//! 1. **Prefetch-induced sharing** — an `lfetch` that crosses into a
//!    neighbouring thread's partition pulls the line out of the neighbour's
//!    Modified copy (a `BUS_RD_HITM` flush), so the neighbour's next store
//!    pays a `BUS_UPGRADE`, and its store buffer serializes on such upgrades.
//! 2. **Exclusive prefetch** (`lfetch.excl` / `ld8.bias`) — fetches lines
//!    with ownership, converting later store upgrades into non-blocking
//!    prefetch-time traffic. Lines granted by another cache arrive clean
//!    Exclusive; lines fetched from memory arrive as a *write-intent dirty
//!    fill* (Modified), which is why blanket `.excl` inflates L2/L3
//!    writebacks on streaming data — the paper's 2 MB DAXPY slowdown.
//! 3. **Bus pressure** — every transaction occupies its node bus, so useless
//!    prefetches delay other processors' demand misses.

use serde::{Deserialize, Serialize};

use crate::bus::Bus;
use crate::cache::{FillEffect, HitLevel, Mesi, PrivateHierarchy};
use crate::config::{HostAccel, MachineConfig, Topology};
use crate::events::{CpuStats, Event};
use crate::hpm::Hpm;

/// What kind of access the core issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Demand load. `fp` loads bypass L1; `bias` requests ownership
    /// (`ld8.bias`).
    Load { fp: bool, bias: bool },
    /// Store (drains through the store buffer).
    Store,
    /// Non-binding prefetch; `excl` requests ownership (`lfetch.excl`).
    Prefetch { excl: bool },
}

/// Timing outcome of an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Cycle at which the loaded value is usable / the store has drained.
    pub complete_at: u64,
    /// Cycle until which the *core* must stall for structural hazards
    /// (MSHR or store-buffer full). Equal to `now` when there is none.
    pub stall_until: u64,
}

#[derive(Debug, Clone, Copy)]
struct MshrEntry {
    line: u64,
    ready: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnType {
    /// Read for sharing.
    Rd,
    /// Read for ownership (store miss, `.excl` prefetch, `.bias` load).
    RdX,
    /// Invalidate other copies of a Shared line we already hold.
    Upgrade,
    /// Write a dirty evicted line back to memory.
    Writeback,
}

#[derive(Debug, Clone, Copy)]
struct TxnResult {
    /// Total added latency (queueing + service).
    latency: u64,
    /// MESI state granted to the requester (`Rd` only; `RdX` callers decide
    /// between `Exclusive` and a dirty `Modified` fill).
    grant_state: Mesi,
    /// True when the data came from DRAM rather than another cache.
    from_memory: bool,
}

/// `log2(bytes)` for a line or page size every access shifts by.
fn shift_of(bytes: usize, field: &str) -> u32 {
    assert!(
        bytes.is_power_of_two(),
        "{field} must be a power of two, got {bytes}"
    );
    bytes.trailing_zeros()
}

/// First-touch page-to-node map (the SGI Altix placement policy, §3.2).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct PageMap {
    page_shift: u32,
    home: Vec<Option<u8>>,
}

impl PageMap {
    fn new(mem_bytes: usize, page_bytes: usize) -> Self {
        PageMap {
            page_shift: shift_of(page_bytes, "numa_page_bytes"),
            home: vec![None; mem_bytes.div_ceil(page_bytes)],
        }
    }

    /// Home node of the page containing `addr`, assigning it to
    /// `toucher_node` on first touch.
    pub(crate) fn home_of(&mut self, addr: u64, toucher_node: usize) -> usize {
        let page = (addr >> self.page_shift) as usize;
        match self.home[page] {
            Some(n) => n as usize,
            None => {
                self.home[page] = Some(toucher_node as u8);
                toucher_node
            }
        }
    }

    /// Home node if already assigned.
    #[cfg(test)]
    pub(crate) fn peek(&self, addr: u64) -> Option<usize> {
        self.home[(addr >> self.page_shift) as usize].map(|n| n as usize)
    }
}

/// The machine-wide coherent memory system.
#[derive(Debug)]
pub struct MemSystem {
    cfg: MachineConfig,
    hierarchies: Vec<PrivateHierarchy>,
    node_buses: Vec<Bus>,
    mshrs: Vec<Vec<MshrEntry>>,
    store_bufs: Vec<Vec<u64>>,
    /// FIFO drain point per CPU: stores retire through a single L2 write
    /// port in order, so expensive coherence stores serialize behind each
    /// other (the backpressure that turns boundary upgrades into stalls).
    store_drain_tail: Vec<u64>,
    /// Pending snoop-response stall cycles per CPU (HITM flush victims).
    snoop_stall: Vec<u64>,
    /// A HITM added to `snoop_stall` since the last drain: while false,
    /// every slot is zero and there is nothing to deliver.
    snoop_raised: bool,
    pages: PageMap,
    /// Bytes per coherence line (kept for line → address), and the shifts
    /// that take a byte address to its coherence line and its L1 line.
    line_bytes: u64,
    line_shift: u32,
    l1_line_shift: u32,
    /// Per-line bitmask of hierarchies that *may* hold the line (a strict
    /// superset of actual holders: bits are set on fill and cleared on
    /// invalidation/L3 eviction). Empty when `num_cpus` exceeds the mask
    /// width — every snoop then walks all CPUs, as before.
    presence: Vec<u32>,
}

impl MemSystem {
    pub fn new(cfg: &MachineConfig) -> Self {
        let hierarchies = (0..cfg.num_cpus)
            .map(|_| PrivateHierarchy::new(cfg.l1d, cfg.l2, cfg.l3))
            .collect();
        let line_bytes = cfg.coherence_line() as u64;
        let presence_lines = if cfg.num_cpus <= 32 {
            cfg.mem_bytes / line_bytes as usize
        } else {
            0
        };
        MemSystem {
            hierarchies,
            node_buses: (0..cfg.num_nodes())
                .map(|_| Bus::new(cfg.bus_occupancy))
                .collect(),
            mshrs: vec![Vec::new(); cfg.num_cpus],
            store_bufs: vec![Vec::new(); cfg.num_cpus],
            store_drain_tail: vec![0; cfg.num_cpus],
            snoop_stall: vec![0; cfg.num_cpus],
            snoop_raised: false,
            pages: PageMap::new(cfg.mem_bytes, cfg.numa_page_bytes),
            line_bytes,
            line_shift: shift_of(cfg.coherence_line(), "l2.line"),
            l1_line_shift: shift_of(cfg.l1d.line, "l1d.line"),
            presence: vec![0; presence_lines],
            cfg: cfg.clone(),
        }
    }

    /// Coherence-line address of a byte address.
    #[inline]
    pub(crate) fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// MESI state of a line in one CPU's hierarchy (diagnostics/tests).
    pub fn peek_state(&self, cpu: usize, addr: u64) -> Option<Mesi> {
        self.hierarchies[cpu].state(self.line_of(addr))
    }

    /// First-touch page map (for the placement tests).
    #[cfg(test)]
    pub(crate) fn pages(&self) -> &PageMap {
        &self.pages
    }

    /// Total transactions across node buses.
    pub fn bus_transactions(&self) -> u64 {
        self.node_buses.iter().map(|b| b.transactions()).sum()
    }

    /// Has a HITM raised a snoop stall since the last
    /// [`Self::drain_snoop_stalls`]? While false there is nothing to drain.
    #[inline]
    pub(crate) fn snoop_raised(&self) -> bool {
        self.snoop_raised
    }

    /// Take and clear every CPU's accumulated snoop-victim stall cycles,
    /// handing each to `deliver(cpu, cycles)` (zero for a CPU that was not a
    /// victim; two HITMs on one victim arrive summed).
    pub(crate) fn drain_snoop_stalls(&mut self, mut deliver: impl FnMut(usize, u64)) {
        self.snoop_raised = false;
        for (cpu, stall) in self.snoop_stall.iter_mut().enumerate() {
            deliver(cpu, std::mem::take(stall));
        }
    }

    /// Snoop-victim stall cycles accrued but not yet delivered to a CPU
    /// (read-only). Snoop stalls only accrue while some core executes a
    /// memory access, so this is zero across any all-stalled window — the
    /// invariant the boundary batch relies on to jump the clock to the
    /// earliest wake-up without missing a delivery.
    pub fn snoop_stall_pending(&self, cpu: usize) -> u64 {
        self.snoop_stall[cpu]
    }

    /// Cycle at which the CPU's store buffer will be fully drained (threads
    /// must wait for this before completing — join memory ordering).
    pub fn store_drain_time(&self, cpu: usize) -> u64 {
        self.store_drain_tail[cpu]
    }

    /// Bitmask of *other* hierarchies that may hold `line` (superset), or
    /// `None` on the reference engine and when the presence vector does not
    /// cover the line — the snoop loops then walk every CPU.
    #[inline]
    fn other_holders(&self, line: u64, cpu: usize) -> Option<u32> {
        if self.cfg.host_accel != HostAccel::Fast {
            return None;
        }
        self.presence
            .get(line as usize)
            .map(|&mask| mask & !(1u32 << cpu))
    }

    #[inline]
    fn presence_set(&mut self, line: u64, cpu: usize) {
        if let Some(mask) = self.presence.get_mut(line as usize) {
            *mask |= 1 << cpu;
        }
    }

    #[inline]
    fn presence_clear(&mut self, line: u64, cpu: usize) {
        if let Some(mask) = self.presence.get_mut(line as usize) {
            *mask &= !(1u32 << cpu);
        }
    }

    /// Perform one access; updates cache state, buses, MSHRs, store buffers,
    /// per-CPU stats and (for demand loads) the DEAR latch.
    ///
    /// One path for both engines: the only thing [`HostAccel::Fast`]
    /// changes is that the snoop walks inside `transaction` visit just the
    /// hierarchies the presence vector names (see `other_holders`).
    #[allow(clippy::too_many_arguments)]
    pub fn access(
        &mut self,
        stats: &mut [CpuStats],
        hpm: &mut [Hpm],
        cpu: usize,
        now: u64,
        pc: u32,
        kind: AccessKind,
        addr: u64,
    ) -> AccessOutcome {
        let line = self.line_of(addr);
        let l1_line = addr >> self.l1_line_shift;
        let none = AccessOutcome {
            complete_at: now,
            stall_until: now,
        };

        match kind {
            AccessKind::Prefetch { excl } => {
                stats[cpu].add(Event::LfetchIssued, 1);
                if self.mshr_inflight(cpu, line, now).is_some() {
                    return none;
                }
                match self.hierarchies[cpu].state(line) {
                    Some(Mesi::Modified) | Some(Mesi::Exclusive) => none,
                    Some(Mesi::Shared) => {
                        if excl {
                            // Non-blocking ownership upgrade at prefetch time
                            // (clean Exclusive; the following store's E->M
                            // transition is silent).
                            let _ = self.transaction(stats, cpu, now, TxnType::Upgrade, addr);
                            self.hierarchies[cpu].set_state(line, Mesi::Exclusive);
                        }
                        none
                    }
                    None => {
                        stats[cpu].add(Event::L2Miss, 1);
                        stats[cpu].add(Event::L3Miss, 1);
                        if !self.mshr_try_alloc(cpu, now) {
                            stats[cpu].add(Event::LfetchDropped, 1);
                            return none;
                        }
                        let ttype = if excl { TxnType::RdX } else { TxnType::Rd };
                        let txn = self.transaction(stats, cpu, now, ttype, addr);
                        // `.excl` from memory is a write-intent allocation:
                        // the line enters Modified and will be written back
                        // on eviction even if never stored to — the
                        // L2-writeback inflation of the paper's §2 (the 2 MB
                        // DAXPY slowdown). Cache-to-cache grants stay clean
                        // Exclusive, as on the real bus.
                        let state = if excl {
                            if txn.from_memory {
                                Mesi::Modified
                            } else {
                                Mesi::Exclusive
                            }
                        } else {
                            txn.grant_state
                        };
                        self.fill_and_account(stats, cpu, now, line, state, None);
                        self.mshr_push(cpu, line, now + txn.latency);
                        none
                    }
                }
            }

            AccessKind::Load { fp, bias } => {
                if let Some(ready) = self.mshr_inflight(cpu, line, now) {
                    let complete_at = ready.max(now + 1);
                    self.dear_check(stats, hpm, cpu, now, pc, addr, complete_at - now);
                    return AccessOutcome {
                        complete_at,
                        stall_until: now,
                    };
                }
                if let Some(level) = self.hierarchies[cpu].probe_load(line, l1_line, fp) {
                    let lat = match level {
                        HitLevel::L1 => self.cfg.l1d.hit_latency,
                        HitLevel::L2 => {
                            if !fp {
                                stats[cpu].add(Event::L1dMiss, 1);
                            }
                            self.cfg.l2.hit_latency
                        }
                        HitLevel::L3 => {
                            if !fp {
                                stats[cpu].add(Event::L1dMiss, 1);
                            }
                            stats[cpu].add(Event::L2Miss, 1);
                            self.cfg.l3.hit_latency
                        }
                    };
                    if bias && self.hierarchies[cpu].state(line) == Some(Mesi::Shared) {
                        let _ = self.transaction(stats, cpu, now, TxnType::Upgrade, addr);
                        self.hierarchies[cpu].set_state(line, Mesi::Exclusive);
                    }
                    return AccessOutcome {
                        complete_at: now + lat,
                        stall_until: now,
                    };
                }
                // Full miss: goes to the bus.
                if !fp {
                    stats[cpu].add(Event::L1dMiss, 1);
                }
                stats[cpu].add(Event::L2Miss, 1);
                stats[cpu].add(Event::L3Miss, 1);
                let (issue_at, stall_until) = self.mshr_acquire_blocking(cpu, now);
                let ttype = if bias { TxnType::RdX } else { TxnType::Rd };
                let txn = self.transaction(stats, cpu, issue_at, ttype, addr);
                let ready = issue_at + txn.latency;
                let state = if bias {
                    Mesi::Exclusive
                } else {
                    txn.grant_state
                };
                let into_l1 = if fp { None } else { Some(l1_line) };
                self.fill_and_account(stats, cpu, now, line, state, into_l1);
                self.mshr_push(cpu, line, ready);
                self.dear_check(stats, hpm, cpu, now, pc, addr, ready - now);
                AccessOutcome {
                    complete_at: ready,
                    stall_until,
                }
            }

            AccessKind::Store => {
                let (issue_at, stall_until) = self.stbuf_acquire(cpu, now);
                // Stores drain in order through one L2 write port; a store
                // also waits for an in-flight fill of its own line.
                let mut drain_start = issue_at.max(self.store_drain_tail[cpu]);
                if let Some(ready) = self.mshr_inflight(cpu, line, drain_start) {
                    drain_start = ready;
                }
                let drain_done = match self.hierarchies[cpu].state(line) {
                    Some(Mesi::Modified) => drain_start + 1,
                    Some(Mesi::Exclusive) => {
                        self.hierarchies[cpu].set_state(line, Mesi::Modified);
                        drain_start + 1
                    }
                    Some(Mesi::Shared) => {
                        // The expensive path aggressive cross-partition
                        // prefetching creates: an invalidation round trip
                        // serializing through the store buffer.
                        let txn = self.transaction(stats, cpu, drain_start, TxnType::Upgrade, addr);
                        self.hierarchies[cpu].set_state(line, Mesi::Modified);
                        drain_start + txn.latency
                    }
                    None => {
                        stats[cpu].add(Event::L2Miss, 1);
                        stats[cpu].add(Event::L3Miss, 1);
                        let txn = self.transaction(stats, cpu, drain_start, TxnType::RdX, addr);
                        self.fill_and_account(stats, cpu, now, line, Mesi::Modified, None);
                        drain_start + txn.latency
                    }
                };
                self.store_drain_tail[cpu] = drain_done;
                self.store_bufs[cpu].push(drain_done);
                AccessOutcome {
                    complete_at: drain_done,
                    stall_until,
                }
            }
        }
    }

    // ---- internals ----

    fn fill_and_account(
        &mut self,
        stats: &mut [CpuStats],
        cpu: usize,
        now: u64,
        line: u64,
        state: Mesi,
        into_l1: Option<u64>,
    ) {
        let effects = self.hierarchies[cpu].fill(line, state, into_l1);
        self.presence_set(line, cpu);
        for e in effects {
            match e {
                FillEffect::WritebackL3(victim) => {
                    stats[cpu].add(Event::L3Writeback, 1);
                    self.presence_clear(victim, cpu);
                    let victim_addr = victim * self.line_bytes;
                    let _ = self.transaction(stats, cpu, now, TxnType::Writeback, victim_addr);
                }
                FillEffect::WritebackL2(_) => {
                    stats[cpu].add(Event::L2Writeback, 1);
                }
                FillEffect::EvictClean(victim) => {
                    self.presence_clear(victim, cpu);
                }
            }
        }
    }

    fn transaction(
        &mut self,
        stats: &mut [CpuStats],
        cpu: usize,
        at: u64,
        ttype: TxnType,
        addr: u64,
    ) -> TxnResult {
        let line = self.line_of(addr);
        let my_node = self.cfg.node_of_cpu(cpu);
        let home = self.pages.home_of(addr, my_node);
        let numa = matches!(self.cfg.topology, Topology::Numa { .. });

        let mut grant = self.node_buses[my_node].acquire(at);
        if numa && home != my_node {
            grant = self.node_buses[home].acquire(grant).max(grant);
        }
        let queue_delay = grant - at;
        stats[cpu].add(Event::BusMemory, 1);

        let remote_mem_extra = |cfg: &MachineConfig, from: usize, to: usize| -> u64 {
            if from == to {
                0
            } else {
                cfg.numa_remote_penalty + cfg.numa_hop_latency * cfg.hops_between(from, to)
            }
        };

        match ttype {
            TxnType::Writeback => TxnResult {
                latency: queue_delay,
                grant_state: Mesi::Shared,
                from_memory: false,
            },
            TxnType::Rd => {
                // The presence mask is a superset of actual holders, so
                // restricting the snoop walk to set bits finds exactly the
                // owners/sharers the full walk would.
                let holders = self.other_holders(line, cpu);
                let mut owner_m = None;
                let mut clean_sharer = None;
                for other in 0..self.cfg.num_cpus {
                    if other == cpu || holders.is_some_and(|m| m & (1 << other) == 0) {
                        continue;
                    }
                    match self.hierarchies[other].state(line) {
                        Some(Mesi::Modified) => owner_m = Some(other),
                        Some(Mesi::Exclusive) | Some(Mesi::Shared) => {
                            clean_sharer.get_or_insert(other);
                        }
                        None => {}
                    }
                }
                if let Some(o) = owner_m {
                    // HITM: the owner flushes and both end Shared; the
                    // victim's pipeline pays the snoop-response penalty.
                    self.hierarchies[o].set_state(line, Mesi::Shared);
                    self.snoop_stall[o] += self.cfg.snoop_stall;
                    self.snoop_raised = true;
                    stats[cpu].add(Event::BusRdHitm, 1);
                    let o_node = self.cfg.node_of_cpu(o);
                    let extra = if o_node == my_node {
                        0
                    } else {
                        self.cfg.numa_remote_hitm_penalty
                            + self.cfg.numa_hop_latency * self.cfg.hops_between(my_node, o_node)
                    };
                    TxnResult {
                        latency: queue_delay + self.cfg.hitm_latency + extra,
                        grant_state: Mesi::Shared,
                        from_memory: false,
                    }
                } else if let Some(s) = clean_sharer {
                    // Clean snoop hit: sharers downgrade to S.
                    for other in 0..self.cfg.num_cpus {
                        if other == cpu || holders.is_some_and(|m| m & (1 << other) == 0) {
                            continue;
                        }
                        if self.hierarchies[other].state(line) == Some(Mesi::Exclusive) {
                            self.hierarchies[other].set_state(line, Mesi::Shared);
                        }
                    }
                    stats[cpu].add(Event::BusRdHit, 1);
                    let s_node = self.cfg.node_of_cpu(s);
                    let extra = self.cfg.numa_hop_latency * self.cfg.hops_between(my_node, s_node);
                    TxnResult {
                        latency: queue_delay + self.cfg.cache2cache_latency + extra,
                        grant_state: Mesi::Shared,
                        from_memory: false,
                    }
                } else {
                    TxnResult {
                        latency: queue_delay
                            + self.cfg.mem_latency
                            + remote_mem_extra(&self.cfg, my_node, home),
                        grant_state: Mesi::Exclusive,
                        from_memory: true,
                    }
                }
            }
            TxnType::RdX => {
                let holders = self.other_holders(line, cpu);
                let mut owner_m = None;
                let mut had_clean = false;
                for other in 0..self.cfg.num_cpus {
                    if other == cpu || holders.is_some_and(|m| m & (1 << other) == 0) {
                        continue;
                    }
                    match self.hierarchies[other].state(line) {
                        Some(Mesi::Modified) => owner_m = Some(other),
                        Some(_) => had_clean = true,
                        None => {}
                    }
                }
                // All other copies are invalidated by a read-for-ownership.
                for other in 0..self.cfg.num_cpus {
                    if other == cpu || holders.is_some_and(|m| m & (1 << other) == 0) {
                        continue;
                    }
                    let _ = self.hierarchies[other].invalidate(line);
                    self.presence_clear(line, other);
                }
                if let Some(o) = owner_m {
                    self.snoop_stall[o] += self.cfg.snoop_stall;
                    self.snoop_raised = true;
                    stats[cpu].add(Event::BusRdInvalAllHitm, 1);
                    let o_node = self.cfg.node_of_cpu(o);
                    let extra = if o_node == my_node {
                        0
                    } else {
                        self.cfg.numa_remote_hitm_penalty
                            + self.cfg.numa_hop_latency * self.cfg.hops_between(my_node, o_node)
                    };
                    TxnResult {
                        latency: queue_delay + self.cfg.hitm_latency + extra,
                        grant_state: Mesi::Exclusive,
                        from_memory: false,
                    }
                } else if had_clean {
                    stats[cpu].add(Event::BusRdHit, 1);
                    TxnResult {
                        latency: queue_delay + self.cfg.cache2cache_latency,
                        grant_state: Mesi::Exclusive,
                        from_memory: false,
                    }
                } else {
                    TxnResult {
                        latency: queue_delay
                            + self.cfg.mem_latency
                            + remote_mem_extra(&self.cfg, my_node, home),
                        grant_state: Mesi::Exclusive,
                        from_memory: true,
                    }
                }
            }
            TxnType::Upgrade => {
                let holders = self.other_holders(line, cpu);
                for other in 0..self.cfg.num_cpus {
                    if other == cpu || holders.is_some_and(|m| m & (1 << other) == 0) {
                        continue;
                    }
                    let _ = self.hierarchies[other].invalidate(line);
                    self.presence_clear(line, other);
                }
                stats[cpu].add(Event::BusUpgrade, 1);
                let extra = if numa && home != my_node {
                    self.cfg.numa_hop_latency * self.cfg.hops_between(my_node, home)
                } else {
                    0
                };
                TxnResult {
                    latency: queue_delay + self.cfg.upgrade_latency + extra,
                    grant_state: Mesi::Modified,
                    from_memory: false,
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn dear_check(
        &self,
        stats: &mut [CpuStats],
        hpm: &mut [Hpm],
        cpu: usize,
        now: u64,
        pc: u32,
        addr: u64,
        latency: u64,
    ) {
        if hpm[cpu].dear_latch(pc, addr, latency, now) {
            stats[cpu].add(Event::DearEvents, 1);
        }
    }

    fn mshr_inflight(&self, cpu: usize, line: u64, now: u64) -> Option<u64> {
        self.mshrs[cpu]
            .iter()
            .find(|e| e.line == line && e.ready > now)
            .map(|e| e.ready)
    }

    fn mshr_purge(&mut self, cpu: usize, now: u64) {
        self.mshrs[cpu].retain(|e| e.ready > now);
    }

    fn mshr_try_alloc(&mut self, cpu: usize, now: u64) -> bool {
        self.mshr_purge(cpu, now);
        self.mshrs[cpu].len() < self.cfg.mshrs_per_cpu
    }

    /// Acquire an MSHR for a demand miss: returns `(issue_at, stall_until)`.
    /// When all MSHRs are busy, the core stalls until the earliest completes.
    fn mshr_acquire_blocking(&mut self, cpu: usize, now: u64) -> (u64, u64) {
        self.mshr_purge(cpu, now);
        if self.mshrs[cpu].len() < self.cfg.mshrs_per_cpu {
            (now, now)
        } else {
            let earliest = self.mshrs[cpu].iter().map(|e| e.ready).min().unwrap();
            // Free that slot now that we have conceptually waited for it.
            if let Some(pos) = self.mshrs[cpu].iter().position(|e| e.ready == earliest) {
                self.mshrs[cpu].swap_remove(pos);
            }
            (earliest, earliest)
        }
    }

    fn mshr_push(&mut self, cpu: usize, line: u64, ready: u64) {
        debug_assert!(self.mshrs[cpu].len() < self.cfg.mshrs_per_cpu);
        self.mshrs[cpu].push(MshrEntry { line, ready });
    }

    /// Acquire a store-buffer slot: `(issue_at, stall_until)`; a full buffer
    /// stalls the core until the earliest pending store drains.
    fn stbuf_acquire(&mut self, cpu: usize, now: u64) -> (u64, u64) {
        self.store_bufs[cpu].retain(|&done| done > now);
        if self.store_bufs[cpu].len() < self.cfg.store_buffer_entries {
            (now, now)
        } else {
            let earliest = *self.store_bufs[cpu].iter().min().unwrap();
            if let Some(pos) = self.store_bufs[cpu].iter().position(|&d| d == earliest) {
                self.store_bufs[cpu].swap_remove(pos);
            }
            (earliest, earliest)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(cfg: &MachineConfig) -> (MemSystem, Vec<CpuStats>, Vec<Hpm>) {
        let ms = MemSystem::new(cfg);
        let stats = (0..cfg.num_cpus).map(|_| CpuStats::new()).collect();
        let hpm = (0..cfg.num_cpus)
            .map(|_| Hpm::new(cfg.dear_min_latency))
            .collect();
        (ms, stats, hpm)
    }

    const LOAD_FP: AccessKind = AccessKind::Load {
        fp: true,
        bias: false,
    };

    #[test]
    fn cold_load_pays_memory_latency_and_fills_exclusive() {
        let cfg = MachineConfig::smp4();
        let (mut ms, mut st, mut hp) = setup(&cfg);
        let out = ms.access(&mut st, &mut hp, 0, 0, 1, LOAD_FP, 0x1000);
        assert!(out.complete_at >= cfg.mem_latency);
        assert_eq!(ms.peek_state(0, 0x1000), Some(Mesi::Exclusive));
        assert_eq!(st[0].get(Event::L3Miss), 1);
        assert_eq!(st[0].get(Event::BusMemory), 1);
        // The long-latency load qualified for the DEAR.
        assert_eq!(st[0].get(Event::DearEvents), 1);
        assert_eq!(hp[0].dear().unwrap().addr, 0x1000);
    }

    #[test]
    fn second_load_hits_l2_fast() {
        let cfg = MachineConfig::smp4();
        let (mut ms, mut st, mut hp) = setup(&cfg);
        let first = ms.access(&mut st, &mut hp, 0, 0, 1, LOAD_FP, 0x1000);
        let later = first.complete_at + 10;
        let out = ms.access(&mut st, &mut hp, 0, later, 1, LOAD_FP, 0x1008);
        assert_eq!(out.complete_at, later + cfg.l2.hit_latency);
        assert_eq!(st[0].get(Event::L3Miss), 1, "same line, no second miss");
    }

    #[test]
    fn load_to_inflight_line_waits_for_fill() {
        let cfg = MachineConfig::smp4();
        let (mut ms, mut st, mut hp) = setup(&cfg);
        let first = ms.access(&mut st, &mut hp, 0, 0, 1, LOAD_FP, 0x1000);
        let out = ms.access(&mut st, &mut hp, 0, 5, 2, LOAD_FP, 0x1010);
        assert_eq!(out.complete_at, first.complete_at);
    }

    #[test]
    fn read_sharing_downgrades_to_shared_with_rd_hit() {
        let cfg = MachineConfig::smp4();
        let (mut ms, mut st, mut hp) = setup(&cfg);
        ms.access(&mut st, &mut hp, 0, 0, 1, LOAD_FP, 0x1000);
        let out = ms.access(&mut st, &mut hp, 1, 1000, 1, LOAD_FP, 0x1000);
        assert_eq!(ms.peek_state(0, 0x1000), Some(Mesi::Shared));
        assert_eq!(ms.peek_state(1, 0x1000), Some(Mesi::Shared));
        assert_eq!(st[1].get(Event::BusRdHit), 1);
        // Clean cache-to-cache is faster than memory.
        assert!(out.complete_at - 1000 < cfg.mem_latency);
    }

    #[test]
    fn hitm_costs_more_than_memory() {
        let cfg = MachineConfig::smp4();
        let (mut ms, mut st, mut hp) = setup(&cfg);
        // CPU0 dirties the line.
        ms.access(&mut st, &mut hp, 0, 0, 1, AccessKind::Store, 0x1000);
        // CPU1 reads it: HITM.
        let out = ms.access(&mut st, &mut hp, 1, 1000, 1, LOAD_FP, 0x1000);
        assert_eq!(st[1].get(Event::BusRdHitm), 1);
        assert!(out.complete_at - 1000 >= cfg.hitm_latency);
        assert!(
            out.complete_at - 1000 > cfg.mem_latency,
            "coherent miss slower than memory (paper §4)"
        );
        assert_eq!(ms.peek_state(0, 0x1000), Some(Mesi::Shared));
    }

    #[test]
    fn store_to_shared_pays_upgrade_and_invalidates_others() {
        let cfg = MachineConfig::smp4();
        let (mut ms, mut st, mut hp) = setup(&cfg);
        ms.access(&mut st, &mut hp, 0, 0, 1, LOAD_FP, 0x1000);
        ms.access(&mut st, &mut hp, 1, 500, 1, LOAD_FP, 0x1000);
        // Both Shared now; CPU1 stores.
        let out = ms.access(&mut st, &mut hp, 1, 1000, 1, AccessKind::Store, 0x1000);
        assert_eq!(st[1].get(Event::BusUpgrade), 1);
        assert!(out.complete_at - 1000 >= cfg.upgrade_latency);
        assert_eq!(ms.peek_state(0, 0x1000), None, "other copy invalidated");
        assert_eq!(ms.peek_state(1, 0x1000), Some(Mesi::Modified));
    }

    #[test]
    fn store_to_exclusive_is_silent_and_fast() {
        let cfg = MachineConfig::smp4();
        let (mut ms, mut st, mut hp) = setup(&cfg);
        ms.access(&mut st, &mut hp, 0, 0, 1, LOAD_FP, 0x1000);
        let bus_before = st[0].get(Event::BusMemory);
        let out = ms.access(&mut st, &mut hp, 0, 500, 1, AccessKind::Store, 0x1000);
        assert_eq!(out.complete_at, 501);
        assert_eq!(
            st[0].get(Event::BusMemory),
            bus_before,
            "E->M is a silent transition"
        );
        assert_eq!(ms.peek_state(0, 0x1000), Some(Mesi::Modified));
    }

    #[test]
    fn excl_prefetch_steals_ownership() {
        let cfg = MachineConfig::smp4();
        let (mut ms, mut st, mut hp) = setup(&cfg);
        ms.access(&mut st, &mut hp, 0, 0, 1, AccessKind::Store, 0x2000);
        // CPU1 prefetches exclusively: RdX snooping a modified line. The
        // grant is a clean Exclusive (cache-to-cache source).
        ms.access(
            &mut st,
            &mut hp,
            1,
            1000,
            1,
            AccessKind::Prefetch { excl: true },
            0x2000,
        );
        assert_eq!(st[1].get(Event::BusRdInvalAllHitm), 1);
        assert_eq!(ms.peek_state(0, 0x2000), None);
        assert_eq!(
            ms.peek_state(1, 0x2000),
            Some(Mesi::Exclusive),
            "clean c2c grant"
        );
        // CPU1's subsequent store is silent.
        let bus_before: u64 = st[1].get(Event::BusMemory);
        let out = ms.access(&mut st, &mut hp, 1, 2000, 1, AccessKind::Store, 0x2000);
        assert_eq!(out.complete_at, 2001);
        assert_eq!(st[1].get(Event::BusMemory), bus_before);
    }

    #[test]
    fn plain_prefetch_then_neighbour_store_is_the_pathology() {
        // The Figure 3(a) mechanism: CPU0's prefetch pulls CPU1's modified
        // line to Shared; CPU1's next store needs an upgrade.
        let cfg = MachineConfig::smp4();
        let (mut ms, mut st, mut hp) = setup(&cfg);
        ms.access(&mut st, &mut hp, 1, 0, 1, AccessKind::Store, 0x3000);
        ms.access(
            &mut st,
            &mut hp,
            0,
            1000,
            1,
            AccessKind::Prefetch { excl: false },
            0x3000,
        );
        assert_eq!(st[0].get(Event::BusRdHitm), 1);
        assert_eq!(ms.peek_state(1, 0x3000), Some(Mesi::Shared));
        let out = ms.access(&mut st, &mut hp, 1, 2000, 1, AccessKind::Store, 0x3000);
        assert_eq!(st[1].get(Event::BusUpgrade), 1);
        assert!(out.complete_at - 2000 >= cfg.upgrade_latency);
    }

    #[test]
    fn prefetch_dropped_when_mshrs_full() {
        let cfg = MachineConfig::smp4();
        let (mut ms, mut st, mut hp) = setup(&cfg);
        for k in 0..cfg.mshrs_per_cpu as u64 {
            ms.access(
                &mut st,
                &mut hp,
                0,
                0,
                1,
                AccessKind::Prefetch { excl: false },
                k * 128,
            );
        }
        assert_eq!(st[0].get(Event::LfetchDropped), 0);
        ms.access(
            &mut st,
            &mut hp,
            0,
            0,
            1,
            AccessKind::Prefetch { excl: false },
            0x10000,
        );
        assert_eq!(st[0].get(Event::LfetchDropped), 1);
        assert_eq!(
            ms.peek_state(0, 0x10000),
            None,
            "dropped prefetch fills nothing"
        );
    }

    #[test]
    fn store_buffer_full_stalls_core() {
        let cfg = MachineConfig::smp4();
        let (mut ms, mut st, mut hp) = setup(&cfg);
        // Make every store expensive: share the lines first from another CPU.
        for k in 0..(cfg.store_buffer_entries as u64 + 1) {
            let addr = 0x8000 + k * 128;
            ms.access(&mut st, &mut hp, 0, 0, 1, LOAD_FP, addr);
            ms.access(&mut st, &mut hp, 1, 0, 1, LOAD_FP, addr);
        }
        let mut stall = 0;
        for k in 0..(cfg.store_buffer_entries as u64 + 1) {
            let addr = 0x8000 + k * 128;
            let out = ms.access(&mut st, &mut hp, 1, 10_000, 1, AccessKind::Store, addr);
            stall = out.stall_until;
        }
        assert!(
            stall > 10_000,
            "the (N+1)-th expensive store must stall the core"
        );
    }

    #[test]
    fn numa_remote_access_slower_than_local() {
        let cfg = MachineConfig::altix8();
        let (mut ms, mut st, mut hp) = setup(&cfg);
        // CPU0 (node 0) touches page first -> home node 0.
        let local = ms.access(&mut st, &mut hp, 0, 0, 1, LOAD_FP, 0x4000);
        // CPU6 (node 3) reads a different line in the same (node-0) page
        // after the first copy is gone; use a fresh line far away.
        let remote = ms.access(&mut st, &mut hp, 6, 10_000, 1, LOAD_FP, 0x4000 + 512);
        let local_lat = local.complete_at;
        let remote_lat = remote.complete_at - 10_000;
        assert!(
            remote_lat > local_lat,
            "remote {remote_lat} vs local {local_lat}"
        );
        assert_eq!(ms.pages().peek(0x4000), Some(0));
    }

    #[test]
    fn numa_remote_hitm_is_most_expensive() {
        let cfg = MachineConfig::altix8();
        let (mut ms, mut st, mut hp) = setup(&cfg);
        ms.access(&mut st, &mut hp, 7, 0, 1, AccessKind::Store, 0x9000);
        let out = ms.access(&mut st, &mut hp, 0, 10_000, 1, LOAD_FP, 0x9000);
        let lat = out.complete_at - 10_000;
        assert!(lat >= cfg.hitm_latency + cfg.numa_remote_hitm_penalty);
        assert_eq!(st[0].get(Event::BusRdHitm), 1);
    }

    #[test]
    fn upgrade_prefetch_on_shared_line() {
        let cfg = MachineConfig::smp4();
        let (mut ms, mut st, mut hp) = setup(&cfg);
        ms.access(&mut st, &mut hp, 0, 0, 1, LOAD_FP, 0x5000);
        ms.access(&mut st, &mut hp, 1, 100, 1, LOAD_FP, 0x5000);
        // CPU1 prefetches exclusively on its Shared copy: non-blocking upgrade.
        let out = ms.access(
            &mut st,
            &mut hp,
            1,
            1000,
            1,
            AccessKind::Prefetch { excl: true },
            0x5000,
        );
        assert_eq!(out.complete_at, 1000, "prefetch never blocks");
        assert_eq!(st[1].get(Event::BusUpgrade), 1);
        assert_eq!(ms.peek_state(1, 0x5000), Some(Mesi::Exclusive));
        assert_eq!(ms.peek_state(0, 0x5000), None);
    }

    #[test]
    fn excl_prefetch_from_memory_is_a_dirty_fill() {
        // Write-intent allocation: an exclusive prefetch satisfied by DRAM
        // enters Modified, so its eviction writes back even if never stored
        // to — the L2-writeback inflation behind the paper's 2 MB slowdown.
        let cfg = MachineConfig::smp4();
        let (mut ms, mut st, mut hp) = setup(&cfg);
        ms.access(
            &mut st,
            &mut hp,
            0,
            0,
            1,
            AccessKind::Prefetch { excl: true },
            0x7000,
        );
        assert_eq!(ms.peek_state(0, 0x7000), Some(Mesi::Modified));
        // Plain prefetch from memory stays clean.
        ms.access(
            &mut st,
            &mut hp,
            0,
            0,
            1,
            AccessKind::Prefetch { excl: false },
            0x9100,
        );
        assert_eq!(ms.peek_state(0, 0x9100), Some(Mesi::Exclusive));
    }

    // ---- direct MESI state-machine transitions ----
    // The snoop-side transitions were previously only exercised indirectly
    // through fig-level runs; these pin each arc down at the unit level.

    /// Snoop downgrade: a read snooping a Modified line flushes it (HITM),
    /// leaves both caches Shared, and charges the owner's pipeline the
    /// snoop-response penalty.
    #[test]
    fn snoop_downgrade_modified_to_shared_with_hitm_flush() {
        let cfg = MachineConfig::smp4();
        let (mut ms, mut st, mut hp) = setup(&cfg);
        ms.access(&mut st, &mut hp, 2, 0, 1, AccessKind::Store, 0xA000);
        assert_eq!(ms.peek_state(2, 0xA000), Some(Mesi::Modified));
        assert_eq!(ms.snoop_stall_pending(2), 0);
        ms.access(&mut st, &mut hp, 0, 1000, 1, LOAD_FP, 0xA000);
        // M -> S on the owner, the requester enters Shared too.
        assert_eq!(ms.peek_state(2, 0xA000), Some(Mesi::Shared));
        assert_eq!(ms.peek_state(0, 0xA000), Some(Mesi::Shared));
        assert_eq!(st[0].get(Event::BusRdHitm), 1);
        // The flush victim pays the snoop stall, the requester does not.
        assert_eq!(ms.snoop_stall_pending(2), cfg.snoop_stall);
        assert_eq!(ms.snoop_stall_pending(0), 0);
    }

    /// Invalidate: an ownership read (RdX) over Shared copies moves every
    /// other cache S -> I and grants the requester the only copy.
    #[test]
    fn ownership_read_invalidates_every_shared_copy() {
        let cfg = MachineConfig::smp4();
        let (mut ms, mut st, mut hp) = setup(&cfg);
        ms.access(&mut st, &mut hp, 0, 0, 1, LOAD_FP, 0xB000);
        ms.access(&mut st, &mut hp, 1, 500, 1, LOAD_FP, 0xB000);
        ms.access(&mut st, &mut hp, 2, 1000, 1, LOAD_FP, 0xB000);
        for cpu in 0..3 {
            assert_eq!(ms.peek_state(cpu, 0xB000), Some(Mesi::Shared));
        }
        // CPU3's store misses: RdX invalidates all three sharers.
        ms.access(&mut st, &mut hp, 3, 2000, 1, AccessKind::Store, 0xB000);
        for cpu in 0..3 {
            assert_eq!(ms.peek_state(cpu, 0xB000), None, "S -> I on cpu {cpu}");
        }
        assert_eq!(ms.peek_state(3, 0xB000), Some(Mesi::Modified));
        assert_eq!(st[3].get(Event::BusRdHit), 1, "clean snoop hit sourced it");
        // Clean sources flush nothing: nobody pays a snoop stall.
        for cpu in 0..4 {
            assert_eq!(ms.snoop_stall_pending(cpu), 0);
        }
    }

    /// Clean hit: a read snooping an Exclusive line downgrades the owner
    /// E -> S without a flush and without stalling anyone.
    #[test]
    fn clean_hit_downgrades_exclusive_to_shared() {
        let cfg = MachineConfig::smp4();
        let (mut ms, mut st, mut hp) = setup(&cfg);
        ms.access(&mut st, &mut hp, 1, 0, 1, LOAD_FP, 0xC000);
        assert_eq!(ms.peek_state(1, 0xC000), Some(Mesi::Exclusive));
        let out = ms.access(&mut st, &mut hp, 0, 1000, 1, LOAD_FP, 0xC000);
        assert_eq!(ms.peek_state(1, 0xC000), Some(Mesi::Shared), "E -> S");
        assert_eq!(ms.peek_state(0, 0xC000), Some(Mesi::Shared));
        assert_eq!(st[0].get(Event::BusRdHit), 1);
        assert_eq!(st[0].get(Event::BusRdHitm), 0);
        assert_eq!(ms.snoop_stall_pending(1), 0, "no flush on a clean hit");
        // Cache-to-cache beats DRAM.
        assert!(out.complete_at - 1000 < cfg.mem_latency);
    }

    /// Drain into a per-CPU vector (what the machine hands its cores).
    fn drained(ms: &mut MemSystem, cpus: usize) -> Vec<u64> {
        let mut out = vec![0; cpus];
        ms.drain_snoop_stalls(|cpu, stall| out[cpu] = stall);
        out
    }

    /// The raised-since-last-drain indicator is what lets the boundary batch
    /// skip the drain: set by a HITM on `Rd` and on `RdX`, never by a clean
    /// snoop hit, cleared by the drain, which hands over summed stalls.
    #[test]
    fn snoop_raised_tracks_hitms_since_the_last_drain() {
        let cfg = MachineConfig::smp4();
        let (mut ms, mut st, mut hp) = setup(&cfg);
        assert!(!ms.snoop_raised());
        // Clean snoop hit (E -> S): no flush, nothing raised.
        ms.access(&mut st, &mut hp, 1, 0, 1, LOAD_FP, 0xC000);
        ms.access(&mut st, &mut hp, 0, 100, 1, LOAD_FP, 0xC000);
        assert_eq!(st[0].get(Event::BusRdHit), 1);
        assert!(!ms.snoop_raised());
        // HITM on Rd.
        ms.access(&mut st, &mut hp, 2, 200, 1, AccessKind::Store, 0xA000);
        ms.access(&mut st, &mut hp, 0, 1000, 1, LOAD_FP, 0xA000);
        assert_eq!(st[0].get(Event::BusRdHitm), 1);
        assert!(ms.snoop_raised());
        assert_eq!(drained(&mut ms, 4), [0, 0, cfg.snoop_stall, 0]);
        assert!(!ms.snoop_raised(), "cleared by the drain");
        assert_eq!(ms.snoop_stall_pending(2), 0);
        // HITM on RdX, twice on one victim before the next drain: summed.
        ms.access(&mut st, &mut hp, 2, 2000, 1, AccessKind::Store, 0xB000);
        ms.access(&mut st, &mut hp, 2, 2000, 1, AccessKind::Store, 0xB080);
        ms.access(&mut st, &mut hp, 3, 3000, 1, AccessKind::Store, 0xB000);
        assert_eq!(st[3].get(Event::BusRdInvalAllHitm), 1);
        assert!(ms.snoop_raised());
        ms.access(&mut st, &mut hp, 1, 3000, 1, AccessKind::Store, 0xB080);
        assert_eq!(drained(&mut ms, 4), [0, 0, 2 * cfg.snoop_stall, 0]);
        assert!(!ms.snoop_raised());
        assert_eq!(drained(&mut ms, 4), [0; 4], "nothing is delivered twice");
    }

    /// The solo stretch's case: one core issues for many cycles with no
    /// drain in between and its HITMs land on cores that are not Running.
    /// The one drain at the stretch's end still discards them all.
    #[test]
    fn one_drain_discards_hitms_on_a_victim_that_is_not_running() {
        let cfg = MachineConfig::smp4();
        let (mut ms, mut st, mut hp) = setup(&cfg);
        ms.access(&mut st, &mut hp, 2, 0, 1, AccessKind::Store, 0xA000);
        ms.access(&mut st, &mut hp, 2, 0, 1, AccessKind::Store, 0xA080);
        ms.access(&mut st, &mut hp, 0, 1000, 1, LOAD_FP, 0xA000);
        ms.access(&mut st, &mut hp, 0, 4000, 1, LOAD_FP, 0xA080);
        assert_eq!(ms.snoop_stall_pending(2), 2 * cfg.snoop_stall);
        let mut victim = crate::core::Core::new(2); // Idle: its thread is done
        ms.drain_snoop_stalls(|cpu, stall| {
            if cpu == 2 {
                victim.add_stall(5000, stall);
            }
        });
        assert_eq!(
            victim.resume_at(),
            0,
            "a core that is not Running ignores it"
        );
        assert!(!ms.snoop_raised());
        assert_eq!(ms.snoop_stall_pending(2), 0);
    }

    #[test]
    #[should_panic(expected = "numa_page_bytes must be a power of two, got 12288")]
    fn page_size_that_is_not_a_power_of_two_is_refused() {
        let mut cfg = MachineConfig::altix8();
        cfg.numa_page_bytes = 12 << 10;
        let _ = MemSystem::new(&cfg);
    }

    #[test]
    fn first_touch_assigns_home_to_toucher() {
        let cfg = MachineConfig::altix8();
        let (mut ms, mut st, mut hp) = setup(&cfg);
        // CPU2 lives on node 1 and touches a fresh page first.
        let addr = 5 * cfg.numa_page_bytes as u64;
        ms.access(&mut st, &mut hp, 2, 0, 1, LOAD_FP, addr);
        assert_eq!(ms.pages().peek(addr), Some(1));
    }
}
