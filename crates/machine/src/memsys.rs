//! The coherent memory system: private cache hierarchies, a MESI directory,
//! transactions over node buses, NUMA home nodes with first-touch
//! placement, MSHRs and store buffers.
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
//!
//! The directory (`MemSystem::dir`, two bits per CPU per coherence line) is
//! the only record of MESI state, non-zero exactly where that CPU's L3 holds
//! the line. A snoop visits only the CPUs it names, and an `lfetch` its
//! CPU's state already serves ends on one read of it ([`MemSystem::prefetch`]).

use serde::{Deserialize, Serialize};

use crate::bus::Bus;
use crate::cache::{HitLevel, PrivateHierarchy};
use crate::config::{MachineConfig, Topology};
use crate::events::{CpuStats, Event};
use crate::hpm::Hpm;

/// MESI coherence state of a cached line; the discriminant is its code in
/// the directory (0 is a line the CPU does not hold).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mesi {
    Shared = 1,
    Exclusive = 2,
    Modified = 3,
}

/// The directory bits of one CPU (shifted by `2 * cpu`), and their codes.
const HELD: u32 = 0b11;
const S: u32 = Mesi::Shared as u32;
const E: u32 = Mesi::Exclusive as u32;
const M: u32 = Mesi::Modified as u32;

/// The CPUs a directory word names, in CPU order, each with its code.
fn holders(word: u32) -> impl Iterator<Item = (usize, u32)> {
    let mut rest = word;
    std::iter::from_fn(move || {
        let cpu = rest.trailing_zeros() as usize / 2;
        (rest != 0).then(|| {
            rest &= !(HELD << (2 * cpu));
            (cpu, word >> (2 * cpu) & HELD)
        })
    })
}

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
    /// The MESI directory: per coherence line, CPU `c`'s state code in bits
    /// `2c..2c + 2`, zero exactly when `c`'s L3 does not hold the line.
    dir: Vec<u32>,
}

impl MemSystem {
    pub fn new(cfg: &MachineConfig) -> Self {
        assert!(
            cfg.num_cpus <= 16,
            "a directory word holds 16 CPUs, got {}",
            cfg.num_cpus
        );
        let hierarchies = (0..cfg.num_cpus)
            .map(|_| PrivateHierarchy::new(cfg.l1d, cfg.l2, cfg.l3))
            .collect();
        let line_bytes = cfg.coherence_line() as u64;
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
            dir: vec![0; cfg.mem_bytes.div_ceil(line_bytes as usize)],
            cfg: cfg.clone(),
        }
    }

    /// Coherence-line address of a byte address.
    #[inline]
    pub(crate) fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// `cpu`'s directory code for `line` (0: not held).
    #[inline]
    fn code(&self, line: u64, cpu: usize) -> u32 {
        self.dir[line as usize] >> (2 * cpu) & HELD
    }

    #[inline]
    fn set_code(&mut self, line: u64, cpu: usize, code: u32) {
        let word = &mut self.dir[line as usize];
        *word = *word & !(HELD << (2 * cpu)) | code << (2 * cpu);
    }

    /// MESI state of a line in one CPU's hierarchy (diagnostics/tests).
    pub fn peek_state(&self, cpu: usize, addr: u64) -> Option<Mesi> {
        use Mesi::*;
        [None, Some(Shared), Some(Exclusive), Some(Modified)]
            [self.code(self.line_of(addr), cpu) as usize]
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

    /// An `lfetch` (`excl` for `lfetch.excl`): counts `LFETCH_ISSUED` and,
    /// when the CPU already holds the line Modified or Exclusive, or Shared
    /// for a plain hint, stops there, on one read of the directory. That is
    /// all the full arm does in those states, whatever its MSHR check finds.
    #[inline]
    pub fn prefetch(
        &mut self,
        stats: &mut [CpuStats],
        cpu: usize,
        now: u64,
        excl: bool,
        addr: u64,
    ) {
        stats[cpu].add(Event::LfetchIssued, 1);
        if self.code(self.line_of(addr), cpu) <= u32::from(excl) {
            self.prefetch_unheld(stats, cpu, now, excl, addr);
        }
    }

    /// The rest of [`Self::prefetch`]: a line the CPU does not hold, or
    /// holds Shared under an `.excl` hint.
    #[inline(never)]
    fn prefetch_unheld(
        &mut self,
        stats: &mut [CpuStats],
        cpu: usize,
        now: u64,
        excl: bool,
        addr: u64,
    ) {
        let line = self.line_of(addr);
        if self.mshr_inflight(cpu, line, now).is_some() {
            return;
        }
        if self.code(line, cpu) == S {
            // Non-blocking ownership upgrade at prefetch time (clean
            // Exclusive; the following store's E->M transition is silent).
            let _ = self.transaction(stats, cpu, now, TxnType::Upgrade, addr);
            self.set_code(line, cpu, E);
            return;
        }
        stats[cpu].add(Event::L2Miss, 1);
        stats[cpu].add(Event::L3Miss, 1);
        if !self.mshr_try_alloc(cpu, now) {
            stats[cpu].add(Event::LfetchDropped, 1);
            return;
        }
        let ttype = if excl { TxnType::RdX } else { TxnType::Rd };
        let txn = self.transaction(stats, cpu, now, ttype, addr);
        // `.excl` from memory is a write-intent allocation: the line enters
        // Modified and will be written back on eviction even if never stored
        // to — the L2-writeback inflation of the paper's §2 (the 2 MB DAXPY
        // slowdown). Cache-to-cache grants stay clean Exclusive, as on the
        // real bus.
        let state = match (excl, txn.from_memory) {
            (true, true) => Mesi::Modified,
            (true, false) => Mesi::Exclusive,
            (false, _) => txn.grant_state,
        };
        self.fill_and_account(stats, cpu, now, line, state, None);
        self.mshr_push(cpu, line, now + txn.latency);
    }

    /// Perform one access; updates cache state, buses, MSHRs, store buffers,
    /// per-CPU stats and (for demand loads) the DEAR latch. One path for
    /// both engines.
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

        match kind {
            AccessKind::Prefetch { excl } => {
                self.prefetch(stats, cpu, now, excl, addr);
                AccessOutcome {
                    complete_at: now,
                    stall_until: now,
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
                    if bias && self.code(line, cpu) == S {
                        let _ = self.transaction(stats, cpu, now, TxnType::Upgrade, addr);
                        self.set_code(line, cpu, E);
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
                let drain_done = match self.code(line, cpu) {
                    M => drain_start + 1,
                    E => {
                        self.set_code(line, cpu, M);
                        drain_start + 1
                    }
                    S => {
                        // The expensive path aggressive cross-partition
                        // prefetching creates: an invalidation round trip
                        // serializing through the store buffer.
                        let txn = self.transaction(stats, cpu, drain_start, TxnType::Upgrade, addr);
                        self.set_code(line, cpu, M);
                        drain_start + txn.latency
                    }
                    _ => {
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

    /// Install `line` in `cpu`'s hierarchy in `state`. An L3 victim leaves
    /// the directory (and is written back if Modified); an L2 victim whose
    /// L3 copy is Modified counts an L2 writeback (its data lands in the
    /// inclusive L3, no bus traffic — the paper attributes the 2 MB
    /// `lfetch.excl` slowdown to these).
    fn fill_and_account(
        &mut self,
        stats: &mut [CpuStats],
        cpu: usize,
        now: u64,
        line: u64,
        state: Mesi,
        into_l1: Option<u64>,
    ) {
        let (l3_victim, l2_victim) = self.hierarchies[cpu].fill(line, into_l1);
        self.set_code(line, cpu, state as u32);
        if let Some(victim) = l3_victim {
            let was = self.code(victim, cpu);
            self.set_code(victim, cpu, 0);
            if was == M {
                stats[cpu].add(Event::L3Writeback, 1);
                let victim_addr = victim * self.line_bytes;
                let _ = self.transaction(stats, cpu, now, TxnType::Writeback, victim_addr);
            }
        }
        if l2_victim.is_some_and(|victim| self.code(victim, cpu) == M) {
            stats[cpu].add(Event::L2Writeback, 1);
        }
    }

    /// Invalidate every copy `others` (a directory word) names, leaving
    /// only `cpu`'s bits in the line's word.
    fn invalidate_others(&mut self, line: u64, cpu: usize, others: u32) {
        for (other, _) in holders(others) {
            self.hierarchies[other].invalidate(line);
        }
        self.dir[line as usize] &= HELD << (2 * cpu);
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
        // The other CPUs holding the line: the snoop visits these and no
        // other. A line held M or E has no other holder.
        let others = self.dir[line as usize] & !(HELD << (2 * cpu));
        let owner_m = holders(others).find(|&(_, code)| code == M).map(|(o, _)| o);

        match ttype {
            TxnType::Writeback => TxnResult {
                latency: queue_delay,
                grant_state: Mesi::Shared,
                from_memory: false,
            },
            TxnType::Rd => {
                if let Some(o) = owner_m {
                    // HITM: the owner flushes and both end Shared; the
                    // victim's pipeline pays the snoop-response penalty.
                    self.set_code(line, o, S);
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
                } else if let Some((s, _)) = holders(others).next() {
                    // Clean snoop hit: sharers downgrade to S.
                    for (other, code) in holders(others) {
                        if code == E {
                            self.set_code(line, other, S);
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
                // All other copies are invalidated by a read-for-ownership.
                self.invalidate_others(line, cpu, others);
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
                } else if others != 0 {
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
                self.invalidate_others(line, cpu, others);
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
    #[should_panic(expected = "a directory word holds 16 CPUs, got 17")]
    fn seventeen_cpus_are_refused() {
        let mut cfg = MachineConfig::altix8();
        cfg.num_cpus = 17;
        let _ = MemSystem::new(&cfg);
    }

    /// The inline head stops only where the hint is already served: a plain
    /// `lfetch` on a Shared line is counted and does nothing more, an
    /// `.excl` one on the same line still takes the ownership upgrade.
    #[test]
    fn held_shared_line_still_takes_the_upgrade_on_an_excl_prefetch() {
        let cfg = MachineConfig::smp4();
        let (mut ms, mut st, mut hp) = setup(&cfg);
        ms.access(&mut st, &mut hp, 0, 0, 1, LOAD_FP, 0x5000);
        ms.access(&mut st, &mut hp, 1, 100, 1, LOAD_FP, 0x5000);
        let bus = ms.bus_transactions();
        ms.prefetch(&mut st, 1, 1000, false, 0x5000);
        assert_eq!(st[1].get(Event::LfetchIssued), 1);
        assert_eq!(ms.bus_transactions(), bus, "a plain hint on S is served");
        assert_eq!(ms.peek_state(1, 0x5000), Some(Mesi::Shared));
        ms.prefetch(&mut st, 1, 2000, true, 0x5000);
        assert_eq!(st[1].get(Event::LfetchIssued), 2);
        assert_eq!(st[1].get(Event::BusUpgrade), 1);
        assert_eq!(ms.peek_state(1, 0x5000), Some(Mesi::Exclusive));
        assert_eq!(ms.peek_state(0, 0x5000), None);
    }

    /// Thirteen lines of one L3 set on one CPU: the first is evicted and
    /// leaves the directory, so another CPU's read of it goes to memory.
    #[test]
    fn an_l3_eviction_takes_the_victim_out_of_the_directory() {
        let cfg = MachineConfig::smp4();
        let (mut ms, mut st, mut hp) = setup(&cfg);
        let set_stride = (cfg.l3.sets() * cfg.l3.line) as u64;
        for k in 0..=cfg.l3.ways as u64 {
            ms.access(&mut st, &mut hp, 0, k * 1000, 1, LOAD_FP, k * set_stride);
        }
        assert_eq!(ms.peek_state(0, 0), None, "the LRU way left L3");
        assert!(ms.hierarchies.iter().all(|h| !h.holds(0)));
        ms.access(&mut st, &mut hp, 1, 100_000, 1, LOAD_FP, 0);
        assert_eq!(st[1].get(Event::BusRdHit), 0);
        assert_eq!(ms.peek_state(1, 0), Some(Mesi::Exclusive));
    }

    /// The same thirteen lines, the first one stored to (Modified) or loaded
    /// (Exclusive): a Modified victim counts an L2 writeback when it leaves
    /// L2 and an L3 writeback with one more bus transaction when it leaves
    /// L3; a clean victim counts neither.
    #[test]
    fn a_modified_l3_victim_is_written_back_and_a_clean_one_is_not() {
        let cfg = MachineConfig::smp4();
        let set_stride = (cfg.l3.sets() * cfg.l3.line) as u64;
        let last = cfg.l3.ways as u64;
        for (first, writebacks) in [(AccessKind::Store, 1), (LOAD_FP, 0)] {
            let (mut ms, mut st, mut hp) = setup(&cfg);
            ms.access(&mut st, &mut hp, 0, 0, 1, first, 0);
            for k in 1..last {
                ms.access(&mut st, &mut hp, 0, k * 1000, 1, LOAD_FP, k * set_stride);
            }
            assert_eq!(st[0].get(Event::L2Writeback), writebacks, "{first:?}");
            assert_eq!(st[0].get(Event::L3Writeback), 0, "{first:?}");
            let bus_before = ms.bus_transactions();
            ms.access(
                &mut st,
                &mut hp,
                0,
                last * 1000,
                1,
                LOAD_FP,
                last * set_stride,
            );
            assert_eq!(ms.peek_state(0, 0), None, "{first:?}");
            assert_eq!(st[0].get(Event::L3Writeback), writebacks, "{first:?}");
            assert_eq!(
                ms.bus_transactions() - bus_before,
                1 + writebacks,
                "{first:?}: the fill, plus the writeback of a Modified victim"
            );
        }
    }

    /// Stores to a line already held Modified drain one cycle apart through
    /// the single write port.
    #[test]
    fn repeated_private_store_drains_one_cycle_apart() {
        let cfg = MachineConfig::smp4();
        let (mut ms, mut st, mut hp) = setup(&cfg);
        ms.access(&mut st, &mut hp, 0, 0, 1, AccessKind::Store, 0x1000);
        let completes: Vec<u64> = (0..20u64)
            .map(|k| {
                let out = ms.access(&mut st, &mut hp, 0, 1000 + k, 1, AccessKind::Store, 0x1000);
                out.complete_at
            })
            .collect();
        for w in completes.windows(2) {
            assert_eq!(w[1], w[0] + 1);
        }
    }

    /// One randomly generated access: CPU, gap since the previous access,
    /// kind, line of the pool and byte offset within the line.
    type RawAccess = (usize, u64, u8, u64, u64);

    fn raw_kind(sel: u8) -> AccessKind {
        match sel % 6 {
            0 => LOAD_FP,
            1 => AccessKind::Load {
                fp: false,
                bias: false,
            },
            2 => AccessKind::Load {
                fp: false,
                bias: true,
            },
            3 => AccessKind::Store,
            4 => AccessKind::Prefetch { excl: false },
            _ => AccessKind::Prefetch { excl: true },
        }
    }

    /// Drive `accesses` through one memory system and check the directory
    /// after every access: a CPU's bits are non-zero exactly when its L3
    /// holds the line, and a line held Modified or Exclusive has one holder.
    /// The pool's 32 lines fall in two sets of every level, 16 to a set, so
    /// CPUs collide constantly and L3 evicts.
    fn check_directory(cfg: MachineConfig, accesses: &[RawAccess]) {
        let (mut ms, mut st, mut hp) = setup(&cfg);
        let n = cfg.num_cpus;
        let line_bytes = cfg.coherence_line() as u64;
        let pool: Vec<u64> = (0..32)
            .map(|k| k % 2 + k / 2 * cfg.l3.sets() as u64)
            .collect();
        let mut now = 0;
        for (i, &(cpu_sel, dt, kind_sel, line_sel, offset)) in accesses.iter().enumerate() {
            now += dt;
            let addr = pool[line_sel as usize % 32] * line_bytes + offset % line_bytes / 8 * 8;
            ms.access(
                &mut st,
                &mut hp,
                cpu_sel % n,
                now,
                1,
                raw_kind(kind_sel),
                addr,
            );
            for &line in &pool {
                let mut owners = 0;
                for cpu in 0..n {
                    let state = ms.peek_state(cpu, line * line_bytes);
                    assert_eq!(
                        state.is_some(),
                        ms.hierarchies[cpu].holds(line),
                        "access #{i}: cpu {cpu} line {line}: {state:?} against the L3 tags"
                    );
                    owners += u32::from(matches!(state, Some(Mesi::Modified | Mesi::Exclusive)));
                }
                let word = ms.dir[line as usize];
                assert!(
                    owners == 0 || owners == 1 && holders(word).count() == 1,
                    "access #{i}: line {line}: directory word {word:#b}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The directory property on the SMP.
        #[test]
        fn raw_access_sequences_keep_the_directory_exact_smp(
            accesses in proptest::collection::vec(
                (0usize..4, 0u64..400, 0u8..6, 0u64..32, 0u64..128),
                1..120,
            ),
        ) {
            check_directory(MachineConfig::smp4(), &accesses);
        }

        /// The same property on the cc-NUMA machine (NUMA latency arms,
        /// remote HITM paths, per-node buses).
        #[test]
        fn raw_access_sequences_keep_the_directory_exact_altix(
            accesses in proptest::collection::vec(
                (0usize..8, 0u64..400, 0u8..6, 0u64..32, 0u64..128),
                1..120,
            ),
        ) {
            check_directory(MachineConfig::altix8(), &accesses);
        }
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
