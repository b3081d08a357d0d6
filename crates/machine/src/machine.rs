//! The whole machine: cores in lockstep over a shared coherent memory system,
//! a flat functional data memory, the decoded program text, and per-CPU HPMs.
//!
//! The simulator is *functional-first*: data values live in [`DataMem`] and
//! are updated in program order at issue, so computations are always
//! numerically correct; the cache/bus model in [`crate::memsys`] provides
//! timing and event counts. Runtime patching happens through
//! [`Machine::patch_word`] / [`Machine::append_trace`] — the simulated
//! analogue of COBRA writing words into the text segment of a live process.
//! The text carries its own stamp ([`CodeImage::generation`]), so every
//! decoded form of it is dropped by the write itself, not by a flush the
//! writer has to remember.

use cobra_isa::image::{CodeImage, PatchError};
use cobra_isa::insn::Insn;
use cobra_isa::CodeAddr;

use crate::blocks::{BlockCache, BlockStats, FallbackReason};
use crate::config::{HostAccel, MachineConfig};
use crate::core::{Core, CoreStatus};
use crate::events::{self, CpuStats, Event};
use crate::hpm::Hpm;
use crate::memsys::MemSystem;
use crate::redirect::RedirectTable;

/// Flat byte-addressed functional data memory.
#[derive(Debug, Clone)]
pub struct DataMem {
    bytes: Vec<u8>,
}

impl DataMem {
    pub fn new(size: usize) -> Self {
        DataMem {
            bytes: vec![0; size],
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Can a full 8-byte access at `addr` be satisfied? Overflow-safe for
    /// any guest-computed address, including those near `u64::MAX` (where a
    /// naive `addr + 8` wraps around and would falsely pass).
    #[inline]
    pub(crate) fn in_bounds(&self, addr: u64) -> bool {
        usize::try_from(addr)
            .ok()
            .and_then(|a| a.checked_add(8))
            .is_some_and(|end| end <= self.bytes.len())
    }

    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let a = addr as usize;
        u64::from_le_bytes(
            self.bytes[a..a + 8]
                .try_into()
                .expect("read_u64 out of bounds"),
        )
    }

    #[inline]
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        let a = addr as usize;
        self.bytes[a..a + 8].copy_from_slice(&value.to_le_bytes());
    }

    #[inline]
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    #[inline]
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// The `words` 8-byte words at `addr`, bounds-checked once.
    fn words_mut(&mut self, addr: u64, words: usize) -> std::slice::ChunksExactMut<'_, u8> {
        let a = addr as usize;
        self.bytes[a..a + 8 * words].chunks_exact_mut(8)
    }

    /// Bulk-initialize a contiguous `f64` array (host-side workload setup).
    pub fn write_f64_slice(&mut self, addr: u64, values: &[f64]) {
        for (w, v) in self.words_mut(addr, values.len()).zip(values) {
            w.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Bulk-read a contiguous `f64` array (host-side verification).
    pub fn read_f64_slice(&self, addr: u64, len: usize) -> Vec<f64> {
        (0..len)
            .map(|k| self.read_f64(addr + 8 * k as u64))
            .collect()
    }

    /// Bulk-initialize a contiguous `i64` array.
    pub fn write_i64_slice(&mut self, addr: u64, values: &[i64]) {
        for (w, v) in self.words_mut(addr, values.len()).zip(values) {
            w.copy_from_slice(&v.to_le_bytes());
        }
    }
}

/// State shared by all cores (everything except the cores themselves).
#[derive(Debug)]
pub struct Shared {
    pub cfg: MachineConfig,
    pub mem: DataMem,
    /// The program text. Mutating it here directly is as safe as going
    /// through [`Machine::patch_word`]: the image stamps its own mutations.
    pub code: CodeImage,
    pub memsys: MemSystem,
    pub stats: Vec<CpuStats>,
    pub hpm: Vec<Hpm>,
    /// Pre-decoded basic blocks of `code` (see [`crate::blocks`]); consulted
    /// by the cores only under [`HostAccel::Fast`].
    pub blocks: BlockCache,
    /// Armed on-stack-replacement edges (see [`crate::redirect`]); consulted
    /// by `Core::take_branch` on every taken branch while non-empty.
    pub redirects: RedirectTable,
    pub cycle: u64,
}

/// Outcome of a bounded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Cycles executed by this call.
    pub cycles: u64,
    /// True when no bound thread remains runnable: each one reached `hlt`
    /// or took a guest memory fault (see `faulted`).
    pub halted: bool,
    /// True when at least one bound thread terminated with a guest memory
    /// fault instead of a clean `hlt`.
    pub faulted: bool,
}

/// One core's slot in the current boundary batch (see
/// [`Machine::run_boundary_batch`]), written at the batch's entry.
#[derive(Debug, Clone, Copy, Default)]
struct BatchSlot {
    /// The first cycle on which the core may issue: its `resume_at` while it
    /// is Running, `u64::MAX` once it is not.
    wake: u64,
    /// Cycles on which it issued.
    issues: u64,
    retired: u64,
    /// The cycle at which it left Running: `u64::MAX` while it runs, the
    /// batch's start if it never did.
    stop: u64,
}

/// A simulated multiprocessor executing one program image.
#[derive(Debug)]
pub struct Machine {
    cores: Vec<Core>,
    /// Per core; read only inside [`Machine::run_boundary_batch`].
    batch: Vec<BatchSlot>,
    pub shared: Shared,
    next_tid: u32,
}

impl Machine {
    /// # Panics
    /// Panics when a word of `image` does not decode: the cores fetch
    /// decoded instructions, and every later mutation keeps the text
    /// decodable (a patched word is validated, an appended one encoded).
    pub fn new(cfg: MachineConfig, image: CodeImage) -> Self {
        for addr in 0..image.len() {
            image
                .insn(addr)
                .expect("undecodable instruction in program image");
        }
        let n = cfg.num_cpus;
        let shared = Shared {
            mem: DataMem::new(cfg.mem_bytes),
            code: image,
            memsys: MemSystem::new(&cfg),
            stats: (0..n).map(|_| CpuStats::new()).collect(),
            hpm: (0..n).map(|_| Hpm::new(cfg.dear_min_latency)).collect(),
            blocks: BlockCache::new(),
            redirects: RedirectTable::default(),
            cycle: 0,
            cfg,
        };
        Machine {
            cores: (0..n).map(Core::new).collect(),
            batch: vec![BatchSlot::default(); n],
            shared,
            next_tid: 0,
        }
    }

    /// Number of CPUs.
    pub fn num_cpus(&self) -> usize {
        self.shared.cfg.num_cpus
    }

    /// Bind a new software thread to `cpu` starting at `entry`, passing
    /// `args` in `r8..`. Returns the thread id.
    pub fn spawn_thread(&mut self, cpu: usize, entry: CodeAddr, args: &[i64]) -> u32 {
        let tid = self.next_tid;
        self.next_tid += 1;
        self.cores[cpu].bind_thread(tid, entry, args);
        tid
    }

    /// Advance the whole machine one cycle (the per-cycle oracle).
    pub fn step(&mut self) {
        for i in 0..self.cores.len() {
            self.cores[i].step(&mut self.shared);
        }
        self.end_cycles(1);
    }

    /// The tail of [`Self::step`] and of a stretch: deliver the
    /// snoop-response penalties accrued at the current cycle, advance the
    /// clock by `n`, and poll for a sampling overflow at the new cycle.
    fn end_cycles(&mut self, n: u64) {
        self.drain_snoop_stalls();
        self.shared.cycle += n;
        self.poll_overflows();
    }

    /// Deliver the snoop-response penalties accrued at the current cycle to
    /// the victims' pipelines.
    fn drain_snoop_stalls(&mut self) {
        let (cores, now) = (&mut self.cores, self.shared.cycle);
        self.shared
            .memsys
            .drain_snoop_stalls(|cpu, stall| cores[cpu].add_stall(now, stall));
    }

    /// Poll every CPU's HPM for a sampling overflow at the current cycle.
    fn poll_overflows(&mut self) {
        for cpu in 0..self.cores.len() {
            let core = &self.cores[cpu];
            self.shared.hpm[cpu].poll_overflow(
                &self.shared.stats[cpu],
                core.pc,
                core.tid.unwrap_or(u32::MAX),
                self.shared.cycle,
            );
        }
    }

    /// Has every bound thread terminated — reached `hlt` or faulted?
    /// (False when no thread is bound.)
    pub(crate) fn all_halted(&self) -> bool {
        let mut any = false;
        for c in &self.cores {
            match c.status {
                CoreStatus::Running => return false,
                CoreStatus::Halted | CoreStatus::Faulted => any = true,
                CoreStatus::Idle => {}
            }
        }
        any
    }

    /// Did any bound thread terminate with a guest memory fault?
    pub(crate) fn any_faulted(&self) -> bool {
        self.cores.iter().any(|c| c.status == CoreStatus::Faulted)
    }

    /// The CPU of the one Running core, or `None` when none or two or more
    /// run.
    fn solo_cpu(&self) -> Option<usize> {
        let mut running = self
            .cores
            .iter()
            .filter(|c| c.status == CoreStatus::Running);
        let first = running.next()?;
        running.next().is_none().then_some(first.cpu)
    }

    /// How many cycles, at most `left`, the next stretch or batch may run
    /// with no sampled counter crossing its threshold inside; 0 when one may
    /// cross on the very next cycle, which then runs alone and is polled at
    /// its end, as [`Self::step`] polls it.
    ///
    /// A stretch or a batch polls for overflows only at its end, which is
    /// exact while no sampled counter crosses before its last cycle. Only a
    /// Running core's counters move inside `run` (the memory system counts
    /// an event on the requesting CPU alone), so each Running core that
    /// samples caps the budget by how fast its event can advance. With
    /// `safe` = headroom − 1 events that may pass without a crossing and
    /// `quiet` cycles until the core wakes (0 when it is awake), during
    /// which it retires, branches and misses nothing, the cap is
    ///
    /// * `safe` for `CPU_CYCLES` and `BE_STALL_CYCLES` (one a cycle, stalled
    ///   or not);
    /// * `quiet + safe / 3` for `IA64_INST_RETIRED` (the issue width);
    /// * `quiet + safe` for `BR_TAKEN` (a taken branch ends its group);
    /// * `quiet` for any other event (cache, bus, DEAR and fault counters
    ///   have no bound per cycle).
    fn sampling_budget(&self, left: u64) -> u64 {
        let now = self.shared.cycle;
        let mut budget = left;
        for c in &self.cores {
            if c.status != CoreStatus::Running {
                continue;
            }
            let Some((event, headroom)) =
                self.shared.hpm[c.cpu].sampling_headroom(&self.shared.stats[c.cpu])
            else {
                continue;
            };
            let safe = headroom.saturating_sub(1);
            let quiet = c.resume_at().saturating_sub(now);
            let cap = match event {
                Event::CpuCycles | Event::StallCycles => safe,
                Event::InstRetired => quiet.saturating_add(safe / 3),
                Event::BrTaken => quiet.saturating_add(safe),
                _ => quiet,
            };
            budget = budget.min(cap);
        }
        budget
    }

    /// Execute one stretch of the solo Running core on `cpu`:
    /// [`Core::run_stretch`] on a local clock for the whole `budget`, then
    /// one clock advance. The core may issue memory uops: the snoop stalls
    /// they raise land on cores that are not running, so the tail's one
    /// drain discards them exactly as the per-cycle drains would. The clock
    /// advances by the cycles the core consumed — the whole budget unless it
    /// halts or faults inside, exactly where the reference loop would stop
    /// counting.
    fn run_stretch(&mut self, cpu: usize, budget: u64) {
        let now = self.shared.cycle;
        let executed = self.cores[cpu].run_stretch(&mut self.shared, now, budget);
        self.end_cycles(executed);
    }

    /// Run a batch of cycles while no core or two or more cores are Running;
    /// returns the cycles it ran. Cores issue in CPU order at the shared
    /// clock through [`Core::issue`], bit-identical to the schedule of
    /// [`Self::step`], and each cycle pays only for what can change on it:
    ///
    /// * a cycle visits only the cores whose wake cycle (a [`BatchSlot`])
    ///   has come. A core's wake is its `resume_at`, and only its own group
    ///   and a snoop drain move that: it is re-read after the one and after
    ///   the other, and set to `u64::MAX` when the core halts or faults;
    /// * snoop stalls are drained at the end of a cycle on which the memory
    ///   system raised one, and on no other (every slot is zero);
    /// * a cycle on which no core issued raised none, and leaves every
    ///   Running core asleep until its wake: the clock jumps to the earliest
    ///   one, capped at the budget's end;
    /// * no sampled counter crosses its threshold before the batch's last
    ///   cycle ([`Self::sampling_budget`]), so the per-cycle overflow polls
    ///   would be no-ops, and one poll at the end observes the same thing;
    /// * nothing between two polls reads `CPU_CYCLES`, `BE_STALL_CYCLES` or
    ///   `IA64_INST_RETIRED`, so they are settled once, before that poll and
    ///   before `run` can return, as [`Core::run_stretch`] does for a
    ///   stretch: a core earns the cycles it was Running, stalled on each of
    ///   them it did not issue on, and the uops it retired.
    ///
    /// The batch ends at `budget` (≥ 1) or when fewer than two cores remain
    /// Running (the solo stretch or halt handling takes over). Every cycle is
    /// reference-faithful on the shared clock, so stopping at any point is
    /// safe.
    fn run_boundary_batch(&mut self, budget: u64) -> u64 {
        let start = self.shared.cycle;
        let end = start + budget;
        let mut running = 0u32;
        for (core, slot) in self.cores.iter().zip(&mut self.batch) {
            let on = core.status == CoreStatus::Running;
            running += u32::from(on);
            *slot = BatchSlot {
                wake: if on { core.resume_at() } else { u64::MAX },
                stop: if on { u64::MAX } else { start },
                ..BatchSlot::default()
            };
        }
        loop {
            let now = self.shared.cycle;
            let mut issued = false;
            for (core, slot) in self.cores.iter_mut().zip(&mut self.batch) {
                if slot.wake > now {
                    continue;
                }
                slot.retired += core.issue(&mut self.shared, now);
                slot.issues += 1;
                issued = true;
                if core.status == CoreStatus::Running {
                    slot.wake = core.resume_at();
                } else {
                    (slot.wake, slot.stop) = (u64::MAX, now + 1);
                    running -= 1;
                }
            }
            if self.shared.memsys.snoop_raised() {
                self.drain_snoop_stalls();
                for (core, slot) in self.cores.iter().zip(&mut self.batch) {
                    if slot.wake != u64::MAX {
                        slot.wake = core.resume_at();
                    }
                }
            }
            self.shared.cycle += 1;
            if !issued {
                self.shared.cycle = self.batch.iter().map(|s| s.wake).fold(end, u64::min);
            }
            if self.shared.cycle == end || running < 2 {
                break;
            }
        }
        let now = self.shared.cycle;
        for (slot, stats) in self.batch.iter().zip(&mut self.shared.stats) {
            let cycles = slot.stop.min(now) - start;
            stats.add(Event::CpuCycles, cycles);
            stats.add(Event::StallCycles, cycles - slot.issues);
            stats.add(Event::InstRetired, slot.retired);
        }
        self.poll_overflows();
        now - start
    }

    /// Run until every bound thread terminates or `max_cycles` elapse.
    ///
    /// Under [`HostAccel::Reference`] this is [`Self::step`] in a loop.
    /// Under [`HostAccel::Fast`] each iteration runs one budget of at least
    /// one cycle ([`Self::sampling_budget`]) through one of two paths: a
    /// solo Running core runs a stretch ([`Self::run_stretch`]); otherwise
    /// the boundary batch interleaves the Running cores' pre-decoded cycles
    /// and jumps the clock across the windows in which none can issue
    /// ([`Self::run_boundary_batch`]). Both poll for sampling overflows only
    /// at their end, which the budget makes exact. Results are bit-identical
    /// either way (enforced by the `stall_skip_equivalence`,
    /// `mem_fastpath_equivalence` and `block_dispatch_equivalence` suites).
    pub fn run(&mut self, max_cycles: u64) -> RunResult {
        let start = self.shared.cycle;
        let fast = self.shared.cfg.host_accel == HostAccel::Fast;
        while !self.all_halted() {
            let elapsed = self.shared.cycle - start;
            if elapsed >= max_cycles {
                return RunResult {
                    cycles: elapsed,
                    halted: false,
                    faulted: self.any_faulted(),
                };
            }
            if !fast {
                self.step();
                continue;
            }
            let budget = self.sampling_budget(max_cycles - elapsed);
            let held = budget == 0;
            if held {
                self.shared
                    .blocks
                    .note_fallback(FallbackReason::Sampling, 1);
            }
            match self.solo_cpu() {
                Some(cpu) => self.run_stretch(cpu, budget.max(1)),
                None => {
                    let n = self.run_boundary_batch(budget.max(1));
                    if !held {
                        self.shared
                            .blocks
                            .note_fallback(FallbackReason::MultiCoreMemBoundary, n);
                    }
                }
            }
        }
        RunResult {
            cycles: self.shared.cycle - start,
            halted: true,
            faulted: self.any_faulted(),
        }
    }

    /// [`Self::run`] under its old name, which `benchmark/` still calls;
    /// nothing in the workspace does.
    pub fn run_quantum(&mut self, quantum: u64) -> RunResult {
        self.run(quantum)
    }

    /// Release every halted or faulted core back to the idle pool (end of a
    /// parallel region).
    pub fn release_halted(&mut self) {
        for c in &mut self.cores {
            if matches!(c.status, CoreStatus::Halted | CoreStatus::Faulted) {
                c.release();
            }
        }
    }

    /// Immutable view of one core.
    pub fn core(&self, cpu: usize) -> &Core {
        &self.cores[cpu]
    }

    /// Per-CPU statistics.
    pub fn stats(&self) -> &[CpuStats] {
        &self.shared.stats
    }

    /// Machine-wide event totals.
    pub fn total_stats(&self) -> CpuStats {
        events::total(&self.shared.stats)
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.shared.cycle
    }

    /// Patch one slot of the live image from a raw word (COBRA ships
    /// encoded words); returns the word it replaced.
    pub fn patch_word(&mut self, addr: CodeAddr, word: u64) -> Result<u64, PatchError> {
        self.shared.code.patch_word(addr, word)
    }

    /// Append an optimized trace to the live image; returns its entry.
    pub fn append_trace(&mut self, insns: &[Insn]) -> CodeAddr {
        self.shared.code.append_trace(insns)
    }

    /// Block dispatch telemetry (builds / invalidations / fallback cycles).
    pub fn block_stats(&self) -> BlockStats {
        self.shared.blocks.stats()
    }

    /// Arm `plan_id`'s on-stack-replacement window: a taken branch to an
    /// address of `from` (inclusive) commits to the same offset from `to`
    /// instead, migrating threads between loop versions at their next back
    /// edge. Callers must only arm mappings proven by
    /// `cobra-verify::check_osr_map`. Re-arming a plan replaces its window
    /// (forward → reverse on revert) and keeps its hit count.
    pub fn arm_redirect(&mut self, plan_id: u64, from: (CodeAddr, CodeAddr), to: CodeAddr) {
        self.shared.redirects.arm(plan_id, from, to);
    }

    /// Disarm `plan_id`'s redirect window, returning the migrations served.
    pub fn disarm_redirect(&mut self, plan_id: u64) -> u64 {
        self.shared.redirects.disarm(plan_id)
    }

    /// True when some core bound to a live thread has its PC inside
    /// `[lo, hi]` — the convergence probe for disarming an OSR map: once no
    /// running thread remains in the source version's range, every thread
    /// has migrated (or left the loop) and the map can stand down.
    pub fn any_pc_in(&self, lo: CodeAddr, hi: CodeAddr) -> bool {
        self.cores
            .iter()
            .any(|c| c.status == CoreStatus::Running && (lo..=hi).contains(&c.pc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_isa::insn::{CmpRel, Op, Unit};
    use cobra_isa::Assembler;

    fn machine_with(asm: impl FnOnce(&mut Assembler)) -> Machine {
        let mut a = Assembler::new();
        asm(&mut a);
        Machine::new(MachineConfig::smp4(), a.finish())
    }

    #[test]
    fn datamem_roundtrip() {
        let mut m = DataMem::new(1 << 12);
        m.write_f64(16, 3.25);
        assert_eq!(m.read_f64(16), 3.25);
        m.write_u64(0, u64::MAX);
        assert_eq!(m.read_u64(0), u64::MAX);
        m.write_f64_slice(64, &[1.0, 2.0, 3.0]);
        assert_eq!(m.read_f64_slice(64, 3), vec![1.0, 2.0, 3.0]);
        assert!(m.in_bounds(4088));
        assert!(!m.in_bounds(4089));
    }

    #[test]
    fn in_bounds_rejects_wrapping_addresses() {
        // `addr + 8` wraps near u64::MAX; a naive check would accept these.
        let m = DataMem::new(1 << 12);
        assert!(!m.in_bounds(u64::MAX));
        assert!(!m.in_bounds(u64::MAX - 7));
        assert!(!m.in_bounds(u64::MAX - 8));
        assert!(!m.in_bounds(1 << 40));
    }

    #[test]
    fn oob_store_faults_guest_thread_not_host() {
        let mut m = machine_with(|a| {
            a.movi(4, -8); // as u64: 0xffff...fff8 — wraps past the memory end
            a.movi(5, 7);
            a.st8(0, 5, 4, 0);
            a.movi(6, 1); // must never execute
            a.hlt();
        });
        m.spawn_thread(0, 0, &[]);
        let r = m.run(1000);
        assert!(r.halted, "faulted thread terminates the run");
        assert!(r.faulted);
        assert_eq!(m.core(0).status, CoreStatus::Faulted);
        let fault = m.core(0).fault.expect("fault details recorded");
        assert_eq!(fault.addr, (-8i64) as u64);
        assert_eq!(m.core(0).gr(6), 0, "execution stops at the fault");
        assert_eq!(
            m.stats()[0].get(crate::events::Event::GuestFaults),
            1,
            "fault is counted"
        );
        // The core can be released and reused like a halted one.
        m.release_halted();
        assert_eq!(m.core(0).status, CoreStatus::Idle);
    }

    #[test]
    fn straight_line_arithmetic_halts() {
        let mut m = machine_with(|a| {
            a.movi(4, 30);
            a.addi(4, 4, 12);
            a.hlt();
        });
        m.spawn_thread(0, 0, &[]);
        let r = m.run(1000);
        assert!(r.halted);
        assert_eq!(m.core(0).gr(4), 42);
        assert!(m.stats()[0].get(crate::events::Event::InstRetired) >= 3);
    }

    #[test]
    fn thread_args_arrive_in_r8() {
        let mut m = machine_with(|a| {
            a.emit(Insn::new(Op::Add {
                dest: 4,
                r2: 8,
                r3: 9,
            }));
            a.hlt();
        });
        m.spawn_thread(2, 0, &[40, 2]);
        assert!(m.run(100).halted);
        assert_eq!(m.core(2).gr(4), 42);
    }

    #[test]
    fn counted_loop_with_cloop() {
        // Sum 1..=10 with br.cloop.
        let mut m = machine_with(|a| {
            a.movi(4, 9); // LC counts N-1 extra iterations
            a.mov_to_lc(4);
            a.movi(5, 0); // acc
            a.movi(6, 0); // i
            let top = a.new_label();
            a.bind(top);
            a.addi(6, 6, 1);
            a.emit(Insn::new(Op::Add {
                dest: 5,
                r2: 5,
                r3: 6,
            }));
            a.br_cloop(top);
            a.hlt();
        });
        m.spawn_thread(0, 0, &[]);
        assert!(m.run(10_000).halted);
        assert_eq!(m.core(0).gr(5), 55);
    }

    #[test]
    fn predication_skips_instructions() {
        let mut m = machine_with(|a| {
            a.movi(4, 1);
            a.movi(5, 2);
            a.cmp(6, 7, CmpRel::Lt, 4, 5); // p6 = 1<2 = true, p7 = false
            a.emit(Insn::pred(6, Op::MovI { dest: 9, imm: 111 }));
            a.emit(Insn::pred(7, Op::MovI { dest: 9, imm: 222 }));
            a.hlt();
        });
        m.spawn_thread(0, 0, &[]);
        assert!(m.run(1000).halted);
        assert_eq!(m.core(0).gr(9), 111);
    }

    #[test]
    fn conditional_branch_taken_updates_btb() {
        let mut m = machine_with(|a| {
            let skip = a.new_label();
            a.movi(4, 5);
            a.cmp(6, 7, CmpRel::Eq, 4, 4);
            a.br_cond(6, skip);
            a.movi(9, 666); // skipped
            a.bind(skip);
            a.movi(10, 7);
            a.hlt();
        });
        m.spawn_thread(0, 0, &[]);
        assert!(m.run(1000).halted);
        assert_eq!(m.core(0).gr(9), 0, "branch must skip");
        assert_eq!(m.core(0).gr(10), 7);
        assert_eq!(m.shared.hpm[0].btb_snapshot().len(), 1);
    }

    #[test]
    fn load_store_roundtrip_through_simulated_memory() {
        let mut m = machine_with(|a| {
            a.movi(4, 0x1000);
            a.movi(5, 0x2000);
            a.ldfd(0, 6, 4, 0);
            a.stfd(0, 6, 5, 0);
            a.hlt();
        });
        m.shared.mem.write_f64(0x1000, 2.5);
        m.spawn_thread(0, 0, &[]);
        assert!(m.run(10_000).halted);
        assert_eq!(m.shared.mem.read_f64(0x2000), 2.5);
    }

    #[test]
    fn load_use_stall_costs_memory_latency() {
        // ldfd then immediate fma on the result: the consumer stalls for the
        // full memory latency.
        let mk = |with_use: bool| {
            let mut m = machine_with(|a| {
                a.movi(4, 0x1000);
                a.ldfd(0, 6, 4, 0);
                if with_use {
                    a.fma_d(0, 7, 6, 1, 0); // f7 = f6*1 + 0
                }
                a.hlt();
            });
            m.spawn_thread(0, 0, &[]);
            let r = m.run(100_000);
            assert!(r.halted);
            r.cycles
        };
        let without = mk(false);
        let with = mk(true);
        let cfg = MachineConfig::smp4();
        assert!(
            with >= without + cfg.mem_latency - 2,
            "use must stall on the load: {with} vs {without}"
        );
    }

    #[test]
    fn ctop_software_pipeline_rotates_and_counts() {
        // A minimal 2-stage pipeline: stage predicate p16 guards the "real"
        // work; after LC runs out, one epilogue iteration (EC=2) drains.
        let mut m = machine_with(|a| {
            a.emit(Insn::new(Op::Clrrrb));
            a.movi(4, 3); // LC = 3 -> 4 kernel iterations
            a.mov_to_lc(4);
            a.movi(5, 1); // EC = 2
            a.addi(5, 5, 1);
            a.mov_to_ec(5);
            a.movi(7, 0); // counter of p16-guarded executions
                          // prime p16 = true for the first iteration
            a.cmp(16, 17, CmpRel::Eq, 0, 0);
            let top = a.new_label();
            a.bind(top);
            a.emit(Insn::pred(
                16,
                Op::AddI {
                    dest: 7,
                    src: 7,
                    imm: 1,
                },
            ));
            a.br_ctop(top);
            a.hlt();
        });
        m.spawn_thread(0, 0, &[]);
        assert!(m.run(100_000).halted);
        // p16 is true for LC+1 = 4 kernel iterations, false in the epilogue.
        assert_eq!(m.core(0).gr(7), 4);
    }

    #[test]
    fn patch_affects_subsequent_execution() {
        let mut m = machine_with(|a| {
            a.movi(4, 0x1000);
            let top = a.new_label();
            a.movi(5, 3);
            a.mov_to_lc(5);
            a.bind(top);
            a.lfetch_nt1(0, 4, 128);
            a.br_cloop(top);
            a.hlt();
        });
        // Find the lfetch slot and patch it to nop.m before running.
        let lf_addr = (0..m.shared.code.main_len())
            .find(|&a| m.shared.code.insn(a).unwrap().is_lfetch())
            .unwrap();
        m.patch_word(lf_addr, cobra_isa::encode(&cobra_isa::NOP_SLOT_M))
            .unwrap();
        m.spawn_thread(0, 0, &[]);
        assert!(m.run(10_000).halted);
        assert_eq!(m.stats()[0].get(crate::events::Event::LfetchIssued), 0);
    }

    #[test]
    fn append_trace_is_executable() {
        let mut m = machine_with(|a| {
            a.nop(Unit::I);
            a.hlt();
        });
        let entry = m.append_trace(&[Insn::new(Op::MovI { dest: 4, imm: 99 }), Insn::new(Op::Hlt)]);
        m.spawn_thread(0, entry, &[]);
        assert!(m.run(100).halted);
        assert_eq!(m.core(0).gr(4), 99);
    }

    #[test]
    fn release_and_respawn() {
        let mut m = machine_with(|a| {
            a.hlt();
        });
        m.spawn_thread(0, 0, &[]);
        assert!(m.run(10).halted);
        m.release_halted();
        let tid2 = m.spawn_thread(0, 0, &[]);
        assert_eq!(tid2, 1);
        assert!(m.run(10).halted);
    }

    #[test]
    #[should_panic(expected = "already busy")]
    fn double_bind_same_cpu_panics() {
        let mut m = machine_with(|a| {
            a.hlt();
        });
        m.spawn_thread(0, 0, &[]);
        m.spawn_thread(0, 0, &[]);
    }
}
