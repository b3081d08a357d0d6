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
    pub fn in_bounds(&self, addr: u64) -> bool {
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

/// Most interleaved memory-boundary cycles executed per
/// [`Machine::run_boundary_batch`] before re-checking for an opening
/// lockstep horizon. Large enough to amortize the per-batch gate and census
/// work, small enough that a newly mem-free stretch of code is picked up
/// quickly.
const BOUNDARY_BATCH: u64 = 64;

/// Smallest lockstep horizon worth running as a stretch: shorter horizons
/// cost more in per-core stretch setup (cursor, stats flush, clock
/// reconciliation) than they save over interleaved boundary cycles, which
/// handle them instead. Purely a performance threshold — any value is
/// bit-exact.
const MIN_HORIZON: u64 = 4;

/// How HPM sampling constrains block-engine stretches at the current cycle
/// (see [`Machine::sampling_gate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SamplingGate {
    /// No CPU is sampling: stretches are bounded only by the cycle budget.
    Off,
    /// Stretches of up to this many cycles provably cross no sampling
    /// threshold. Zero means a crossing is imminent: the next cycle must
    /// run through the polled per-cycle path.
    Cap(u64),
    /// Some CPU samples an event with no per-cycle advance bound; the block
    /// engine is off until sampling is reprogrammed.
    Unsupported,
}

/// What one core earned inside the current boundary batch and has not yet
/// added to its [`CpuStats`] (see [`Machine::run_boundary_batch`]).
#[derive(Debug, Clone, Copy, Default)]
struct BatchCounts {
    cycles: u64,
    stalled: u64,
    retired: u64,
}

/// A simulated multiprocessor executing one program image.
#[derive(Debug)]
pub struct Machine {
    cores: Vec<Core>,
    /// Per core; all zero outside [`Machine::run_boundary_batch`].
    batch_counts: Vec<BatchCounts>,
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
            batch_counts: vec![BatchCounts::default(); n],
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

    /// The tail of [`Self::step`], a stall skip and a stretch: deliver the
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
    pub fn all_halted(&self) -> bool {
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
    pub fn any_faulted(&self) -> bool {
        self.cores.iter().any(|c| c.status == CoreStatus::Faulted)
    }

    /// When no Running core can execute at the current cycle, the number of
    /// cycles (≥ 1, ≤ `budget`) that can be skipped in bulk without changing
    /// any observable state relative to the per-cycle reference loop.
    /// `None` when some core executes this cycle or the budget is spent.
    ///
    /// The window is the distance to the earliest wake-up (`resume_at`)
    /// across Running cores — or the whole budget when no core is Running —
    /// additionally capped, per CPU whose HPM samples an event that advances
    /// once per stalled cycle (`CPU_CYCLES`, `BE_STALL_CYCLES`), at the
    /// sampling headroom: a longer jump would land an overflow capture past
    /// the cycle where the reference path takes it.
    fn stall_skip_window(&self, budget: u64) -> Option<u64> {
        if budget == 0 {
            return None;
        }
        let now = self.shared.cycle;
        let mut n = budget;
        let mut any_running = false;
        for c in &self.cores {
            if c.status != CoreStatus::Running {
                continue;
            }
            any_running = true;
            let resume = c.resume_at();
            if resume <= now {
                return None; // this core executes this cycle
            }
            n = n.min(resume - now);
        }
        if any_running {
            for c in &self.cores {
                if c.status != CoreStatus::Running {
                    continue;
                }
                if let Some(sc) = self.shared.hpm[c.cpu].sampling_config() {
                    if matches!(sc.event, Event::CpuCycles | Event::StallCycles) {
                        let current = self.shared.stats[c.cpu].get(sc.event);
                        if let Some(headroom) = self.shared.hpm[c.cpu].sampling_headroom(current) {
                            // After every poll the threshold moves past the
                            // counter, so headroom ≥ 1; the max(1) guards
                            // forward progress regardless.
                            n = n.min(headroom.max(1));
                        }
                    }
                }
            }
        }
        Some(n)
    }

    /// Advance the clock by `n` cycles across an all-stalled (or all-idle)
    /// window, reproducing exactly the per-cycle loop's observable effects:
    /// each Running core accrues `n` CPU and stall cycles (snoop stalls are
    /// provably zero — they only accrue while some core executes), and one
    /// end-of-window overflow poll per CPU lands any sampling crossing on
    /// the same cycle as the reference path (guaranteed by the headroom cap
    /// in [`Self::stall_skip_window`]).
    fn skip_stalled(&mut self, n: u64) {
        for c in &self.cores {
            if c.status == CoreStatus::Running {
                debug_assert_eq!(
                    self.shared.memsys.snoop_stall_pending(c.cpu),
                    0,
                    "snoop stalls cannot be pending while every core is stalled"
                );
                self.shared.stats[c.cpu].add(Event::CpuCycles, n);
                self.shared.stats[c.cpu].add(Event::StallCycles, n);
            }
        }
        self.end_cycles(n);
    }

    /// Execute one stretch: every Running core runs [`Core::run_stretch`]
    /// back-to-back on a local clock for the same number of cycles, and the
    /// machine clock then advances once.
    ///
    /// With exactly one running core the stretch spans the whole `budget`
    /// (already capped by the sampling gate) and may issue memory uops: the
    /// snoop stalls they raise land on cores that are not running, so the
    /// tail's one drain discards them exactly as the per-cycle drains would.
    ///
    /// With two or more, the stretch spans the **safe horizon** — the min
    /// over all Running cores of [`Core::mem_free_cycles`], capped by
    /// `budget` — inside which no core can issue a memory-capable uop, so
    /// each core's cycles depend only on its own state and the per-cycle
    /// and back-to-back schedules compute the same function. Snoop stalls
    /// are provably zero inside the horizon — they accrue only during
    /// `MemSystem::access` — and none are pending on entry (every other path
    /// drains them; debug-asserted). Declined (false, no cycle executed, no
    /// state touched beyond possible block builds) when the horizon is below
    /// [`MIN_HORIZON`], or while any OSR redirect is armed: redirects divert
    /// taken branches away from their static targets, so the static memory
    /// distance is no longer a lower bound.
    ///
    /// The clock advances by the longest per-core consumption — cores that
    /// stay `Running` always consume the full stretch, so this only differs
    /// when every core halts or faults mid-stretch, exactly matching where
    /// the reference loop would stop counting.
    fn run_stretch(&mut self, budget: u64) -> bool {
        let now = self.shared.cycle;
        let running = |c: &&Core| c.status == CoreStatus::Running;
        let solo = self.cores.iter().filter(running).nth(1).is_none();
        let mut h = budget;
        if !solo {
            if !self.shared.redirects.is_empty() {
                return false;
            }
            for i in 0..self.cores.len() {
                if self.cores[i].status != CoreStatus::Running {
                    continue;
                }
                debug_assert_eq!(
                    self.shared.memsys.snoop_stall_pending(i),
                    0,
                    "snoop stalls must be drained before a lockstep stretch"
                );
                h = h.min(self.cores[i].mem_free_cycles(&mut self.shared, now));
                if h < MIN_HORIZON {
                    // Too short to amortize the per-core stretch setup — the
                    // boundary batch runs these cycles interleaved instead
                    // (still through pre-decoded dispatch, still bit-exact).
                    return false;
                }
            }
        }
        let mut max_executed = 0u64;
        for i in 0..self.cores.len() {
            if self.cores[i].status == CoreStatus::Running {
                let executed = self.cores[i].run_stretch(&mut self.shared, now, h);
                max_executed = max_executed.max(executed);
            }
        }
        if !solo {
            self.shared.blocks.note_horizon(max_executed);
        }
        self.end_cycles(max_executed);
        true
    }

    /// Run a batch of interleaved memory-boundary cycles — the dominant
    /// regime in load/store dense guest loops, where horizons collapse to
    /// zero almost every cycle — counting each against the
    /// `MultiCoreMemBoundary` fallback reason. Cores issue in CPU order at the
    /// shared clock through [`Core::issue`], bit-identical to the schedule of
    /// [`Self::step`], and each cycle pays only for what can change on it:
    ///
    /// * snoop stalls are drained at the end of a cycle on which the memory
    ///   system raised one, and on no other (every slot is zero);
    /// * `budget` is capped by the sampling gate, so no sampled counter can
    ///   cross its threshold inside the batch: the per-cycle overflow polls
    ///   would be no-ops, and one poll at the end observes the same thing;
    /// * nothing between two polls reads `CPU_CYCLES`, `BE_STALL_CYCLES` or
    ///   `IA64_INST_RETIRED`, so they accumulate per core in `batch_counts`
    ///   and reach [`CpuStats`] once, before that poll and before `run` can
    ///   return, as [`Core::run_stretch`] does for a stretch.
    ///
    /// The batch ends at `budget`, at [`BOUNDARY_BATCH`] cycles (so the
    /// caller re-checks for an opening horizon), when fewer than two cores
    /// remain Running (solo/halt handling takes over), or when no Running
    /// core issued (the stall-skip fast path takes over). Every executed
    /// cycle is reference-faithful on the shared clock, so stopping at any
    /// point is safe. Always executes at least one cycle.
    fn run_boundary_batch(&mut self, budget: u64) {
        let cap = budget.clamp(1, BOUNDARY_BATCH);
        let mut n = 0u64;
        loop {
            let now = self.shared.cycle;
            // Post-issue status: a core that halts or faults this cycle must
            // not count as Running, or the batch would run one empty cycle.
            let mut running = 0u32;
            let mut issued = false;
            for (core, counts) in self.cores.iter_mut().zip(&mut self.batch_counts) {
                if core.status != CoreStatus::Running {
                    continue;
                }
                counts.cycles += 1;
                if now < core.resume_at() {
                    counts.stalled += 1;
                } else {
                    counts.retired += core.issue(&mut self.shared, now);
                    issued = true;
                }
                running += u32::from(core.status == CoreStatus::Running);
            }
            if self.shared.memsys.snoop_raised() {
                self.drain_snoop_stalls();
            }
            self.shared.cycle += 1;
            n += 1;
            if n == cap || running < 2 || !issued {
                break;
            }
        }
        for (counts, stats) in self.batch_counts.iter_mut().zip(&mut self.shared.stats) {
            let earned = std::mem::take(counts);
            stats.add(Event::CpuCycles, earned.cycles);
            stats.add(Event::StallCycles, earned.stalled);
            stats.add(Event::InstRetired, earned.retired);
        }
        self.poll_overflows();
        self.shared
            .blocks
            .note_fallback(FallbackReason::MultiCoreMemBoundary, n);
    }

    /// How many back-to-back cycles the block engine may run before HPM
    /// sampling could observe the difference. A stretch skips the per-cycle
    /// overflow polls and flushes `CPU_CYCLES`/`INST_RETIRED` in bulk at its
    /// end, which is unobservable exactly while no sampled counter crosses
    /// its threshold inside the stretch: counters are monotone, so if the
    /// sampled event's total advance over `h` cycles stays strictly below
    /// the headroom, every skipped poll was a no-op and the end-of-stretch
    /// totals equal the reference's. The advance is bounded per cycle by the
    /// event: ≤ 3 retired instructions (issue width), ≤ 1 cpu/stall cycle,
    /// ≤ 1 taken branch (a taken branch ends its issue group). Events
    /// without such a bound (cache, bus, DEAR, fault counters) force the
    /// polled per-cycle path, as before. The crossing cycle itself always
    /// runs per-cycle, capturing on the exact reference cycle.
    fn sampling_gate(&self) -> SamplingGate {
        let mut cap: Option<u64> = None;
        for cpu in 0..self.cores.len() {
            let Some(sc) = self.shared.hpm[cpu].sampling_config() else {
                continue;
            };
            let per_cycle: u64 = match sc.event {
                Event::InstRetired => 3,
                Event::CpuCycles | Event::StallCycles | Event::BrTaken => 1,
                _ => return SamplingGate::Unsupported,
            };
            let current = self.shared.stats[cpu].get(sc.event);
            let headroom = self.shared.hpm[cpu]
                .sampling_headroom(current)
                .unwrap_or(u64::MAX);
            let h = headroom.saturating_sub(1) / per_cycle;
            cap = Some(cap.map_or(h, |c| c.min(h)));
        }
        match cap {
            None => SamplingGate::Off,
            Some(c) => SamplingGate::Cap(c),
        }
    }

    /// Run until every bound thread terminates or `max_cycles` elapse.
    ///
    /// Under [`HostAccel::Reference`] this is [`Self::step`] in a
    /// loop. Under [`HostAccel::Fast`] each iteration takes the first
    /// of four paths that applies: cycles where no core can execute are
    /// skipped in bulk to the earliest wake-up point; a cycle on which a
    /// sampled counter may cross its threshold runs through [`Self::step`]
    /// (the gate bounds every other path so the per-cycle overflow polls it
    /// skips are provably no-ops); otherwise the running cores execute a
    /// stretch ([`Self::run_stretch`]) or, when two or more are running and
    /// no safe horizon opens, a batch of interleaved pre-decoded cycles.
    /// Results are bit-identical either way (enforced by the
    /// `stall_skip_equivalence`, `mem_fastpath_equivalence` and
    /// `block_dispatch_equivalence` suites).
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
            let left = max_cycles - elapsed;
            if !fast {
                self.step();
                continue;
            }
            if let Some(n) = self.stall_skip_window(left) {
                self.skip_stalled(n);
                continue;
            }
            let budget = match self.sampling_gate() {
                SamplingGate::Off => left,
                SamplingGate::Cap(c) => c.min(left),
                SamplingGate::Unsupported => 0,
            };
            if budget == 0 {
                self.shared
                    .blocks
                    .note_fallback(FallbackReason::Sampling, 1);
                self.step();
                continue;
            }
            // Some core is Running and ready to issue (the stall-skip window
            // was declined), and nothing it does within `budget` cycles can
            // cross a sampling threshold.
            if !self.run_stretch(budget) {
                // Memory-boundary regime: horizons are collapsing, so
                // interleave — but keep dispatching pre-decoded uops, and
                // batch the cycles so the gate/census/horizon overhead is
                // paid once per batch, not once per cycle.
                self.run_boundary_batch(budget);
            }
        }
        RunResult {
            cycles: self.shared.cycle - start,
            halted: true,
            faulted: self.any_faulted(),
        }
    }

    /// Run at most `quantum` cycles (stops early when all threads halt).
    /// Returns the cycles actually executed.
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

    /// Arm on-stack-replacement edges for `plan_id`: taken branches to each
    /// `from` commit to the paired `to` instead, migrating threads between
    /// loop versions at their next back edge. Callers must only arm
    /// mappings proven by `cobra-verify::check_osr_map`. Re-arming a plan
    /// replaces its edges (forward → reverse on revert) and keeps its hit
    /// count.
    pub fn arm_redirect(&mut self, plan_id: u64, pairs: &[(CodeAddr, CodeAddr)]) {
        self.shared.redirects.arm(plan_id, pairs);
    }

    /// Disarm `plan_id`'s redirect edges, returning the migrations served.
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
