//! In-order Itanium-2-like core: bundle issue, predication, a register
//! scoreboard (stall-on-use), rotating registers, and the modulo-scheduled
//! loop branches.
//!
//! The model executes up to one three-slot bundle per cycle. Functional
//! effects (register and memory values) are applied at issue, in program
//! order, so results are always architecturally correct; *timing* is modelled
//! by per-register ready cycles: an instruction whose source register is not
//! ready stalls the core until it is. Loads therefore stall at first *use*,
//! not at issue — precisely the property software pipelining and prefetching
//! exploit, and the reason removing useful prefetches hurts (Fig. 3a, 2 MB).

use std::sync::Arc;

use cobra_isa::insn::{Insn, Op};
use cobra_isa::regs::Rrb;
use cobra_isa::uop::{MicroOp, OpClass, SrcReg};
use cobra_isa::{CodeAddr, CodeImage};

use crate::blocks::{Block, LoopKind, LoopSlot};
use crate::events::Event;
use crate::machine::Shared;

/// Scheduling state of a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreStatus {
    /// No software thread bound.
    Idle,
    /// Executing a thread.
    Running,
    /// The bound thread executed `hlt`.
    Halted,
    /// The bound thread performed an out-of-bounds data access, or fetched
    /// from outside the image, and was terminated. The simulator host never
    /// panics on guest faults; the faulting PC/address are kept in
    /// [`Core::fault`].
    Faulted,
}

/// Details of a guest fault (the simulated SIGSEGV/SIGBUS).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultInfo {
    /// Slot address of the faulting instruction (PC is left pointing here).
    pub pc: CodeAddr,
    /// The offending data address; for a fetch outside the image, the PC.
    pub addr: u64,
    /// Cycle at which the fault was taken.
    pub cycle: u64,
}

/// Architectural + microarchitectural state of one CPU.
#[derive(Debug, Clone)]
pub struct Core {
    pub cpu: usize,
    pub status: CoreStatus,
    /// Thread id of the bound software thread, if any.
    pub tid: Option<u32>,
    pub pc: CodeAddr,
    // Architectural registers (physical; virtual numbers map through `rrb`).
    gr: [i64; 128],
    fr: [f64; 128],
    pr: [bool; 64],
    rrb: Rrb,
    lc: u64,
    ec: u64,
    // Scoreboard: cycle at which each physical register's value is usable.
    gr_ready: [u64; 128],
    fr_ready: [u64; 128],
    pr_ready: [u64; 64],
    /// Cycle until which the core is stalled.
    resume_at: u64,
    /// Details of the fault that terminated the bound thread, if any.
    pub fault: Option<FaultInfo>,
    /// Block-dispatch cursor: the cached block the PC currently sits in
    /// (shared, immutable) and the text stamp it was fetched under. Valid
    /// only while that is still the text's — see `take_cursor`.
    cur_block: Option<Arc<Block>>,
    cur_block_gen: u64,
}

impl Core {
    pub fn new(cpu: usize) -> Self {
        Core {
            cpu,
            status: CoreStatus::Idle,
            tid: None,
            pc: 0,
            gr: [0; 128],
            fr: [0.0; 128],
            pr: [false; 64],
            rrb: Rrb::default(),
            lc: 0,
            ec: 0,
            gr_ready: [0; 128],
            fr_ready: [0; 128],
            pr_ready: [0; 64],
            resume_at: 0,
            fault: None,
            cur_block: None,
            cur_block_gen: 0,
        }
    }

    /// Bind a software thread: reset register state, set the entry PC and
    /// pass `args` in `r8..`, per the workspace calling convention.
    pub(crate) fn bind_thread(&mut self, tid: u32, entry: CodeAddr, args: &[i64]) {
        assert_eq!(
            self.status,
            CoreStatus::Idle,
            "cpu {} already busy",
            self.cpu
        );
        assert!(args.len() <= 16, "at most 16 register arguments");
        *self = Core::new(self.cpu);
        self.status = CoreStatus::Running;
        self.tid = Some(tid);
        self.pc = entry;
        for (k, &v) in args.iter().enumerate() {
            self.gr[8 + k] = v;
        }
        // Architectural constants.
        self.fr[1] = 1.0;
        self.pr[0] = true;
    }

    /// Release a halted (or faulted) thread, returning the core to the idle
    /// pool. Fault details stay readable until the next `bind_thread`.
    pub fn release(&mut self) {
        assert!(
            matches!(self.status, CoreStatus::Halted | CoreStatus::Faulted),
            "release requires a halted or faulted core"
        );
        self.status = CoreStatus::Idle;
        self.tid = None;
    }

    // ---- register access by physical index: r0, f0, f1 and p0 read as
    // their constants and drop writes ----

    #[inline]
    fn phys_gr(&self, p: u8) -> i64 {
        if p == 0 {
            0
        } else {
            self.gr[p as usize]
        }
    }

    #[inline]
    fn set_phys_gr(&mut self, p: u8, value: i64, ready: u64) {
        if p != 0 {
            self.gr[p as usize] = value;
            self.gr_ready[p as usize] = ready;
        }
    }

    #[inline]
    fn phys_fr(&self, p: u8) -> f64 {
        match p {
            0 => 0.0,
            1 => 1.0,
            _ => self.fr[p as usize],
        }
    }

    #[inline]
    fn set_phys_fr(&mut self, p: u8, value: f64, ready: u64) {
        if p > 1 {
            self.fr[p as usize] = value;
            self.fr_ready[p as usize] = ready;
        }
    }

    #[inline]
    fn phys_pr(&self, p: u8) -> bool {
        if p == 0 {
            true
        } else {
            self.pr[p as usize]
        }
    }

    #[inline]
    fn set_phys_pr(&mut self, p: u8, value: bool, ready: u64) {
        if p != 0 {
            self.pr[p as usize] = value;
            self.pr_ready[p as usize] = ready;
        }
    }

    // ---- register access through rotation ----

    #[inline]
    fn read_gr(&self, vreg: u8) -> i64 {
        self.phys_gr(self.rrb.map_gr(vreg))
    }

    #[inline]
    fn write_gr(&mut self, vreg: u8, value: i64, ready: u64) {
        self.set_phys_gr(self.rrb.map_gr(vreg), value, ready)
    }

    #[inline]
    fn read_fr(&self, vreg: u8) -> f64 {
        self.phys_fr(self.rrb.map_fr(vreg))
    }

    #[inline]
    fn write_fr(&mut self, vreg: u8, value: f64, ready: u64) {
        self.set_phys_fr(self.rrb.map_fr(vreg), value, ready)
    }

    #[inline]
    fn read_pr(&self, vreg: u8) -> bool {
        self.phys_pr(self.rrb.map_pr(vreg))
    }

    #[inline]
    fn write_pr(&mut self, vreg: u8, value: bool, ready: u64) {
        self.set_phys_pr(self.rrb.map_pr(vreg), value, ready)
    }

    #[inline]
    fn gr_ready_at(&self, vreg: u8) -> u64 {
        self.gr_ready[self.rrb.map_gr(vreg) as usize]
    }

    #[inline]
    fn fr_ready_at(&self, vreg: u8) -> u64 {
        self.fr_ready[self.rrb.map_fr(vreg) as usize]
    }

    #[inline]
    fn pr_ready_at(&self, vreg: u8) -> u64 {
        self.pr_ready[self.rrb.map_pr(vreg) as usize]
    }

    /// Cycle at which every source operand of `insn` is ready.
    fn sources_ready(&self, insn: &Insn) -> u64 {
        let mut t = self.pr_ready_at(insn.qp);
        let gr = |r: u8, t: &mut u64| *t = (*t).max(self.gr_ready_at(r));
        let mut fr_t = t;
        {
            use Op::*;
            match insn.op {
                Ld8 { base, .. } | Ldfd { base, .. } | Lfetch { base, .. } => gr(base, &mut t),
                St8 { src, base, .. } => {
                    gr(src, &mut t);
                    gr(base, &mut t);
                }
                Stfd { src, base, .. } => {
                    fr_t = fr_t.max(self.fr_ready_at(src));
                    gr(base, &mut t);
                }
                FmaD { f1, f2, f3, .. } => {
                    fr_t = fr_t
                        .max(self.fr_ready_at(f1))
                        .max(self.fr_ready_at(f2))
                        .max(self.fr_ready_at(f3));
                }
                FsubD { f1, f2, .. } | FmulD { f1, f2, .. } | FdivD { f1, f2, .. } => {
                    fr_t = fr_t.max(self.fr_ready_at(f1)).max(self.fr_ready_at(f2));
                }
                FsqrtD { f1, .. } => {
                    fr_t = fr_t.max(self.fr_ready_at(f1));
                }
                FcmpD { f1, f2, .. } => {
                    fr_t = fr_t.max(self.fr_ready_at(f1)).max(self.fr_ready_at(f2));
                }
                SetfD { src, .. } | SetfSig { src, .. } => gr(src, &mut t),
                FcvtXf { src, .. } => {
                    fr_t = fr_t.max(self.fr_ready_at(src));
                }
                Add { r2, r3, .. } | Sub { r2, r3, .. } | Mul { r2, r3, .. } => {
                    gr(r2, &mut t);
                    gr(r3, &mut t);
                }
                AddI { src, .. } | ShlI { src, .. } | ShrI { src, .. } => gr(src, &mut t),
                MovI { .. } => {}
                Cmp { r2, r3, .. } => {
                    gr(r2, &mut t);
                    gr(r3, &mut t);
                }
                CmpI { r3, .. } => gr(r3, &mut t),
                BrCond { .. } | BrWtop { .. } => {} // qp handled above
                BrCtop { .. } | BrCloop { .. } => {}
                MovToLc { src } | MovToEc { src } => gr(src, &mut t),
                Clrrrb | Nop { .. } | Hlt => {}
            }
        }
        t.max(fr_t)
    }

    /// Execute up to one bundle (three slots). Called once per machine cycle.
    pub fn step(&mut self, shared: &mut Shared) {
        if self.status != CoreStatus::Running {
            return;
        }
        let now = shared.cycle;
        shared.stats[self.cpu].add(Event::CpuCycles, 1);
        if now < self.resume_at {
            shared.stats[self.cpu].add(Event::StallCycles, 1);
            return;
        }
        self.issue_bundle_ref(shared, now);
    }

    /// Issue one group of pre-decoded uops at machine cycle `now`: what
    /// [`Self::step`] does once it has found the core Running and not
    /// stalled, with the per-slot fetch/decode replaced by the cached uops
    /// (see [`Self::issue_group`]). The caller, the interleaved boundary
    /// batch, keeps one wake cycle per core in place of those two checks: it
    /// visits the core only from its `resume_at` on, re-reads that after each
    /// group and snoop drain, and settles the cycle, stall and returned
    /// retired-uop counts at the batch end.
    #[inline]
    pub(crate) fn issue(&mut self, shared: &mut Shared, now: u64) -> u64 {
        let b = self.take_cursor(shared);
        let idx = self.pc.wrapping_sub(b.start) as usize;
        let (b, _, retired) = self.issue_group(shared, now, b, idx);
        self.cur_block = Some(b);
        retired
    }

    /// Reference issue path: re-fetch the decoded instruction and re-derive
    /// its source set from the opcode every slot. This is the semantic
    /// ground truth the block dispatch engine is property-tested against.
    fn issue_bundle_ref(&mut self, shared: &mut Shared, now: u64) {
        for _slot in 0..3 {
            if self.pc >= shared.code.len() {
                self.fetch_fault(shared, now);
                break;
            }
            let insn = fetch(&shared.code, self.pc);
            let ready = self.sources_ready(&insn);
            if ready > now {
                // Stall-on-use: resume when the operand arrives.
                self.resume_at = ready;
                break;
            }
            let taken = self.execute(shared, now, insn);
            shared.stats[self.cpu].add(Event::InstRetired, 1);
            if taken || self.status != CoreStatus::Running || now < self.resume_at {
                break;
            }
        }
    }

    /// The one issue group of the block engine: up to three pre-decoded uops
    /// at cycle `now`, starting at index `idx` of cursor block `b`, which it
    /// takes and returns by value (advanced, re-fetched across block ends and
    /// taken branches) with the uops retired. A slot in the block's traced
    /// loop part hands the rest of the group to [`Self::issue_loop`], which
    /// also catches a group that enters the loop head mid-group. Otherwise
    /// `dispatch_class` returning `None` is exactly `issue_bundle_ref`'s
    /// stall-on-use (it sets `resume_at`), and `Some(true)` ends the group
    /// where the reference bundle ends: after a taken branch, a status change
    /// (`hlt`, fault), or a structural stall — the last two only from an
    /// `OpClass::Other` uop.
    #[inline]
    fn issue_group(
        &mut self,
        shared: &mut Shared,
        now: u64,
        mut b: Arc<Block>,
        mut idx: usize,
    ) -> (Arc<Block>, usize, u64) {
        let mut retired = 0u64;
        while retired < 3 {
            if idx >= b.uops.len() {
                let Some(next) = self.next_block(shared, now) else {
                    break;
                };
                (b, idx) = (next, 0);
            }
            if b.in_loop(idx) {
                let (n, over) = self.issue_loop(shared, now, &b, &mut idx, 3 - retired);
                retired += n;
                if over {
                    break;
                }
                continue;
            }
            let Some(ends) = self.dispatch_class(shared, now, &b, idx) else {
                break;
            };
            retired += 1;
            if ends {
                idx = self.pc.wrapping_sub(b.start) as usize;
                break;
            }
            idx += 1;
        }
        (b, idx, retired)
    }

    /// The one stretch of the block engine: run this core alone on a local
    /// clock from machine cycle `start` for `budget` cycles (fewer only when
    /// it leaves `Running`), without returning to the machine loop in
    /// between. The caller runs it only while this is the one Running core,
    /// so nothing the core does inside the stretch can be observed by, or
    /// depends on, another core: memory uops may issue, and their one
    /// cross-core effect, snoop stalls, lands on cores that are not running
    /// and ignore it ([`Self::add_stall`]).
    ///
    /// The machine's budget rule bounds `budget` so that no sampled counter
    /// crosses its threshold before the last cycle, which makes the skipped
    /// per-cycle overflow polls no-ops and lets the counters be added in
    /// bulk; nothing inside a stretch can mutate the program text or the
    /// block cache except block *builds* (which leave the text's stamp
    /// alone); and `execute` and the memory system take `now` as a
    /// parameter, so nothing observes `shared.cycle` until the caller
    /// advances it.
    ///
    /// Replicates the reference accounting exactly: a Running core earns
    /// `CPU_CYCLES` every cycle, `STALL_CYCLES` on cycles that *begin*
    /// stalled (not the stall-discovery cycle), and stops earning on the
    /// cycle after `hlt` retires or a fault is taken. Returns the number of
    /// cycles consumed.
    pub(crate) fn run_stretch(&mut self, shared: &mut Shared, start: u64, budget: u64) -> u64 {
        let end = start + budget;
        let mut now = start;
        let mut stalled = 0u64;
        let mut retired = 0u64;
        let mut b = self.take_cursor(shared);
        let mut idx = self.pc.wrapping_sub(b.start) as usize;
        while now < end && self.status == CoreStatus::Running {
            if now < self.resume_at {
                // Bulk the stall window: each such cycle earns CpuCycles and
                // StallCycles in the reference loop.
                let until = self.resume_at.min(end);
                stalled += until - now;
                now = until;
                continue;
            }
            let group;
            (b, idx, group) = self.issue_group(shared, now, b, idx);
            retired += group;
            now += 1;
        }
        self.cur_block = Some(b);
        let executed = now - start;
        let stats = &mut shared.stats[self.cpu];
        stats.add(Event::CpuCycles, executed);
        stats.add(Event::StallCycles, stalled);
        stats.add(Event::InstRetired, retired);
        executed
    }

    /// One dispatch site per opcode class, for slot `idx` of block `b`:
    /// readiness *and* execution of the specialized classes run through
    /// flat pre-extracted operands, which the lowering gives a class only
    /// when they are physical and no write is to `r0` ([`OpClass`]), so the
    /// arms index the register files directly; anything else falls through
    /// to the source-list walk plus the full interpreter arm. (A slot in a
    /// traced loop part never comes here: see [`Self::issue_loop`].) Each
    /// specialized arm replicates its [`Self::execute`] arm (and its slice
    /// of [`Self::uop_sources_ready`]) *exactly*, including the
    /// predicated-off fall-through (`br.cloop` ignores qp by architecture) —
    /// the `block_dispatch_equivalence` suite holds the two to bit-identity.
    ///
    /// Returns `None` when a source is not ready (the stall-on-use
    /// `resume_at` has been set), otherwise whether the uop ended the issue
    /// group.
    #[inline]
    fn dispatch_class(
        &mut self,
        shared: &mut Shared,
        now: u64,
        b: &Block,
        idx: usize,
    ) -> Option<bool> {
        let u = &b.uops[idx];
        // Physical indices by the lowering's rule; the masks elide the
        // bounds checks.
        let (qp, d) = (usize::from(u.insn.qp) & 63, usize::from(u.d) & 127);
        let (ra, rb) = (usize::from(u.a) & 127, usize::from(u.b) & 127);
        match u.class {
            OpClass::Add => {
                let ready = self.gr_ready[ra].max(self.gr_ready[rb]);
                self.wait_for(self.pr_ready[qp].max(ready), now)?;
                if self.pr[qp] {
                    self.gr[d] = self.gr[ra].wrapping_add(self.gr[rb]);
                    self.gr_ready[d] = now + 1;
                }
                self.pc += 1;
                Some(false)
            }
            OpClass::AddI => {
                self.wait_for(self.pr_ready[qp].max(self.gr_ready[ra]), now)?;
                if self.pr[qp] {
                    self.gr[d] = self.gr[ra].wrapping_add(u.imm);
                    self.gr_ready[d] = now + 1;
                }
                self.pc += 1;
                Some(false)
            }
            OpClass::Nop => {
                self.wait_for(self.pr_ready[qp], now)?;
                self.pc += 1;
                Some(false)
            }
            OpClass::BrCloop => {
                self.wait_for(self.pr_ready[qp], now)?;
                if self.lc > 0 {
                    self.lc -= 1;
                    Some(self.take_branch(shared, self.pc, u.imm as CodeAddr))
                } else {
                    self.pc += 1;
                    Some(false)
                }
            }
            OpClass::Other => self.dispatch_other(shared, now, u),
        }
    }

    /// The interpreter arm: readiness from the source list, then `execute`.
    /// The uop ends the group on a taken branch, a status change or a
    /// structural stall. Always inlined: out of line, it is one more call
    /// per interpreter-arm uop in both issue loops.
    #[inline(always)]
    fn dispatch_other(&mut self, shared: &mut Shared, now: u64, u: &MicroOp) -> Option<bool> {
        self.wait_for(self.uop_sources_ready(u), now)?;
        let taken = self.execute(shared, now, u.insn);
        Some(taken || self.status != CoreStatus::Running || now < self.resume_at)
    }

    /// Stall-on-use: `None` (with `resume_at` set) while `ready` is ahead of
    /// `now`.
    #[inline]
    fn wait_for(&mut self, ready: u64, now: u64) -> Option<()> {
        if ready > now {
            self.resume_at = ready;
            return None;
        }
        Some(())
    }

    /// The rest of a group whose cursor `idx` is in `blk`'s traced loop part:
    /// up to `slots` uops from the trace row of the current residue, re-read
    /// after an interpreter-arm uop (`clrrrb` moves the bases). Returns the
    /// uops retired and whether the group is over, `idx` left at the uop that
    /// stalled or ended it; after a not-taken `br.ctop` it is past the back
    /// edge and the group goes on in the next block. Out of line, as
    /// `execute` is, or `dispatch_class` would not stay inlined.
    #[inline(never)]
    fn issue_loop(
        &mut self,
        shared: &mut Shared,
        now: u64,
        blk: &Block,
        idx: &mut usize,
        slots: u64,
    ) -> (u64, bool) {
        let head = blk.loop_head;
        let mut row = blk.loop_row(self.rrb.gr);
        let mut k = *idx - head;
        let mut retired = 0;
        while retired < slots {
            let Some(&s) = row.get(k) else { break };
            let Some(ends) = self.trace_uop(shared, now, s, blk, head + k) else {
                *idx = head + k;
                return (retired, true);
            };
            retired += 1;
            if ends {
                *idx = self.pc.wrapping_sub(blk.start) as usize;
                return (retired, true);
            }
            if s.kind == LoopKind::Other {
                row = blk.loop_row(self.rrb.gr);
            }
            k += 1;
        }
        *idx = head + k;
        (retired, false)
    }

    /// Loop-trace slot `s` of in-block index `idx`. Each arm is its
    /// [`Self::execute`] arm (and slice of [`Self::sources_ready`]) with the
    /// operands mapped ahead of time, reading the register files by plain
    /// index as the fused arms do (`r0`, `f0`, `f1`, `p0` hold their
    /// constants while bound; writes go through `set_phys_*`); `Other` is the
    /// interpreter arm. Returns what `dispatch_class` returns.
    #[inline(always)]
    fn trace_uop(
        &mut self,
        shared: &mut Shared,
        now: u64,
        s: LoopSlot,
        blk: &Block,
        idx: usize,
    ) -> Option<bool> {
        let pc = self.pc;
        // Physical indices; the masks elide the bounds checks.
        let qp = usize::from(s.qp) & 63;
        let (a, b, c) = (
            usize::from(s.a) & 127,
            usize::from(s.b) & 127,
            usize::from(s.c) & 127,
        );
        let qp_ready = self.pr_ready[qp];
        match s.kind {
            LoopKind::Ldfd => {
                self.wait_for(qp_ready.max(self.gr_ready[a]), now)?;
                if self.pr[qp] {
                    let addr = self.gr[a] as u64;
                    if !shared.mem.in_bounds(addr) {
                        return Some(self.raise_fault(shared, now, pc, addr));
                    }
                    let value = shared.mem.read_f64(addr);
                    let out = shared.memsys.load(
                        &mut shared.stats,
                        &mut shared.hpm,
                        self.cpu,
                        now,
                        pc,
                        true,
                        false,
                        addr,
                    );
                    self.set_phys_fr(s.d, value, out.complete_at);
                    self.phys_post_inc(s.a, s.imm, now + 1);
                    self.resume_at = self.resume_at.max(out.stall_until);
                }
            }
            LoopKind::Stfd => {
                self.wait_for(qp_ready.max(self.fr_ready[b]).max(self.gr_ready[a]), now)?;
                if self.pr[qp] {
                    let addr = self.gr[a] as u64;
                    if !shared.mem.in_bounds(addr) {
                        return Some(self.raise_fault(shared, now, pc, addr));
                    }
                    shared.mem.write_f64(addr, self.fr[b]);
                    let out = shared.memsys.store(&mut shared.stats, self.cpu, now, addr);
                    self.phys_post_inc(s.a, s.imm, now + 1);
                    self.resume_at = self.resume_at.max(out.stall_until);
                }
            }
            LoopKind::Lfetch => {
                self.wait_for(qp_ready.max(self.gr_ready[a]), now)?;
                if self.pr[qp] {
                    let addr = self.gr[a] as u64;
                    if shared.mem.in_bounds(addr) {
                        let excl = s.c != 0;
                        shared
                            .memsys
                            .prefetch(&mut shared.stats, self.cpu, now, excl, addr);
                    }
                    self.phys_post_inc(s.a, s.imm, now + 1);
                }
            }
            LoopKind::FmaD => {
                let ready = qp_ready
                    .max(self.fr_ready[a])
                    .max(self.fr_ready[b])
                    .max(self.fr_ready[c]);
                self.wait_for(ready, now)?;
                if self.pr[qp] {
                    let v = self.fr[a].mul_add(self.fr[b], self.fr[c]);
                    self.set_phys_fr(s.d, v, now + shared.cfg.fp_latency);
                }
            }
            LoopKind::BrCtop => {
                // Ignores qp architecturally.
                self.wait_for(qp_ready, now)?;
                let (taken, p16) = if self.lc > 0 {
                    self.lc -= 1;
                    (true, true)
                } else if self.ec > 1 {
                    self.ec -= 1;
                    (true, false)
                } else {
                    self.ec = self.ec.saturating_sub(1);
                    (false, false)
                };
                if taken {
                    self.rrb.rotate();
                    self.set_phys_pr(s.d, p16, now + 1);
                    return Some(self.take_branch(shared, pc, s.imm as CodeAddr));
                }
            }
            LoopKind::Nop => self.wait_for(qp_ready, now)?,
            LoopKind::Other => return self.dispatch_other(shared, now, &blk.uops[idx]),
        }
        self.pc = pc + 1;
        Some(now < self.resume_at)
    }

    /// Move the cursor block out of `self`: the cached one while it is still
    /// valid and covers the current PC, else re-fetched. Callers put it back
    /// (`self.cur_block = Some(b)`) when done, which keeps the hot paths free
    /// of `Arc` refcount traffic.
    #[inline]
    fn take_cursor(&mut self, shared: &mut Shared) -> Arc<Block> {
        match self.cur_block.take() {
            Some(b)
                if self.cur_block_gen == shared.code.generation()
                    && b.uop_at(self.pc).is_some() =>
            {
                b
            }
            _ => self.refetch_block(shared),
        }
    }

    /// Re-aim the cursor at the block starting at the current PC, building
    /// it on demand (empty when the PC is outside the image).
    #[inline]
    fn refetch_block(&mut self, shared: &mut Shared) -> Arc<Block> {
        let b = shared.blocks.get_or_build(&shared.code, self.pc);
        self.cur_block_gen = shared.code.generation();
        self.cur_block = Some(Arc::clone(&b));
        b
    }

    /// Readiness of a pre-lowered op: max over the qualifying predicate and
    /// the pre-resolved source list. Must equal [`Self::sources_ready`] of
    /// the same instruction for every scoreboard state.
    #[inline(always)]
    fn uop_sources_ready(&self, u: &MicroOp) -> u64 {
        let mut t = self.pr_ready_at(u.insn.qp);
        for s in u.sources() {
            let r = match *s {
                SrcReg::Gr(r) => self.gr_ready_at(r),
                SrcReg::Fr(r) => self.fr_ready_at(r),
            };
            if r > t {
                t = r;
            }
        }
        t
    }

    /// Terminate the bound thread on an out-of-bounds data access or fetch.
    /// The PC is left at the faulting instruction, no architectural or
    /// memory-system state is touched, and execution of this core stops for
    /// good.
    fn raise_fault(&mut self, shared: &mut Shared, now: u64, pc: CodeAddr, addr: u64) -> bool {
        self.status = CoreStatus::Faulted;
        self.fault = Some(FaultInfo {
            pc,
            addr,
            cycle: now,
        });
        shared.stats[self.cpu].add(Event::GuestFaults, 1);
        true
    }

    /// The PC has left the image: the fetch of this issue slot faults, on
    /// the same slot of the same cycle under both engines.
    #[cold]
    fn fetch_fault(&mut self, shared: &mut Shared, now: u64) {
        self.raise_fault(shared, now, self.pc, self.pc as u64);
    }

    /// The PC has left the cursor block mid-group: the block it entered.
    /// `None` when there is none — the PC is outside the image and the fetch
    /// has faulted. Out of line: the issue loop pays a compare for leaving a
    /// block and nothing for the fault.
    #[inline(never)]
    fn next_block(&mut self, shared: &mut Shared, now: u64) -> Option<Arc<Block>> {
        let b = self.refetch_block(shared);
        if b.uops.is_empty() {
            self.fetch_fault(shared, now);
            return None;
        }
        Some(b)
    }

    /// Execute one instruction at `self.pc`; advances the PC. Returns true
    /// when a taken branch ended the issue group. Out of line in every
    /// engine: inlined into the boundary batch, with the memory heads inside
    /// it, it slowed the batch's arithmetic (`compute_dense` 1.06×).
    #[inline(never)]
    fn execute(&mut self, shared: &mut Shared, now: u64, insn: Insn) -> bool {
        use Op::*;
        let pc = self.pc;
        let qp_true = self.read_pr(insn.qp);
        let int_ready = now + 1;
        let fp_ready = now + shared.cfg.fp_latency;

        if !qp_true {
            // Predicated off: consumes the slot, no effects (branches fall
            // through; `br.ctop`/`br.cloop` ignore qp by architecture, so
            // they are handled below regardless).
            match insn.op {
                BrCtop { .. } | BrCloop { .. } => {}
                _ => {
                    self.pc = pc + 1;
                    return false;
                }
            }
        }

        match insn.op {
            Ld8 {
                dest,
                base,
                post_inc,
                bias,
            } => {
                let addr = self.read_gr(base) as u64;
                if !shared.mem.in_bounds(addr) {
                    return self.raise_fault(shared, now, pc, addr);
                }
                let value = shared.mem.read_u64(addr) as i64;
                let out = shared.memsys.load(
                    &mut shared.stats,
                    &mut shared.hpm,
                    self.cpu,
                    now,
                    pc,
                    false,
                    bias,
                    addr,
                );
                self.write_gr(dest, value, out.complete_at);
                self.post_inc(base, post_inc, int_ready);
                self.resume_at = self.resume_at.max(out.stall_until);
            }
            St8 {
                src,
                base,
                post_inc,
            } => {
                let addr = self.read_gr(base) as u64;
                if !shared.mem.in_bounds(addr) {
                    return self.raise_fault(shared, now, pc, addr);
                }
                shared.mem.write_u64(addr, self.read_gr(src) as u64);
                let out = shared.memsys.store(&mut shared.stats, self.cpu, now, addr);
                self.post_inc(base, post_inc, int_ready);
                self.resume_at = self.resume_at.max(out.stall_until);
            }
            Ldfd {
                dest,
                base,
                post_inc,
            } => {
                let addr = self.read_gr(base) as u64;
                if !shared.mem.in_bounds(addr) {
                    return self.raise_fault(shared, now, pc, addr);
                }
                let value = shared.mem.read_f64(addr);
                let out = shared.memsys.load(
                    &mut shared.stats,
                    &mut shared.hpm,
                    self.cpu,
                    now,
                    pc,
                    true,
                    false,
                    addr,
                );
                self.write_fr(dest, value, out.complete_at);
                self.post_inc(base, post_inc, int_ready);
                self.resume_at = self.resume_at.max(out.stall_until);
            }
            Stfd {
                src,
                base,
                post_inc,
            } => {
                let addr = self.read_gr(base) as u64;
                if !shared.mem.in_bounds(addr) {
                    return self.raise_fault(shared, now, pc, addr);
                }
                shared.mem.write_f64(addr, self.read_fr(src));
                let out = shared.memsys.store(&mut shared.stats, self.cpu, now, addr);
                self.post_inc(base, post_inc, int_ready);
                self.resume_at = self.resume_at.max(out.stall_until);
            }
            Lfetch {
                base,
                post_inc,
                excl,
                ..
            } => {
                let addr = self.read_gr(base) as u64;
                if shared.mem.in_bounds(addr) {
                    shared
                        .memsys
                        .prefetch(&mut shared.stats, self.cpu, now, excl, addr);
                }
                self.post_inc(base, post_inc, int_ready);
            }
            FmaD { dest, f1, f2, f3 } => {
                let v = self.read_fr(f1).mul_add(self.read_fr(f2), self.read_fr(f3));
                self.write_fr(dest, v, fp_ready);
            }
            FsubD { dest, f1, f2 } => {
                let v = self.read_fr(f1) - self.read_fr(f2);
                self.write_fr(dest, v, fp_ready);
            }
            FmulD { dest, f1, f2 } => {
                let v = self.read_fr(f1) * self.read_fr(f2);
                self.write_fr(dest, v, fp_ready);
            }
            FdivD { dest, f1, f2 } => {
                let v = self.read_fr(f1) / self.read_fr(f2);
                self.write_fr(dest, v, now + shared.cfg.fp_long_latency);
            }
            FsqrtD { dest, f1 } => {
                let v = self.read_fr(f1).sqrt();
                self.write_fr(dest, v, now + shared.cfg.fp_long_latency);
            }
            FcmpD {
                p1,
                p2,
                rel,
                f1,
                f2,
            } => {
                let r = rel.eval_f64(self.read_fr(f1), self.read_fr(f2));
                self.write_pr(p1, r, int_ready);
                self.write_pr(p2, !r, int_ready);
            }
            SetfD { dest, src } => {
                let v = f64::from_bits(self.read_gr(src) as u64);
                self.write_fr(dest, v, fp_ready);
            }
            SetfSig { dest, src } => {
                // Integer-in-FR: keep the integer value in the significand.
                let v = self.read_gr(src);
                self.write_fr(dest, f64::from_bits(v as u64), fp_ready);
            }
            FcvtXf { dest, src } => {
                let bits = self.read_fr(src).to_bits() as i64;
                self.write_fr(dest, bits as f64, fp_ready);
            }
            Add { dest, r2, r3 } => {
                let v = self.read_gr(r2).wrapping_add(self.read_gr(r3));
                self.write_gr(dest, v, int_ready);
            }
            Sub { dest, r2, r3 } => {
                let v = self.read_gr(r2).wrapping_sub(self.read_gr(r3));
                self.write_gr(dest, v, int_ready);
            }
            AddI { dest, src, imm } => {
                let v = self.read_gr(src).wrapping_add(imm as i64);
                self.write_gr(dest, v, int_ready);
            }
            Mul { dest, r2, r3 } => {
                let v = self.read_gr(r2).wrapping_mul(self.read_gr(r3));
                // Integer multiply runs on the FP unit on Itanium.
                self.write_gr(dest, v, now + shared.cfg.fp_latency);
            }
            ShlI { dest, src, count } => {
                let v = ((self.read_gr(src) as u64) << count) as i64;
                self.write_gr(dest, v, int_ready);
            }
            ShrI { dest, src, count } => {
                let v = ((self.read_gr(src) as u64) >> count) as i64;
                self.write_gr(dest, v, int_ready);
            }
            MovI { dest, imm } => {
                self.write_gr(dest, imm, int_ready);
            }
            Cmp {
                p1,
                p2,
                rel,
                r2,
                r3,
            } => {
                let r = rel.eval_i64(self.read_gr(r2), self.read_gr(r3));
                self.write_pr(p1, r, int_ready);
                self.write_pr(p2, !r, int_ready);
            }
            CmpI {
                p1,
                p2,
                rel,
                imm,
                r3,
            } => {
                let r = rel.eval_i64(imm as i64, self.read_gr(r3));
                self.write_pr(p1, r, int_ready);
                self.write_pr(p2, !r, int_ready);
            }
            BrCond { target } => {
                if qp_true {
                    return self.take_branch(shared, pc, target);
                }
            }
            BrCtop { target } => {
                // Modulo-scheduled counted loop (ignores qp architecturally).
                let (taken, p16) = if self.lc > 0 {
                    self.lc -= 1;
                    (true, true)
                } else if self.ec > 1 {
                    self.ec -= 1;
                    (true, false)
                } else {
                    self.ec = self.ec.saturating_sub(1);
                    (false, false)
                };
                if taken {
                    self.rrb.rotate();
                    self.write_pr(16, p16, now + 1);
                    return self.take_branch(shared, pc, target);
                }
            }
            BrCloop { target } => {
                if self.lc > 0 {
                    self.lc -= 1;
                    return self.take_branch(shared, pc, target);
                }
            }
            BrWtop { target } => {
                // Simplified while-loop pipelined branch: continue while the
                // qualifying predicate holds, rotating on the taken path and
                // clearing the incoming stage predicate (see DESIGN.md §6).
                if qp_true {
                    self.rrb.rotate();
                    self.write_pr(16, false, now + 1);
                    return self.take_branch(shared, pc, target);
                }
            }
            MovToLc { src } => self.lc = self.read_gr(src) as u64,
            MovToEc { src } => self.ec = self.read_gr(src) as u64,
            Clrrrb => self.rrb.clear(),
            Nop { .. } => {}
            Hlt => {
                // Thread completion has release semantics: wait for the
                // store buffer to drain before signalling the join.
                let drain = shared.memsys.store_drain_time(self.cpu);
                if drain > now {
                    self.resume_at = drain;
                    return true; // retry hlt once drained (pc not advanced)
                }
                self.status = CoreStatus::Halted;
                return true;
            }
        }
        self.pc = pc + 1;
        false
    }

    #[inline]
    fn post_inc(&mut self, base: u8, post_inc: i32, ready: u64) {
        self.phys_post_inc(self.rrb.map_gr(base), post_inc, ready)
    }

    /// [`Self::post_inc`] of a base already mapped to its physical index.
    #[inline]
    fn phys_post_inc(&mut self, base: u8, post_inc: i32, ready: u64) {
        if post_inc != 0 {
            let v = self.phys_gr(base).wrapping_add(post_inc as i64);
            self.set_phys_gr(base, v, ready);
        }
    }

    #[inline]
    fn take_branch(&mut self, shared: &mut Shared, src: CodeAddr, target: CodeAddr) -> bool {
        shared.stats[self.cpu].add(Event::BrTaken, 1);
        // On-stack replacement: while a verified map is armed, a taken
        // branch into the old loop version commits to the corresponding
        // instruction of the deployed version instead. The empty-table
        // check is the entire cost when no migration is in flight. The BTB
        // records the redirected target — the profile sees the control
        // transfer that actually happened.
        let target = if shared.redirects.is_empty() {
            target
        } else {
            self.osr_redirect(shared, target)
        };
        shared.hpm[self.cpu].btb_push(src, target);
        self.pc = target;
        true
    }

    /// Where a taken branch to `target` commits while an OSR map is armed;
    /// cold, so the hot branch pays only the empty-table check.
    #[cold]
    #[inline(never)]
    fn osr_redirect(&mut self, shared: &mut Shared, target: CodeAddr) -> CodeAddr {
        let Some(to) = shared.redirects.redirect(target) else {
            return target;
        };
        // Drop the decoded-block cursor so the next fetch re-resolves in the
        // new version (the per-cycle revalidation would catch it too; this
        // keeps the cursor honest immediately).
        self.cur_block = None;
        to
    }

    /// Add externally-imposed stall cycles (snoop-response penalties).
    pub(crate) fn add_stall(&mut self, now: u64, cycles: u64) {
        if cycles > 0 && self.status == CoreStatus::Running {
            self.resume_at = self.resume_at.max(now + cycles);
        }
    }

    // ---- debug/test accessors ----

    /// Read a virtual GR (tests and thread-exit value inspection).
    pub fn gr(&self, vreg: u8) -> i64 {
        self.read_gr(vreg)
    }

    /// Read a virtual FR.
    pub fn fr(&self, vreg: u8) -> f64 {
        self.read_fr(vreg)
    }

    /// Read a virtual predicate register.
    pub fn pr(&self, vreg: u8) -> bool {
        self.read_pr(vreg)
    }

    /// Loop-count application register.
    pub fn lc(&self) -> u64 {
        self.lc
    }

    /// Cycle until which the core is stalled: the boundary batch's wake cycle
    /// for it, and the budget rule's quiet window.
    pub(crate) fn resume_at(&self) -> u64 {
        self.resume_at
    }
}

/// Decoded instruction at `addr`, which the caller has checked is inside the
/// image. Every slot decodes: `Machine::new` refused an image with one that
/// does not, a patched word is validated by the image, and an appended one
/// is an encoding.
///
/// Not inlined: inlined into `Core::issue_bundle_ref`, the `Result` the
/// image returns is rebuilt into the `Insn` in overlapping slices, which
/// slows the reference engine by ~70 % (126 ms to 216 ms on the four-core
/// floor); out of line it is one copy out of the shadow.
#[inline(never)]
fn fetch(code: &CodeImage, addr: CodeAddr) -> Insn {
    code.insn(addr).expect("program text decodes")
}

/// `sources_ready` and `execute` above are written by hand, opcode by
/// opcode, and stay that way: they are the oracle `cobra-isa`'s operand
/// table (`Op::operands`, from which `MicroOp::lower` and the verifier's
/// def/use sets are derived) is compared with here.
#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::config::MachineConfig;
    use crate::machine::Machine;
    use cobra_isa::insn::{CmpRel, LfetchHint, Unit};
    use cobra_isa::{Assembler, Reg};

    /// One instruction per `Op` shape — every variant, the memory forms with
    /// and without post-increment — each operand field a register of its own
    /// (none of the hard-wired `r0`, `f0`, `f1`, `p0`).
    fn shapes() -> Vec<Op> {
        use Op::*;
        let (dest, base, src, r2, r3) = (10, 11, 12, 15, 16);
        let (f1, f2, f3, p1, p2, rel) = (21, 22, 23, 6, 7, CmpRel::Lt);
        let (hint, excl, bias, target) = (LfetchHint::Nt1, false, false, 9);
        let mut ops = Vec::new();
        for post_inc in [0, 8] {
            ops.extend([
                Ld8 {
                    dest,
                    base,
                    post_inc,
                    bias,
                },
                St8 {
                    src,
                    base,
                    post_inc,
                },
                Ldfd {
                    dest,
                    base,
                    post_inc,
                },
                Stfd {
                    src,
                    base,
                    post_inc,
                },
                Lfetch {
                    base,
                    post_inc,
                    hint,
                    excl,
                },
            ]);
        }
        ops.extend([
            FmaD { dest, f1, f2, f3 },
            FsubD { dest, f1, f2 },
            FmulD { dest, f1, f2 },
            FdivD { dest, f1, f2 },
            FsqrtD { dest, f1 },
            FcmpD {
                p1,
                p2,
                rel,
                f1,
                f2,
            },
            SetfD { dest, src },
            SetfSig { dest, src },
            FcvtXf { dest, src },
            Add { dest, r2, r3 },
            Sub { dest, r2, r3 },
            AddI { dest, src, imm: 5 },
            Mul { dest, r2, r3 },
            ShlI {
                dest,
                src,
                count: 3,
            },
            ShrI {
                dest,
                src,
                count: 3,
            },
            MovI { dest, imm: 5 },
            Cmp {
                p1,
                p2,
                rel,
                r2,
                r3,
            },
            CmpI {
                p1,
                p2,
                rel,
                imm: 5,
                r3,
            },
            BrCond { target },
            BrCtop { target },
            BrCloop { target },
            BrWtop { target },
            MovToLc { src },
            MovToEc { src },
            Clrrrb,
            Nop { unit: Unit::M },
            Hlt,
        ]);
        ops
    }

    /// With one scoreboard entry late and every other on time, an
    /// instruction is late exactly when it reads that entry: walking the hot
    /// entry over all three files compares the *set* of registers the
    /// lowered source list names with the set the reference match consults.
    #[test]
    fn lowered_sources_are_the_registers_the_reference_waits_on() {
        for op in shapes() {
            let insn = Insn::pred(5, op);
            let uop = MicroOp::lower(insn);
            for hot in 0..128 + 128 + 64 {
                let mut core = Core::new(0);
                match hot {
                    0..128 => core.gr_ready[hot] = 1,
                    128..256 => core.fr_ready[hot - 128] = 1,
                    _ => core.pr_ready[hot - 256] = 1,
                }
                assert_eq!(
                    core.uop_sources_ready(&uop),
                    core.sources_ready(&insn),
                    "{op:?}, scoreboard entry {hot}"
                );
            }
        }
    }

    /// Everything `execute` can write, by architectural name.
    fn registers(core: &Core) -> Vec<(Reg, u64)> {
        let gr = (0..128).map(|i| (Reg::Gr(i), core.gr[i as usize] as u64));
        let fr = (0..128).map(|i| (Reg::Fr(i), core.fr[i as usize].to_bits()));
        let pr = (0..64).map(|i| (Reg::Pr(i), core.pr[i as usize] as u64));
        let ar = [(Reg::Lc, core.lc), (Reg::Ec, core.ec)];
        gr.chain(fr).chain(pr).chain(ar).collect()
    }

    /// Executed on register files where every entry holds a value of its
    /// own, an instruction changes the registers the table calls its defs
    /// and no other. Three starting states, so each branch of the loop
    /// branches and both outcomes of a compare get to write.
    #[test]
    fn execute_writes_exactly_the_defs_of_the_operand_table() {
        let mut a = Assembler::new();
        a.hlt();
        let mut shared = Machine::new(MachineConfig::smp4(), a.finish()).shared;
        for op in shapes() {
            let mut written = HashSet::new();
            for (preds, lc, ec) in [(false, 5, 5), (true, 0, 5), (true, 0, 1)] {
                let mut core = Core::new(0);
                core.status = CoreStatus::Running;
                for i in 0..128 {
                    core.gr[i] = 0x1000 + 64 * i as i64; // a valid address
                    core.fr[i] = 1000.5 + i as f64;
                }
                core.pr = [preds; 64];
                (core.lc, core.ec) = (lc, ec);
                let before = registers(&core);
                core.execute(&mut shared, 100, Insn::new(op));
                let after = registers(&core);
                written.extend(
                    before
                        .iter()
                        .zip(&after)
                        .filter(|(b, a)| b != a)
                        .map(|(b, _)| b.0),
                );
            }
            let defs: HashSet<Reg> = op.operands().defs().iter().copied().collect();
            assert_eq!(written, defs, "{op:?}");
        }
    }

    /// The one invalidation mechanism: the text's stamp. A core reuses the
    /// cursor it holds while the text stands still; after any `patch_word`
    /// or `append_trace` — through `Machine` or straight on
    /// `machine.shared.code` — it does not, and what it fetches instead is
    /// lowered from the new words. The image here is three `addi`s and no
    /// `hlt`, so its one block is cut by the image end: a patch must show in
    /// the re-fetched block, and an append must grow it into the new words.
    #[test]
    fn any_text_mutation_retires_a_held_cursor_and_the_next_fetch_lowers_the_new_words() {
        let image = {
            let mut a = Assembler::new();
            for _ in 0..3 {
                a.addi(6, 6, 1);
            }
            a.finish()
        };
        let patch = cobra_isa::encode(&Insn::new(Op::MovI { dest: 7, imm: 9 }));
        let trace = [Insn::new(Op::Hlt)];
        let cfg = MachineConfig::smp4().with_host_accel(crate::HostAccel::fast());
        for route in 0..4 {
            let mut m = Machine::new(cfg.clone(), image.clone());
            let mut core = Core::new(0);
            core.bind_thread(0, 0, &[]);
            let held = core.take_cursor(&mut m.shared);
            core.cur_block = Some(Arc::clone(&held));
            let again = core.take_cursor(&mut m.shared);
            assert!(Arc::ptr_eq(&held, &again), "unchanged text: cursor reused");
            core.cur_block = Some(again);
            assert_eq!((held.uops.len(), m.block_stats().builds), (3, 1));

            match route {
                0 => m.patch_word(1, patch).map(drop).unwrap(),
                1 => m.shared.code.patch_word(1, patch).map(drop).unwrap(),
                2 => _ = m.append_trace(&trace),
                _ => _ = m.shared.code.append_trace(&trace),
            }
            let fresh = core.take_cursor(&mut m.shared);
            assert!(!Arc::ptr_eq(&held, &fresh), "route {route}: cursor retired");
            assert_eq!(fresh.uops.len(), if route < 2 { 3 } else { 4 });
            for (k, u) in fresh.uops.iter().enumerate() {
                assert_eq!(u.insn, m.shared.code.insn(k as CodeAddr).unwrap());
            }
            let stats = m.block_stats();
            assert_eq!((stats.builds, stats.invalidations), (2, 1), "route {route}");
        }
    }
}
