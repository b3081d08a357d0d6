//! The block cache of the block dispatch engine.
//!
//! [`CodeImage`] already keeps a decoded shadow of its words, but the
//! per-cycle interpreter still re-derives the source-register set of every
//! instruction on every fetch. This module goes one level further:
//! straight-line runs of instructions are lowered once into flat [`MicroOp`]
//! tables (basic blocks, keyed by entry address, cut at branches/`ret`/`hlt`
//! and at the image end) and cached for as long as the text they were
//! lowered from is the text.
//!
//! That is one compare. The text counts its own mutations
//! ([`CodeImage::generation`]); the cache remembers the stamp its contents
//! were built from and [`BlockCache::get_or_build`] drops all of them when
//! the text's stamp has moved; a core's cursor carries the stamp it was
//! fetched under and is reused only while that is still the text's. Nothing
//! is evicted block by block: keeping the blocks a patch did not touch was
//! measured (142 deployments and 128 reverts in 18 016 ticks) and bought no
//! host time.
//!
//! A block whose last uop is a `br.ctop` or `br.cloop` back edge to one of
//! its own slots, and whose loop part holds an [`OpClass::Other`] uop, also
//! carries a *loop trace* (`Block::loop_row`): that loop part with every
//! register operand resolved to a physical index at each rotation residue,
//! built with the block and dropped with it. (A loop of fused arms only
//! has no trace: they index the register files already.)

use std::collections::HashMap;
use std::sync::Arc;

use cobra_isa::insn::Op;
use cobra_isa::regs::{Rrb, ROT_GR_SIZE, ROT_PR_SIZE};
use cobra_isa::uop::{MicroOp, OpClass};
use cobra_isa::{CodeAddr, CodeImage};

/// Upper bound on block length in slots. Straight-line runs longer than this
/// are split into consecutive blocks; the cap bounds build latency.
pub(crate) const MAX_BLOCK_SLOTS: usize = 64;

/// One lowered basic block: `uops[k]` is the micro-op at `start + k`.
#[derive(Debug)]
pub struct Block {
    /// Entry slot address.
    pub start: CodeAddr,
    /// Lowered instructions, entry first; the last entry is a block
    /// terminator unless the block was cut by [`MAX_BLOCK_SLOTS`] or the
    /// image end. Empty exactly when `start` is outside the image: there is
    /// nothing to fetch there, and the core that asked faults.
    pub uops: Box<[MicroOp]>,
    /// In-block index of the head of the traced loop part (see the module
    /// doc), else `uops.len()`.
    pub(crate) loop_head: usize,
    /// The loop part's [`LoopSlot`]s, residue-major; see [`Self::loop_row`].
    loop_trace: Box<[LoopSlot]>,
}

/// The dispatch arm of a loop-trace slot: the five interpreter-class
/// opcodes that carry the software-pipelined loops, `nop` (their bundle
/// padding), and `Other`, the interpreter arm, for the rest — fixed-operand
/// `add`, `adds` and `br.cloop` too: traced loops carry few of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum LoopKind {
    Ldfd,
    Stfd,
    Lfetch,
    FmaD,
    BrCtop,
    Nop,
    Other,
}

/// One uop of a loop part at one rotation residue, its register operands
/// resolved to physical indices (the core's register files are indexed by
/// them directly). Which field holds which operand depends on `kind`:
///
/// | kind      | `d`                  | `a`     | `b`      | `c`       | `imm`     |
/// |-----------|----------------------|---------|----------|-----------|-----------|
/// | `Ldfd`    | FR dest              | GR base |          |           | post-inc  |
/// | `Stfd`    |                      | GR base | FR src   |           | post-inc  |
/// | `Lfetch`  |                      | GR base |          | `.excl`   | post-inc  |
/// | `FmaD`    | FR dest              | FR f1   | FR f2    | FR f3     |           |
/// | `BrCtop`  | p16 after rotating   |         |          |           | target    |
#[derive(Debug, Clone, Copy)]
pub(crate) struct LoopSlot {
    pub(crate) kind: LoopKind,
    /// Qualifying predicate.
    pub(crate) qp: u8,
    pub(crate) d: u8,
    pub(crate) a: u8,
    pub(crate) b: u8,
    pub(crate) c: u8,
    pub(crate) imm: i32,
}

impl LoopSlot {
    /// `u` with its operands mapped through the bases `rrb`.
    fn resolve(u: &MicroOp, rrb: Rrb) -> LoopSlot {
        let (g, f) = (|r| rrb.map_gr(r), |r| rrb.map_fr(r));
        let (kind, d, a, b, c, imm) = match u.insn.op {
            Op::Ldfd {
                dest,
                base,
                post_inc,
            } => (LoopKind::Ldfd, f(dest), g(base), 0, 0, post_inc),
            Op::Stfd {
                src,
                base,
                post_inc,
            } => (LoopKind::Stfd, 0, g(base), f(src), 0, post_inc),
            Op::Lfetch {
                base,
                post_inc,
                excl,
                ..
            } => (LoopKind::Lfetch, 0, g(base), 0, excl as u8, post_inc),
            Op::FmaD { dest, f1, f2, f3 } => (LoopKind::FmaD, f(dest), f(f1), f(f2), f(f3), 0),
            Op::BrCtop { target } => {
                // A taken `br.ctop` writes p16 under the bases it has just
                // rotated to.
                let mut next = rrb;
                next.rotate();
                (LoopKind::BrCtop, next.map_pr(16), 0, 0, 0, target as i32)
            }
            Op::Nop { .. } => (LoopKind::Nop, 0, 0, 0, 0, 0),
            _ => (LoopKind::Other, 0, 0, 0, 0, 0),
        };
        LoopSlot {
            kind,
            qp: rrb.map_pr(u.insn.qp),
            d,
            a,
            b,
            c,
            imm,
        }
    }
}

impl Block {
    /// Slot address one past the last instruction of the block.
    #[inline]
    pub fn end(&self) -> CodeAddr {
        self.start + self.uops.len() as CodeAddr
    }

    /// Micro-op at slot `addr`, if this block covers it.
    #[inline]
    pub(crate) fn uop_at(&self, addr: CodeAddr) -> Option<&MicroOp> {
        if addr >= self.start {
            self.uops.get((addr - self.start) as usize)
        } else {
            None
        }
    }

    /// Is in-block index `idx` in the traced loop part, from the head to the
    /// back edge? (Never, when the block has no loop trace.)
    #[inline]
    pub(crate) fn in_loop(&self, idx: usize) -> bool {
        idx >= self.loop_head
    }

    /// The loop trace's row for bases whose `rrb.gr` is `residue`: slot `k`
    /// is in-block index `loop_head + k`. The GR, FR and PR bases rotate in
    /// lockstep and `clrrrb` zeroes all three, so `rrb.gr` names the whole
    /// state: `fr == gr`, `pr == gr % 48`.
    #[inline]
    pub(crate) fn loop_row(&self, residue: u8) -> &[LoopSlot] {
        let n = self.uops.len() - self.loop_head;
        &self.loop_trace[residue as usize * n..][..n]
    }
}

/// Why machine cycles ran outside a solo stretch. The breakdown makes the
/// residual per-cycle time attributable: a hot `MultiCoreMemBoundary` count
/// means several cores run together; a hot `Sampling` count means HPM
/// overflow sampling keeps landing crossings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FallbackReason {
    /// Two or more cores Running (or none): the cycles run in the boundary
    /// batch, interleaved through pre-decoded dispatch, with the clock
    /// jumped across the windows in which no core can issue.
    MultiCoreMemBoundary,
    /// A Running core's sampled counter may cross its threshold on the next
    /// cycle (or it samples an event with no per-cycle bound and is awake),
    /// so the budget rule held the stretch or batch to that one cycle,
    /// polled at its end: the capture lands on the exact reference cycle.
    /// Such a cycle is counted here and not as `MultiCoreMemBoundary`.
    Sampling,
}

/// Telemetry counters of one [`BlockCache`] (read through
/// `Machine::block_stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Blocks lowered (cache misses).
    pub builds: u64,
    /// Cached blocks dropped because the text was patched or appended to.
    pub invalidations: u64,
    /// Fallback cycles at a multicore memory boundary
    /// ([`FallbackReason::MultiCoreMemBoundary`]).
    pub fallback_mem_boundary: u64,
    /// Fallback cycles at a sampling crossing ([`FallbackReason::Sampling`]).
    pub fallback_sampling: u64,
    /// Never written, always zero: the multicore safe-horizon stretch it
    /// counted is gone. Kept because `benchmark/` reads it.
    pub horizon_stretches: u64,
    /// Never written, always zero, as [`Self::horizon_stretches`].
    pub horizon_cycles: u64,
}

impl BlockStats {
    /// Total machine cycles that ran outside a solo stretch under the fast
    /// engine (the sum of the per-reason counters).
    pub fn fallback_cycles(&self) -> u64 {
        self.fallback_mem_boundary + self.fallback_sampling
    }
}

/// The block cache shared by all cores of a machine.
#[derive(Debug)]
pub struct BlockCache {
    map: HashMap<CodeAddr, Arc<Block>>,
    /// The text stamp ([`CodeImage::generation`]) `map` was built from.
    text_generation: u64,
    stats: BlockStats,
}

impl Default for BlockCache {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockCache {
    pub fn new() -> Self {
        BlockCache {
            map: HashMap::new(),
            text_generation: 0,
            stats: BlockStats::default(),
        }
    }

    /// Telemetry counters.
    pub fn stats(&self) -> BlockStats {
        self.stats
    }

    /// Count `cycles` one-at-a-time machine cycles attributed to `reason`.
    #[inline]
    pub(crate) fn note_fallback(&mut self, reason: FallbackReason, cycles: u64) {
        match reason {
            FallbackReason::MultiCoreMemBoundary => self.stats.fallback_mem_boundary += cycles,
            FallbackReason::Sampling => self.stats.fallback_sampling += cycles,
        }
    }

    /// The block starting at `entry`, building and caching it on a miss —
    /// after dropping everything cached when the text has been mutated since
    /// it was built. An `entry` outside the image yields an empty block
    /// (never cached: the address is the guest's to choose).
    pub(crate) fn get_or_build(&mut self, code: &CodeImage, entry: CodeAddr) -> Arc<Block> {
        if self.text_generation != code.generation() {
            self.stats.invalidations += self.map.len() as u64;
            self.map.clear();
            self.text_generation = code.generation();
        }
        if let Some(b) = self.map.get(&entry) {
            return Arc::clone(b);
        }
        let block = Arc::new(Self::build(code, entry));
        if !block.uops.is_empty() {
            self.stats.builds += 1;
            self.map.insert(entry, Arc::clone(&block));
        }
        block
    }

    fn build(code: &CodeImage, entry: CodeAddr) -> Block {
        let len = code.len();
        let mut uops = Vec::new();
        let mut addr = entry;
        while addr < len && uops.len() < MAX_BLOCK_SLOTS {
            let u = MicroOp::lower(code.insn(addr).expect("program text decodes"));
            let ends = u.ends_block();
            uops.push(u);
            addr += 1;
            if ends {
                break;
            }
        }
        let loop_head = match uops.last().map(|u| u.insn.op) {
            Some(Op::BrCtop { target } | Op::BrCloop { target })
                if (entry..addr).contains(&target)
                    && uops[(target - entry) as usize..]
                        .iter()
                        .any(|u| u.class == OpClass::Other) =>
            {
                (target - entry) as usize
            }
            _ => uops.len(),
        };
        let body = &uops[loop_head..];
        let loop_trace = (0..ROT_GR_SIZE)
            .flat_map(|r| {
                let rrb = Rrb {
                    gr: r,
                    fr: r,
                    pr: r % ROT_PR_SIZE,
                };
                body.iter().map(move |u| LoopSlot::resolve(u, rrb))
            })
            .collect();
        Block {
            start: entry,
            uops: uops.into_boxed_slice(),
            loop_head,
            loop_trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_isa::insn::Op;
    use cobra_isa::Assembler;

    fn code_with(asm: impl FnOnce(&mut Assembler)) -> CodeImage {
        let mut a = Assembler::new();
        asm(&mut a);
        a.finish()
    }

    /// A loop program: blocks must be cut exactly at the back edge.
    fn loop_code() -> CodeImage {
        code_with(|a| {
            a.movi(5, 10);
            a.mov_to_lc(5);
            let top = a.new_label();
            a.bind(top);
            a.addi(6, 6, 1);
            a.addi(7, 7, 2);
            a.br_cloop(top);
            a.hlt();
        })
    }

    #[test]
    fn blocks_cut_at_branches_and_hlt() {
        let code = loop_code();
        let mut cache = BlockCache::new();
        let head = cache.get_or_build(&code, 0);
        // The entry block runs up to and including the br.cloop back edge.
        let last = head.uops.last().unwrap();
        assert!(last.ends_block());
        assert!(matches!(last.insn.op, Op::BrCloop { .. }));
        // Every uop matches the decoded shadow at its address.
        for (k, u) in head.uops.iter().enumerate() {
            assert_eq!(u.insn, code.insn(head.start + k as CodeAddr).unwrap());
        }
        assert_eq!(cache.stats().builds, 1);
        // A second lookup is a hit, not a rebuild.
        let again = cache.get_or_build(&code, 0);
        assert!(Arc::ptr_eq(&head, &again));
        assert_eq!(cache.stats().builds, 1);
    }

    #[test]
    fn long_straight_line_runs_split_at_the_cap() {
        let code = code_with(|a| {
            for _ in 0..(MAX_BLOCK_SLOTS + 10) {
                a.addi(6, 6, 1);
            }
            a.hlt();
        });
        let mut cache = BlockCache::new();
        let b = cache.get_or_build(&code, 0);
        assert_eq!(b.uops.len(), MAX_BLOCK_SLOTS);
        assert!(!b.uops.last().unwrap().ends_block());
        let next = cache.get_or_build(&code, b.end());
        assert_eq!(next.start, b.end());
    }

    /// The trace is one table of these, 96 rows per loop: the size is what
    /// `peak_rss_mb` was measured with.
    #[test]
    fn loop_slot_is_12_bytes() {
        assert_eq!(std::mem::size_of::<LoopSlot>(), 12);
    }

    /// A block ending in a back edge to its own middle has a loop part from
    /// the head, whose operands resolve at each residue to what the bases of
    /// that residue map them to; a block whose back edge leaves it has none.
    #[test]
    fn loop_part_resolves_operands_per_residue() {
        let code = code_with(|a| {
            a.movi(5, 9);
            a.mov_to_lc(5);
            let top = a.new_label();
            a.bind(top);
            a.ldfd(16, 32, 4, 8);
            a.fma_d(17, 40, 33, 1, 6);
            a.br_ctop(top);
            a.hlt();
        });
        let mut cache = BlockCache::new();
        let b = cache.get_or_build(&code, 0);
        // Slot 2 pads the head to a bundle start.
        assert!(!b.in_loop(2) && b.in_loop(3) && b.in_loop(5));
        for r in [0, 1, 47, 48, 95] {
            let rrb = Rrb {
                gr: r,
                fr: r,
                pr: r % ROT_PR_SIZE,
            };
            let (p, f) = (|v| rrb.map_pr(v), |v| rrb.map_fr(v));
            let row = b.loop_row(r);
            let s = row[3 - b.loop_head];
            let ld = (s.kind, s.qp, s.d, s.a, s.imm);
            assert_eq!(ld, (LoopKind::Ldfd, p(16), f(32), 4, 8));
            let s = row[4 - b.loop_head];
            let fma = (s.kind, s.qp, s.d, s.a, s.b, s.c);
            assert_eq!(fma, (LoopKind::FmaD, p(17), f(40), f(33), 1, 6));
            let mut next = rrb;
            next.rotate();
            let s = row[5 - b.loop_head];
            let ctop = (s.kind, s.d, s.imm);
            assert_eq!(ctop, (LoopKind::BrCtop, next.map_pr(16), 3));
        }
        // Entered mid-loop (a cursor re-fetched after a patch), the block's
        // back edge leaves it: no loop part.
        let tail = cache.get_or_build(&code, 4);
        assert!(!tail.in_loop(0) && !tail.in_loop(1));
    }
}
