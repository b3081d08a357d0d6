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
//! its own slots also carries a *loop trace* (`Block::loop_slot`): its
//! loop part with every register operand resolved to a physical index at
//! each rotation residue, built the first time a core issues from it and
//! dropped with the block.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use cobra_isa::insn::Op;
use cobra_isa::regs::{Rrb, ROT_GR_SIZE, ROT_PR_SIZE};
use cobra_isa::uop::MicroOp;
use cobra_isa::{CodeAddr, CodeImage};

/// Upper bound on block length in slots. Straight-line runs longer than this
/// are split into consecutive blocks; the cap bounds build latency and lets
/// [`Block::dist_mem`] be bytes.
pub const MAX_BLOCK_SLOTS: usize = 64;

/// Distance value meaning "no memory-capable uop is reachable on this path"
/// (a mem-free cycle, or a path that ends in `hlt`). Far below `u64::MAX` so
/// saturating sums of block lengths never wrap.
const DIST_INF: u64 = u64::MAX / 4;

/// Exploration bound for the cross-block distance fixpoint: at most this
/// many blocks are discovered per query; successors beyond the frontier
/// conservatively count as memory-capable at distance 0.
const DIST_EXPLORE_BLOCKS: usize = 64;

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
    /// `dist_mem[k]` is the straight-line uop distance from slot `start + k`
    /// to the nearest memory-capable uop at or after it, where the position
    /// one past the block end counts as memory-capable (the successor block
    /// is unknown, so it must be assumed to touch memory immediately). A
    /// memory-capable uop itself has distance 0; with no in-block memory op,
    /// `dist_mem[k] == uops.len() - k`.
    pub dist_mem: Box<[u8]>,
    /// In-block index of the loop head when the block ends in a `br.ctop` /
    /// `br.cloop` back edge to one of its own slots, else `uops.len()`.
    loop_head: usize,
    /// The loop part's [`LoopSlot`]s, residue-major; see [`Self::loop_slot`].
    loop_trace: OnceLock<Box<[LoopSlot]>>,
}

/// The dispatch arm of a loop-trace slot: the five interpreter-class
/// opcodes that carry the software-pipelined loops, and `Other` for the
/// rest. (`add`, `adds`, `nop` and `br.cloop` have [`OpClass`] arms of
/// their own, which read the same operands from the uop; a trace arm for
/// them buys nothing.)
///
/// [`OpClass`]: cobra_isa::uop::OpClass
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum LoopKind {
    Ldfd,
    Stfd,
    Lfetch,
    FmaD,
    BrCtop,
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
    pub fn uop_at(&self, addr: CodeAddr) -> Option<&MicroOp> {
        if addr >= self.start {
            self.uops.get((addr - self.start) as usize)
        } else {
            None
        }
    }

    /// Straight-line uop distance from in-block index `idx` to the nearest
    /// memory-capable position (see [`Block::dist_mem`]). The lockstep
    /// scheduler turns this into a cycle bound: at most 3 uops issue per
    /// cycle, so a uop `d` slots ahead cannot issue before `d / 3` cycles
    /// from now. [`BlockCache::mem_free_path_uops`] extends this distance
    /// across block boundaries through statically known branch targets.
    #[inline]
    pub fn mem_free_uops(&self, idx: usize) -> u64 {
        self.dist_mem[idx] as u64
    }

    /// Is in-block index `idx` in the loop part, from the head to the back
    /// edge? (Never, when the block does not end in one of its own loops.)
    #[inline]
    pub(crate) fn in_loop(&self, idx: usize) -> bool {
        idx >= self.loop_head
    }

    /// The loop-trace slot of in-block index `idx` (which [`Self::in_loop`])
    /// under bases whose `rrb.gr` is `residue`. The GR, FR and PR bases
    /// rotate in lockstep and `clrrrb` zeroes all three, so `rrb.gr` names
    /// the whole state: `fr == gr`, `pr == gr % 48`. All 96 residues are
    /// resolved together, the first time any is asked for.
    #[inline]
    pub(crate) fn loop_slot(&self, residue: u8, idx: usize) -> &LoopSlot {
        let body = &self.uops[self.loop_head..];
        let trace = self.loop_trace.get_or_init(|| {
            (0..ROT_GR_SIZE)
                .flat_map(|r| {
                    let rrb = Rrb {
                        gr: r,
                        fr: r,
                        pr: r % ROT_PR_SIZE,
                    };
                    body.iter().map(move |u| LoopSlot::resolve(u, rrb))
                })
                .collect()
        });
        &trace[residue as usize * body.len() + (idx - self.loop_head)]
    }

    /// Where control can continue one past the last uop of this block.
    fn past_end(&self, code_len: CodeAddr) -> PastEnd {
        let last = self.uops.last().expect("blocks are non-empty");
        if !last.ends_block() {
            // Cut by the slot cap or the image end: pure fall-through.
            return if self.end() < code_len {
                PastEnd::Static([Some(self.end()), None])
            } else {
                PastEnd::Unknown
            };
        }
        match last.insn.op {
            // A halting path issues nothing further (the halting core's own
            // store-buffer drain is core-local).
            Op::Hlt => PastEnd::Halt,
            // Indirect return target: unknowable statically.
            Op::BrRet => PastEnd::Unknown,
            // Every direct branch flavour: the taken target plus (all these
            // forms can fall through, via qp or loop exhaustion) the next
            // slot. Out-of-image successors count as unknown.
            Op::BrCond { target }
            | Op::BrCtop { target }
            | Op::BrCloop { target }
            | Op::BrWtop { target }
            | Op::BrCall { target } => {
                let fall = (self.end() < code_len).then_some(self.end());
                if target < code_len {
                    PastEnd::Static([Some(target), fall])
                } else if fall.is_some() {
                    PastEnd::Static([fall, None])
                } else {
                    PastEnd::Unknown
                }
            }
            _ => PastEnd::Unknown,
        }
    }
}

/// Static control-flow successors one past a block's end.
enum PastEnd {
    /// Direct successors (one or two block entry addresses).
    Static([Option<CodeAddr>; 2]),
    /// The block ends in `hlt`: the path issues nothing further.
    Halt,
    /// Indirect or out-of-image: must be assumed memory-capable immediately.
    Unknown,
}

/// Why machine cycles ran one at a time, cores interleaved, instead of in a
/// stretch. The breakdown makes the residual per-cycle time attributable: a
/// hot `MultiCoreMemBoundary` count means the lockstep engine is engaging
/// but the code is memory-dense; a hot `Sampling` count means HPM overflow
/// sampling keeps landing crossings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// Two or more cores running and no safe horizon worth a stretch: some
    /// core sits on (or within a few issue cycles of) a memory-capable uop,
    /// or an OSR redirect is armed, so the cycles run interleaved — still
    /// through pre-decoded dispatch.
    MultiCoreMemBoundary,
    /// A sampled counter may cross its threshold this cycle (or samples an
    /// event with no per-cycle bound), so the cycle runs through the polled
    /// reference step and the capture lands on the exact reference cycle.
    Sampling,
}

/// Telemetry counters of one [`BlockCache`] (surfaced in `CobraReport`).
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
    /// Lockstep multicore stretches executed (each covers ≥1 cycle on every
    /// running core).
    pub horizon_stretches: u64,
    /// Machine cycles covered by lockstep multicore stretches.
    pub horizon_cycles: u64,
}

impl BlockStats {
    /// Total machine cycles that ran one at a time under the fast engine
    /// (the sum of the per-reason counters).
    pub fn fallback_cycles(&self) -> u64 {
        self.fallback_mem_boundary + self.fallback_sampling
    }
}

/// The block cache shared by all cores of a machine.
#[derive(Debug)]
pub struct BlockCache {
    map: HashMap<CodeAddr, Arc<Block>>,
    /// Memoized cross-block mem-free distances, keyed by block entry (see
    /// [`Self::mem_free_path_uops`]), each computed from blocks in `map`.
    dist_memo: HashMap<CodeAddr, u64>,
    /// The text stamp ([`CodeImage::generation`]) `map` and `dist_memo`
    /// were built from.
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
            dist_memo: HashMap::new(),
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
    pub fn note_fallback(&mut self, reason: FallbackReason, cycles: u64) {
        match reason {
            FallbackReason::MultiCoreMemBoundary => self.stats.fallback_mem_boundary += cycles,
            FallbackReason::Sampling => self.stats.fallback_sampling += cycles,
        }
    }

    /// Count one lockstep multicore stretch covering `cycles` machine cycles.
    #[inline]
    pub fn note_horizon(&mut self, cycles: u64) {
        self.stats.horizon_stretches += 1;
        self.stats.horizon_cycles += cycles;
    }

    /// The block starting at `entry`, building and caching it on a miss —
    /// after dropping everything cached when the text has been mutated since
    /// it was built. An `entry` outside the image yields an empty block
    /// (never cached: the address is the guest's to choose).
    pub fn get_or_build(&mut self, code: &CodeImage, entry: CodeAddr) -> Arc<Block> {
        if self.text_generation != code.generation() {
            self.stats.invalidations += self.map.len() as u64;
            self.map.clear();
            self.dist_memo.clear();
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
        // Backward pass: distance to the nearest memory-capable position,
        // with the slot one past the block end counting as memory-capable
        // (unknown successor). Fits in u8 because blocks hold ≤ 64 uops.
        let mut dist_mem = vec![0u8; uops.len()];
        let mut d = 1u8; // distance of the last slot to the position past the end
        for (k, u) in uops.iter().enumerate().rev() {
            if u.is_mem() {
                d = 0;
            }
            dist_mem[k] = d;
            d += 1;
        }
        let loop_head = match uops.last().map(|u| u.insn.op) {
            Some(Op::BrCtop { target } | Op::BrCloop { target })
                if (entry..addr).contains(&target) =>
            {
                (target - entry) as usize
            }
            _ => uops.len(),
        };
        Block {
            start: entry,
            uops: uops.into_boxed_slice(),
            dist_mem: dist_mem.into_boxed_slice(),
            loop_head,
            loop_trace: OnceLock::new(),
        }
    }

    /// Lower bound on the number of uops any execution path starting at
    /// in-block index `idx` of the block at `entry` can issue before a
    /// memory-capable uop issues. Unlike [`Block::mem_free_uops`] this
    /// follows statically known control flow *across* block boundaries —
    /// every direct branch contributes both its target and its fall-through
    /// path, a `hlt` terminates its path (the halting core issues nothing
    /// further), and anything unknowable (indirect `br.ret`, out-of-image
    /// successors, the exploration bound) counts as memory-capable at
    /// distance 0. Mem-free cycles reachable from `idx` make the distance
    /// effectively infinite ([`DIST_INF`]); the caller caps by budget.
    ///
    /// The per-entry fixpoint is memoized until the text is mutated, so
    /// steady-state queries past the block end are one hash lookup per static
    /// successor (at most two) and allocate nothing — and queries that
    /// resolve to an in-block memory uop (`b` is the caller's
    /// cursor block, passed in so the hot path never touches the cache map)
    /// are a pure array read. A PC outside `b` (an empty block: the fetch
    /// will fault) is unknowable and counts as 0 too.
    pub fn mem_free_path_uops(&mut self, code: &CodeImage, b: &Block, idx: usize) -> u64 {
        let Some(d) = b.dist_mem.get(idx).map(|&d| d as u64) else {
            return 0;
        };
        if idx as u64 + d < b.uops.len() as u64 {
            return d; // a real in-block memory uop
        }
        let tail = (b.uops.len() - idx) as u64;
        tail.saturating_add(self.dist_from_exit(code, b))
    }

    /// Distance past the end of `b`: min over its successors' entry
    /// distances, via a bounded Bellman-Ford fixpoint over the discovered
    /// block graph. Distances only shrink during relaxation, so the settled
    /// values are true path minima — never overestimates, which is what the
    /// lockstep horizon's soundness rests on.
    fn dist_from_exit(&mut self, code: &CodeImage, b: &Block) -> u64 {
        enum SuccRef {
            Known(usize),
            Open, // unknown / out of image / past the exploration bound: 0
        }
        let code_len = code.len();
        let succs = match b.past_end(code_len) {
            PastEnd::Halt => return DIST_INF,
            PastEnd::Unknown => return 0,
            PastEnd::Static(succs) => succs,
        };
        // Steady state: every successor is settled, the answer is their min.
        let settled = |min: u64, s| Some(min.min(*self.dist_memo.get(s)?));
        if let Some(d) = succs.iter().flatten().try_fold(DIST_INF, settled) {
            return d;
        }
        // Discover the successor closure, reusing memoized roots wherever
        // the frontier touches one.
        let mut entries: Vec<CodeAddr> = Vec::new();
        let mut index: HashMap<CodeAddr, usize> = HashMap::new();
        // (in-block mem distance or INF, length, successors, memoized?)
        let mut nodes: Vec<(u64, u64, Vec<SuccRef>, Option<u64>)> = Vec::new();
        let mut roots: Vec<SuccRef> = Vec::new();
        let mut frontier: Vec<(Option<usize>, CodeAddr)> =
            succs.iter().flatten().map(|&s| (None, s)).collect();
        let mut cursor = 0usize;
        while cursor < frontier.len() {
            let (from, entry) = frontier[cursor];
            cursor += 1;
            let slot = if let Some(&j) = index.get(&entry) {
                SuccRef::Known(j)
            } else if entries.len() < DIST_EXPLORE_BLOCKS {
                let j = entries.len();
                entries.push(entry);
                index.insert(entry, j);
                let memo = self.dist_memo.get(&entry).copied();
                let (base, len, succs) = if memo.is_some() {
                    (DIST_INF, 0, Vec::new()) // settled: relaxation skips it
                } else {
                    let nb = self.get_or_build(code, entry);
                    let len = nb.uops.len() as u64;
                    let d0 = nb.dist_mem[0] as u64;
                    let base = if d0 < len { d0 } else { DIST_INF };
                    let succs = match nb.past_end(code_len) {
                        PastEnd::Halt => Vec::new(), // min over nothing: INF
                        PastEnd::Unknown => vec![SuccRef::Open],
                        PastEnd::Static(list) => {
                            let mut v = Vec::new();
                            for &s in list.iter().flatten() {
                                frontier.push((Some(j), s));
                                v.push(SuccRef::Open); // patched below
                            }
                            v
                        }
                    };
                    (base, len, succs)
                };
                nodes.push((base, len, succs, memo));
                SuccRef::Known(j)
            } else {
                SuccRef::Open
            };
            match from {
                None => roots.push(slot),
                Some(parent) => {
                    // Patch the parent's placeholder for this successor.
                    let succs = &mut nodes[parent].2;
                    let open = succs
                        .iter_mut()
                        .find(|s| matches!(s, SuccRef::Open))
                        .expect("one placeholder per discovered successor");
                    *open = slot;
                }
            }
        }
        // Relax to fixpoint: dist(X) = min(in-block mem, len + min succ).
        let mut dist: Vec<u64> = nodes
            .iter()
            .map(|(_, _, _, memo)| memo.unwrap_or(DIST_INF))
            .collect();
        loop {
            let mut changed = false;
            for (k, (base, len, succs, memo)) in nodes.iter().enumerate() {
                if memo.is_some() {
                    continue;
                }
                let past = succs
                    .iter()
                    .map(|s| match s {
                        SuccRef::Known(j) => dist[*j],
                        SuccRef::Open => 0,
                    })
                    .min()
                    .unwrap_or(DIST_INF);
                let v = (*base).min(len.saturating_add(past)).min(DIST_INF);
                if v < dist[k] {
                    dist[k] = v;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for (k, e) in entries.iter().enumerate() {
            self.dist_memo.entry(*e).or_insert(dist[k]);
        }
        roots
            .iter()
            .map(|s| match s {
                SuccRef::Known(j) => dist[*j],
                SuccRef::Open => 0,
            })
            .min()
            .unwrap_or(DIST_INF)
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

    /// `dist_mem` counts uops to the nearest memory-capable position, with
    /// the slot past the block end treated as memory-capable.
    #[test]
    fn dist_mem_annotation_counts_to_nearest_memory_uop() {
        // addi, addi, ld8, addi, br.cloop — one mem op mid-block.
        let code = code_with(|a| {
            a.movi(5, 4);
            a.mov_to_lc(5);
            let top = a.new_label();
            a.bind(top);
            a.addi(6, 6, 1);
            a.addi(7, 7, 2);
            a.ld8(0, 8, 9, 0);
            a.addi(6, 6, 3);
            a.br_cloop(top);
            a.hlt();
        });
        let mut cache = BlockCache::new();
        let head = cache.get_or_build(&code, 0);
        assert!(
            head.uops.last().unwrap().ends_block(),
            "movi..br.cloop in one block"
        );
        let mem_idx = head
            .uops
            .iter()
            .position(|u| u.is_mem())
            .expect("ld8 present");
        assert_eq!(head.mem_free_uops(mem_idx), 0, "mem uop is distance 0");
        // Walking backwards from the mem op: distance rises by one per slot.
        for k in 0..mem_idx {
            assert_eq!(head.mem_free_uops(k) as usize, mem_idx - k);
        }
        // Past the mem op there is no further in-block memory: distance runs
        // out to one past the block end.
        for k in (mem_idx + 1)..head.uops.len() {
            assert_eq!(head.mem_free_uops(k) as usize, head.uops.len() - k);
        }

        // A mem-free block: every distance is the remaining block length.
        let tail = cache.get_or_build(&code, head.end());
        assert!(tail.uops.iter().all(|u| !u.is_mem()));
        for k in 0..tail.uops.len() {
            assert_eq!(tail.mem_free_uops(k) as usize, tail.uops.len() - k);
        }
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
            let s = b.loop_slot(r, 3);
            let ld = (s.kind, s.qp, s.d, s.a, s.imm);
            assert_eq!(ld, (LoopKind::Ldfd, p(16), f(32), 4, 8));
            let s = b.loop_slot(r, 4);
            let fma = (s.kind, s.qp, s.d, s.a, s.b, s.c);
            assert_eq!(fma, (LoopKind::FmaD, p(17), f(40), f(33), 1, 6));
            let mut next = rrb;
            next.rotate();
            let s = b.loop_slot(r, 5);
            let ctop = (s.kind, s.d, s.imm);
            assert_eq!(ctop, (LoopKind::BrCtop, next.map_pr(16), 3));
        }
        // Entered mid-loop (a cursor re-fetched after a patch), the block's
        // back edge leaves it: no loop part.
        let tail = cache.get_or_build(&code, 4);
        assert!(!tail.in_loop(0) && !tail.in_loop(1));
    }
}
