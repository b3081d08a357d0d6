//! `minicc` — the icc-like loop code generator.
//!
//! The Intel icc 9.1 compiler the paper uses emits software-pipelined loops
//! with very aggressive data prefetching: a burst of `lfetch.nt1` before the
//! loop for the first cache lines of the stored array, plus per-iteration
//! `lfetch.nt1` about nine 128-byte lines ahead of the current references
//! (Figure 2). `minicc` regenerates that code shape for our ISA:
//!
//! * [`emit_stream_loop`] — a modulo-scheduled (rotating-register) loop over
//!   unit- or power-of-two-strided `f64` streams, supporting the operation
//!   repertoire the DAXPY and NPB-like kernels need ([`StreamOp`]).
//! * [`emit_prefetch_burst`] — the pre-loop prefetch burst.
//! * [`PrefetchPolicy`] — the -O3 aggressiveness knobs; variants of whole
//!   binaries (prefetch / noprefetch / blanket-`.excl`) are produced by
//!   changing the policy, exactly the three strategies §5.2 compares.
//!
//! Register conventions inside a region body (all non-rotating):
//! scratch pointers `r2`–`r7`, trip counts `r20`–`r23`, prefetch pointers
//! `r27`–`r30`, burst scratch `r31` (`r24`–`r26` are left unused),
//! coefficients in `f6`–`f8`, reduction accumulators `f9`–`f10`, predicates
//! `p6`/`p7` for range checks and `p15` as a comparison sink. Rotating regions (`r32+`, `f32+`, `p16+`) belong to
//! the pipelined loops.

use cobra_isa::insn::{CmpRel, Insn, LfetchHint, Op};
use cobra_isa::{Assembler, CodeAddr};
use serde::{Deserialize, Serialize};

/// Prefetch aggressiveness of generated binaries.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrefetchPolicy {
    /// Emit prefetches at all. `false` produces the *noprefetch* static
    /// variant (what Fig. 3(a) compares against).
    pub enabled: bool,
    /// Prefetch distance in bytes ahead of the current reference.
    /// icc's DAXPY uses 1200 bytes ≈ 9 lines (Fig. 2).
    pub distance_bytes: i64,
    /// Pre-loop burst length in cache lines (Fig. 2 shows 6).
    pub burst_lines: u32,
    /// Emit every prefetch with the `.excl` ownership hint (the blanket
    /// *prefetch.excl* static variant of Fig. 3(b)).
    pub excl: bool,
}

impl PrefetchPolicy {
    /// The baseline: aggressive prefetching as icc -O3 generates it.
    pub fn aggressive() -> Self {
        PrefetchPolicy {
            enabled: true,
            distance_bytes: 1200,
            burst_lines: 6,
            excl: false,
        }
    }

    /// Static noprefetch variant: identical schedule to [`Self::aggressive`]
    /// with every `lfetch` replaced by `nop.m` (§2's modified binaries).
    pub fn none() -> Self {
        PrefetchPolicy {
            enabled: false,
            ..Self::aggressive()
        }
    }

    /// Static blanket-`.excl` variant.
    pub fn aggressive_excl() -> Self {
        PrefetchPolicy {
            excl: true,
            ..Self::aggressive()
        }
    }

    fn hint(&self) -> LfetchHint {
        LfetchHint::Nt1
    }
}

impl Default for PrefetchPolicy {
    fn default() -> Self {
        Self::aggressive()
    }
}

/// One data stream of a pipelined loop.
#[derive(Debug, Clone, Copy)]
pub struct Stream {
    /// Register holding the current element pointer (pre-set by the caller;
    /// advanced by post-increment).
    pub ptr: u8,
    /// Byte stride per loop iteration (8 for unit-stride `f64`).
    pub stride: i32,
}

/// Operation computed per element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamOp {
    /// `y[i] = x1[i]`
    Copy,
    /// `y[i] = a * x1[i]`
    Scale,
    /// `y[i] = x2[i] + a * x1[i]` where `x2` and `y` walk the same array —
    /// the DAXPY of Figure 1 (`x2` is the load pointer, `y` the store
    /// pointer of the updated array).
    Daxpy,
    /// `y[i] = x2[i] + a * x1[i]` over three distinct arrays.
    Triad,
    /// `acc += x1[i] * x2[i]` (reduction into a non-rotating FR).
    Dot,
}

/// Full specification of one pipelined stream loop.
#[derive(Debug, Clone)]
pub struct StreamLoopSpec {
    pub op: StreamOp,
    /// Primary load stream.
    pub x1: Stream,
    /// Secondary load stream (`Daxpy`/`Triad`/`Dot`).
    pub x2: Option<Stream>,
    /// Store stream (absent for `Dot`).
    pub y: Option<Stream>,
    /// Register holding the trip count (consumed).
    pub n: u8,
    /// FR holding the scalar coefficient `a` (e.g. `f6`).
    pub coef: u8,
    /// FR accumulating the `Dot` reduction (e.g. `f9`).
    pub acc: u8,
    /// Streams to prefetch ahead of (each with its *own* pointer register,
    /// pre-set by the caller to `stream_start + policy.distance_bytes`).
    pub prefetch: Vec<Stream>,
    /// Pointer registers whose first lines get the pre-loop burst
    /// (icc bursts the stored array, Fig. 2). Registers are not clobbered.
    pub burst: Vec<u8>,
}

/// Where the interesting instructions of a generated loop live (used by
/// tests and the Figure 2 reproduction; COBRA itself discovers loops from
/// BTB profiles, never from this metadata).
#[derive(Debug, Clone, Default)]
pub struct LoopMeta {
    /// First address of the kernel loop body.
    pub head: CodeAddr,
    /// Address of the `br.ctop` back edge.
    pub back_edge: CodeAddr,
    /// Addresses of every emitted `lfetch` (burst + in-loop).
    pub lfetch_addrs: Vec<CodeAddr>,
}

/// Scratch register used by burst emission.
const R_BURST: u8 = 31;
/// Comparison sink predicate (static region, scribble-safe).
const P_SINK: u8 = 15;

/// Emit the pre-loop prefetch burst: `burst_lines` consecutive lines
/// starting at the pointer in `ptr` (cf. the six `lfetch.nt1` before
/// `.b1_22` in Figure 2). `ptr` itself is preserved.
pub fn emit_prefetch_burst(
    a: &mut Assembler,
    policy: &PrefetchPolicy,
    ptr: u8,
    meta: &mut LoopMeta,
) {
    if policy.burst_lines == 0 {
        return;
    }
    // The noprefetch variant replaces each lfetch with a NOP — "the lfetch
    // instructions are changed to NOP instructions" (§2) — so every variant
    // has an identical schedule and instruction count, isolating the
    // coherence effect.
    if !policy.enabled {
        for _ in 0..=policy.burst_lines {
            a.nop(cobra_isa::Unit::M);
        }
        return;
    }
    a.mov(R_BURST, ptr);
    for k in 0..policy.burst_lines {
        a.comment(format!("prefetch line +{}", k * 128));
        let addr = a.emit(Insn::new(Op::Lfetch {
            base: R_BURST,
            post_inc: 128,
            hint: policy.hint(),
            excl: policy.excl,
        }));
        meta.lfetch_addrs.push(addr);
    }
}

/// Stage at which the compute (or `Copy` store, or `Dot` reduce) happens.
const COMPUTE_STAGE: u8 = 5;
/// Stage at which results are stored (`Scale`/`Daxpy`/`Triad`).
const STORE_STAGE: u8 = 7;

/// Rotating FR chain bases (mirroring Figure 2's `f32`/`f38`/`f44`).
const CHAIN_X1: u8 = 32;
const CHAIN_X2: u8 = 38;
const CHAIN_RES: u8 = 44;

/// Emit a software-pipelined stream loop per `spec`.
///
/// The caller must have set all stream pointer registers and the trip-count
/// register. The loop is skipped entirely when the trip count is `<= 0`.
/// Register rotation carries loaded values from the load stage to the
/// compute stage and results to the store stage; the stage predicates
/// (`p16`, `p21`, `p23`) match the icc schedule of Figure 2.
pub fn emit_stream_loop(
    a: &mut Assembler,
    policy: &PrefetchPolicy,
    spec: &StreamLoopSpec,
) -> LoopMeta {
    let mut meta = LoopMeta::default();
    spec.validate();

    let skip = a.new_label();
    // if (n <= 0) goto skip;
    a.emit(Insn::new(Op::CmpI {
        p1: 6,
        p2: 7,
        rel: CmpRel::Ge,
        imm: 0,
        r3: spec.n,
    }));
    a.br_cond(6, skip);

    for &ptr in &spec.burst {
        emit_prefetch_burst(a, policy, ptr, &mut meta);
    }

    // LC = n - 1; EC = pipeline depth.
    let ec = match spec.op {
        StreamOp::Copy | StreamOp::Dot => COMPUTE_STAGE + 1,
        StreamOp::Scale | StreamOp::Daxpy | StreamOp::Triad => STORE_STAGE + 1,
    };
    a.emit(Insn::new(Op::Clrrrb));
    a.addi(spec.n, spec.n, -1);
    a.mov_to_lc(spec.n);
    a.movi(R_BURST, ec as i64);
    a.mov_to_ec(R_BURST);
    // Prime the stage predicates: p16 = 1, p17..p(15+ec) = 0.
    a.cmp(16, 17, CmpRel::Eq, 0, 0);
    for stage in 2..ec {
        a.emit(Insn::new(Op::Cmp {
            p1: 16 + stage,
            p2: P_SINK,
            rel: CmpRel::Ne,
            r2: 0,
            r3: 0,
        }));
    }

    let top = a.new_label();
    a.bind(top);
    meta.head = a.here();

    // ---- load stage (p16) ----
    a.comment("load x1[i]");
    a.ldfd(16, CHAIN_X1, spec.x1.ptr, spec.x1.stride);
    if let Some(x2) = spec.x2 {
        a.comment("load x2[i]");
        a.ldfd(16, CHAIN_X2, x2.ptr, x2.stride);
    }
    if policy.enabled {
        for pf in &spec.prefetch {
            a.comment(format!("prefetch +{} bytes ahead", policy.distance_bytes));
            let addr = a.emit(Insn::pred(
                16,
                Op::Lfetch {
                    base: pf.ptr,
                    post_inc: pf.stride,
                    hint: policy.hint(),
                    excl: policy.excl,
                },
            ));
            meta.lfetch_addrs.push(addr);
        }
    } else {
        // NOP-for-lfetch substitution: keep the schedule identical (§2).
        for _ in &spec.prefetch {
            a.nop(cobra_isa::Unit::M);
        }
    }

    // ---- compute stage ----
    let cp = 16 + COMPUTE_STAGE; // p21
    let x1_c = CHAIN_X1 + COMPUTE_STAGE; // f37
    let x2_c = CHAIN_X2 + COMPUTE_STAGE; // f43
    match spec.op {
        StreamOp::Copy => {
            let y = spec.y.expect("validated");
            a.comment("store y[i] = x1[i]");
            a.stfd(cp, x1_c, y.ptr, y.stride);
        }
        StreamOp::Scale => {
            a.comment("y[i] = a*x1[i]");
            a.fma_d(cp, CHAIN_RES, spec.coef, x1_c, 0);
        }
        StreamOp::Daxpy | StreamOp::Triad => {
            a.comment("x2[i] + a*x1[i]");
            a.fma_d(cp, CHAIN_RES, spec.coef, x1_c, x2_c);
        }
        StreamOp::Dot => {
            a.comment("acc += x1[i]*x2[i]");
            a.emit(Insn::pred(
                cp,
                Op::FmaD {
                    dest: spec.acc,
                    f1: x1_c,
                    f2: x2_c,
                    f3: spec.acc,
                },
            ));
        }
    }

    // ---- store stage ----
    if !matches!(spec.op, StreamOp::Copy | StreamOp::Dot) {
        let sp = 16 + STORE_STAGE; // p23
        let res_s = CHAIN_RES + (STORE_STAGE - COMPUTE_STAGE); // f46
        let y = spec.y.expect("validated");
        a.comment("store y[i]");
        a.stfd(sp, res_s, y.ptr, y.stride);
    }

    meta.back_edge = a.br_ctop(top);
    a.bind(skip);
    meta
}

impl StreamLoopSpec {
    fn validate(&self) {
        match self.op {
            StreamOp::Copy | StreamOp::Scale => {
                assert!(self.y.is_some(), "{:?} needs a store stream", self.op);
                assert!(self.x2.is_none(), "{:?} takes one load stream", self.op);
            }
            StreamOp::Daxpy | StreamOp::Triad => {
                assert!(self.y.is_some() && self.x2.is_some());
            }
            StreamOp::Dot => {
                assert!(self.x2.is_some() && self.y.is_none());
            }
        }
        for s in [Some(self.x1), self.x2].into_iter().flatten() {
            assert!(s.ptr < 32, "stream pointers must be non-rotating");
        }
        for pf in &self.prefetch {
            assert!(pf.ptr < 32, "prefetch pointers must be non-rotating");
        }
    }
}

/// Emit pointer setup: `dest = base + ((lo_reg + offset_elems) << shift)`.
/// `base` is a register holding an array base address; `shift` is
/// log2(element size in bytes) times the per-index stride.
pub fn emit_ptr(a: &mut Assembler, dest: u8, base: u8, lo_reg: u8, offset_elems: i32, shift: u8) {
    a.addi(dest, lo_reg, offset_elems);
    a.emit(Insn::new(Op::ShlI {
        dest,
        src: dest,
        count: shift,
    }));
    a.emit(Insn::new(Op::Add {
        dest,
        r2: dest,
        r3: base,
    }));
}

/// Emit trip-count setup: `dest = hi_reg - lo_reg`.
pub fn emit_trip_count(a: &mut Assembler, dest: u8, lo_reg: u8, hi_reg: u8) {
    a.emit(Insn::new(Op::Sub {
        dest,
        r2: hi_reg,
        r3: lo_reg,
    }));
}

/// Emit `dest_fr = f64::from_bits(bits_reg)` — how scalar coefficients
/// arrive in region bodies (passed as raw bits in integer argument
/// registers).
pub fn emit_coef(a: &mut Assembler, dest_fr: u8, bits_reg: u8) {
    a.emit(Insn::new(Op::SetfD {
        dest: dest_fr,
        src: bits_reg,
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_machine::{Machine, MachineConfig};
    use cobra_omp::{abi, NullHook, OmpRuntime, Team};

    const X: i64 = 0x10000;
    const Y: i64 = 0x20000;
    const Z: i64 = 0x30000;
    const OUT: i64 = 0x40000;

    /// Build a region body running `op` over the chunk, with arrays
    /// x (r12), y (r13), z (r14), coef bits (r15), partial-out (r16).
    fn body(op: StreamOp, policy: &PrefetchPolicy) -> (cobra_isa::CodeImage, LoopMeta) {
        let mut a = Assembler::new();
        a.symbol("body");
        emit_coef(&mut a, 6, 15);
        // pointers
        emit_ptr(&mut a, 2, abi::R_ARG0, abi::R_LO, 0, 3); // x1 = x
        emit_ptr(&mut a, 3, abi::R_ARG0 + 1, abi::R_LO, 0, 3); // y load
        emit_ptr(&mut a, 4, abi::R_ARG0 + 1, abi::R_LO, 0, 3); // y store
        emit_ptr(&mut a, 5, abi::R_ARG0 + 2, abi::R_LO, 0, 3); // z
        emit_trip_count(&mut a, 20, abi::R_LO, abi::R_HI);
        // prefetch pointers at distance
        a.addi(27, 2, 1200);
        a.addi(28, 4, 1200);
        // zero the accumulator
        a.emit(Insn::new(Op::FmaD {
            dest: 9,
            f1: 0,
            f2: 0,
            f3: 0,
        }));
        let spec = match op {
            StreamOp::Copy => StreamLoopSpec {
                op,
                x1: Stream { ptr: 2, stride: 8 },
                x2: None,
                y: Some(Stream { ptr: 4, stride: 8 }),
                n: 20,
                coef: 6,
                acc: 9,
                prefetch: vec![Stream { ptr: 27, stride: 8 }, Stream { ptr: 28, stride: 8 }],
                burst: vec![4],
            },
            StreamOp::Scale => StreamLoopSpec {
                op,
                x1: Stream { ptr: 2, stride: 8 },
                x2: None,
                y: Some(Stream { ptr: 4, stride: 8 }),
                n: 20,
                coef: 6,
                acc: 9,
                prefetch: vec![Stream { ptr: 27, stride: 8 }],
                burst: vec![4],
            },
            StreamOp::Daxpy => StreamLoopSpec {
                op,
                x1: Stream { ptr: 2, stride: 8 },
                x2: Some(Stream { ptr: 3, stride: 8 }),
                y: Some(Stream { ptr: 4, stride: 8 }),
                n: 20,
                coef: 6,
                acc: 9,
                prefetch: vec![Stream { ptr: 27, stride: 8 }, Stream { ptr: 28, stride: 8 }],
                burst: vec![4],
            },
            StreamOp::Triad => StreamLoopSpec {
                op,
                x1: Stream { ptr: 2, stride: 8 },
                x2: Some(Stream { ptr: 5, stride: 8 }),
                y: Some(Stream { ptr: 4, stride: 8 }),
                n: 20,
                coef: 6,
                acc: 9,
                prefetch: vec![Stream { ptr: 27, stride: 8 }],
                burst: vec![4],
            },
            StreamOp::Dot => StreamLoopSpec {
                op,
                x1: Stream { ptr: 2, stride: 8 },
                x2: Some(Stream { ptr: 3, stride: 8 }),
                y: None,
                n: 20,
                coef: 6,
                acc: 9,
                prefetch: vec![Stream { ptr: 27, stride: 8 }],
                burst: vec![],
            },
        };
        let meta = emit_stream_loop(&mut a, policy, &spec);
        // Dot: out[tid] = acc
        if op == StreamOp::Dot {
            emit_ptr(&mut a, 7, abi::R_ARG0 + 4, abi::R_TID, 0, 3);
            a.stfd(0, 9, 7, 0);
        }
        a.hlt();
        (a.finish(), meta)
    }

    fn run(
        op: StreamOp,
        policy: &PrefetchPolicy,
        n: usize,
        threads: usize,
        coef: f64,
    ) -> (Machine, Vec<f64>, Vec<f64>, Vec<f64>) {
        let (image, _) = body(op, policy);
        let mut m = Machine::new(MachineConfig::smp4(), image);
        let x: Vec<f64> = (0..n).map(|i| (i % 13) as f64 + 0.5).collect();
        let y: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 2.0).collect();
        let z: Vec<f64> = (0..n).map(|i| (i % 5) as f64 * 0.25).collect();
        m.shared.mem.write_f64_slice(X as u64, &x);
        m.shared.mem.write_f64_slice(Y as u64, &y);
        m.shared.mem.write_f64_slice(Z as u64, &z);
        let rt = OmpRuntime::default();
        rt.parallel_for(
            &mut m,
            Team::new(threads),
            0,
            0,
            n as i64,
            &[X, Y, Z, coef.to_bits() as i64, OUT],
            &mut NullHook,
        );
        (m, x, y, z)
    }

    #[test]
    fn daxpy_computes_correctly_across_threads() {
        for threads in [1, 2, 4] {
            let (m, x, y, _) = run(
                StreamOp::Daxpy,
                &PrefetchPolicy::aggressive(),
                333,
                threads,
                3.0,
            );
            for i in 0..333 {
                let want = y[i] + 3.0 * x[i];
                let got = m.shared.mem.read_f64((Y + 8 * i as i64) as u64);
                assert_eq!(got, want, "i={i} threads={threads}");
            }
        }
    }

    #[test]
    fn daxpy_results_identical_under_all_policies() {
        // The paper's premise: prefetch variants never change semantics.
        for policy in [
            PrefetchPolicy::aggressive(),
            PrefetchPolicy::none(),
            PrefetchPolicy::aggressive_excl(),
        ] {
            let (m, x, y, _) = run(StreamOp::Daxpy, &policy, 200, 4, -1.5);
            for i in 0..200 {
                let want = y[i] - 1.5 * x[i];
                assert_eq!(m.shared.mem.read_f64((Y + 8 * i as i64) as u64), want);
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // i addresses memory and indexes x
    fn copy_scale_triad_semantics() {
        let (m, x, ..) = run(StreamOp::Copy, &PrefetchPolicy::aggressive(), 100, 2, 0.0);
        for i in 0..100 {
            assert_eq!(m.shared.mem.read_f64((Y + 8 * i as i64) as u64), x[i]);
        }
        let (m, x, ..) = run(StreamOp::Scale, &PrefetchPolicy::aggressive(), 100, 3, 2.5);
        for i in 0..100 {
            assert_eq!(m.shared.mem.read_f64((Y + 8 * i as i64) as u64), 2.5 * x[i]);
        }
        let (m, x, _, z) = run(StreamOp::Triad, &PrefetchPolicy::aggressive(), 100, 4, 4.0);
        for i in 0..100 {
            assert_eq!(
                m.shared.mem.read_f64((Y + 8 * i as i64) as u64),
                z[i] + 4.0 * x[i]
            );
        }
    }

    #[test]
    fn dot_partials_sum_to_inner_product() {
        let n = 257;
        let (m, x, y, _) = run(StreamOp::Dot, &PrefetchPolicy::aggressive(), n, 4, 0.0);
        let partials = m.shared.mem.read_f64_slice(OUT as u64, 4);
        let got: f64 = partials.iter().sum();
        // Mirror the chunked summation order for exactness.
        let team = Team::new(4);
        let want: f64 = team
            .static_chunks(0, n as i64)
            .iter()
            .map(|&(lo, hi)| (lo..hi).map(|i| x[i as usize] * y[i as usize]).sum::<f64>())
            .sum();
        assert!((got - want).abs() < 1e-9, "{got} vs {want}");
    }

    #[test]
    fn empty_chunks_are_skipped() {
        // 2 elements across 4 threads: threads 2,3 run zero iterations.
        let (m, x, y, _) = run(StreamOp::Daxpy, &PrefetchPolicy::aggressive(), 2, 4, 1.0);
        for i in 0..2 {
            assert_eq!(
                m.shared.mem.read_f64((Y + 8 * i as i64) as u64),
                y[i] + x[i]
            );
        }
    }

    #[test]
    fn noprefetch_policy_emits_zero_lfetch() {
        let (image, meta) = body(StreamOp::Daxpy, &PrefetchPolicy::none());
        assert!(meta.lfetch_addrs.is_empty());
        assert_eq!(image.count_matching(|i| i.is_lfetch()), 0);
    }

    #[test]
    fn aggressive_policy_emits_burst_plus_loop_prefetches() {
        let (image, meta) = body(StreamOp::Daxpy, &PrefetchPolicy::aggressive());
        // 6 burst + 2 in-loop.
        assert_eq!(meta.lfetch_addrs.len(), 8);
        assert_eq!(image.count_matching(|i| i.is_lfetch()), 8);
        // All are .nt1 without .excl.
        for &addr in &meta.lfetch_addrs {
            match image.insn(addr).unwrap().op {
                Op::Lfetch { hint, excl, .. } => {
                    assert_eq!(hint, LfetchHint::Nt1);
                    assert!(!excl);
                }
                other => panic!("not an lfetch at {addr}: {other:?}"),
            }
        }
    }

    #[test]
    fn excl_policy_marks_every_prefetch() {
        let (image, meta) = body(StreamOp::Daxpy, &PrefetchPolicy::aggressive_excl());
        for &addr in &meta.lfetch_addrs {
            match image.insn(addr).unwrap().op {
                Op::Lfetch { excl, .. } => assert!(excl),
                other => panic!("not an lfetch: {other:?}"),
            }
        }
    }

    #[test]
    fn loops_use_ctop_back_edges() {
        let (image, meta) = body(StreamOp::Daxpy, &PrefetchPolicy::aggressive());
        match image.insn(meta.back_edge).unwrap().op {
            Op::BrCtop { target } => assert_eq!(target, meta.head),
            other => panic!("back edge is {other:?}"),
        }
    }

    #[test]
    fn prefetching_reduces_cycles_on_cold_single_thread_streams() {
        // 2 MB working set, one thread: the regime where prefetching is pure
        // win (Fig. 3a rightmost group).
        let n = 65_536; // 512 KB per array
        let cycles = |policy: PrefetchPolicy| {
            let (image, _) = body(StreamOp::Daxpy, &policy);
            let mut m = Machine::new(MachineConfig::smp4(), image);
            m.shared.mem.write_f64_slice(X as u64, &vec![1.0; n]);
            m.shared.mem.write_f64_slice(Y as u64, &vec![2.0; n]);
            let rt = OmpRuntime::default();
            let s = rt.parallel_for(
                &mut m,
                Team::new(1),
                0,
                0,
                n as i64,
                &[X, Y, Z, 1.0f64.to_bits() as i64, OUT],
                &mut NullHook,
            );
            s.cycles
        };
        let with = cycles(PrefetchPolicy::aggressive());
        let without = cycles(PrefetchPolicy::none());
        assert!(
            (without as f64) > (with as f64) * 1.3,
            "prefetch must help cold streams: with={with} without={without}"
        );
    }
}
