//! Typed instruction model.
//!
//! Every instruction carries a qualifying predicate `qp`: the instruction only
//! takes effect when predicate register `qp` is true (`p0` is hard-wired true,
//! so `qp == 0` means "always execute"). This is the Itanium predication model
//! that software-pipelined loops rely on — in the paper's Figure 2 the loads
//! and stores of the DAXPY kernel are guarded by `(p16)`/`(p21)`/`(p23)` so
//! that the pipeline fills and drains correctly.

use serde::{Deserialize, Serialize};

use crate::regs::{ROT_PR_BASE, ROT_PR_SIZE};
use crate::CodeAddr;

/// Execution unit an instruction occupies inside a bundle.
///
/// `M` = memory, `I` = integer, `F` = floating point, `B` = branch. The
/// assembler packs slots into bundles and the disassembler prints the
/// icc-style `{ .mii ... }` template headers from these kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Unit {
    M,
    I,
    F,
    B,
}

/// Locality hint on an `lfetch` data-prefetch instruction.
///
/// On Itanium 2, `lfetch.nt1` (the hint icc emits for array prefetching, see
/// Figure 2 of the paper) allocates the line in L2 but not L1; `nt2` targets
/// L3 and `nta` is non-temporal-all-levels. The hint does not affect
/// correctness — `lfetch` is non-binding — only where the line is placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum LfetchHint {
    /// No hint: allocate in all levels.
    #[default]
    None,
    /// `.nt1`: bypass L1, allocate in L2/L3.
    Nt1,
    /// `.nt2`: bypass L1/L2, allocate in L3.
    Nt2,
    /// `.nta`: non-temporal in all levels (allocate in L2/L3, mark for early
    /// eviction; the timing model treats it like `.nt2`).
    Nta,
}

/// Comparison relation for `cmp`/`fcmp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpRel {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// Unsigned less-than (integer compares only).
    Ltu,
    /// Unsigned greater-or-equal (integer compares only).
    Geu,
}

impl CmpRel {
    /// Evaluate the relation on signed integers (`Ltu`/`Geu` reinterpret bits
    /// as unsigned).
    #[inline]
    pub fn eval_i64(self, a: i64, b: i64) -> bool {
        match self {
            CmpRel::Eq => a == b,
            CmpRel::Ne => a != b,
            CmpRel::Lt => a < b,
            CmpRel::Le => a <= b,
            CmpRel::Gt => a > b,
            CmpRel::Ge => a >= b,
            CmpRel::Ltu => (a as u64) < (b as u64),
            CmpRel::Geu => (a as u64) >= (b as u64),
        }
    }

    /// Evaluate the relation on floats. `Ltu`/`Geu` are not defined for FP
    /// compares and evaluate like their signed counterparts.
    #[inline]
    pub fn eval_f64(self, a: f64, b: f64) -> bool {
        match self {
            CmpRel::Eq => a == b,
            CmpRel::Ne => a != b,
            CmpRel::Lt | CmpRel::Ltu => a < b,
            CmpRel::Le => a <= b,
            CmpRel::Gt => a > b,
            CmpRel::Ge | CmpRel::Geu => a >= b,
        }
    }

    /// Mnemonic completer (`eq`, `ne`, `lt`, ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpRel::Eq => "eq",
            CmpRel::Ne => "ne",
            CmpRel::Lt => "lt",
            CmpRel::Le => "le",
            CmpRel::Gt => "gt",
            CmpRel::Ge => "ge",
            CmpRel::Ltu => "ltu",
            CmpRel::Geu => "geu",
        }
    }
}

/// Branch flavour (used by [`Op::branch_kind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BrKind {
    /// `br.cond` — taken when the qualifying predicate is true.
    Cond,
    /// `br.ctop` — modulo-scheduled counted-loop branch (rotates registers).
    Ctop,
    /// `br.cloop` — counted loop on `LC` without register rotation.
    Cloop,
    /// `br.wtop` — modulo-scheduled while-loop branch (rotates registers).
    Wtop,
    /// `br.call` — saves the return address in `b0`.
    Call,
    /// `br.ret` — returns through `b0`.
    Ret,
}

/// Operation payload of an instruction (see [`Insn`]).
///
/// Register operand fields hold *virtual* register numbers; the core maps them
/// through the rotating-register bases at execution time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Op {
    // ---- memory ----
    /// `ld8 rD=[rB],imm` — 8-byte integer load with optional post-increment.
    /// `bias` requests the line in Exclusive state (the `.bias` hint of §4).
    Ld8 {
        dest: u8,
        base: u8,
        post_inc: i32,
        bias: bool,
    },
    /// `st8 [rB]=rS,imm` — 8-byte integer store.
    St8 { src: u8, base: u8, post_inc: i32 },
    /// `ldfd fD=[rB],imm` — FP double load (bypasses L1 on Itanium 2).
    Ldfd { dest: u8, base: u8, post_inc: i32 },
    /// `stfd [rB]=fS,imm` — FP double store.
    Stfd { src: u8, base: u8, post_inc: i32 },
    /// `lfetch[.hint][.excl] [rB],imm` — non-binding data prefetch. The
    /// `.excl` completer requests the line in Exclusive rather than Shared
    /// state; the COBRA optimizer toggles `excl` and rewrites whole `lfetch`es
    /// to `nop.m` at runtime.
    Lfetch {
        base: u8,
        post_inc: i32,
        hint: LfetchHint,
        excl: bool,
    },
    /// `fetchadd8 rD=[rB],imm` — atomic fetch-and-add (acquire semantics).
    FetchAdd8 { dest: u8, base: u8, inc: i32 },
    /// `cmpxchg8 rD=[rB],rN ? rC` — atomic compare-exchange: if `[rB] == rC`
    /// store `rN`; `rD` receives the old value. (The architectural `ar.ccv`
    /// comparand register is modelled as the explicit operand `cmp`.)
    Cmpxchg8 {
        dest: u8,
        base: u8,
        new: u8,
        cmp: u8,
    },

    // ---- floating point ----
    /// `fma.d fD=f1,f2,f3` — fused multiply-add: `fD = f1*f2 + f3`.
    FmaD { dest: u8, f1: u8, f2: u8, f3: u8 },
    /// `fms.d fD=f1,f2,f3` — fused multiply-subtract: `fD = f1*f2 - f3`.
    FmsD { dest: u8, f1: u8, f2: u8, f3: u8 },
    /// `fadd.d fD=f1,f2`.
    FaddD { dest: u8, f1: u8, f2: u8 },
    /// `fsub.d fD=f1,f2`.
    FsubD { dest: u8, f1: u8, f2: u8 },
    /// `fmul.d fD=f1,f2`.
    FmulD { dest: u8, f1: u8, f2: u8 },
    /// `fdiv.d fD=f1,f2` — modelled as a single long-latency instruction
    /// (real Itanium expands division into an frcpa + Newton iteration
    /// sequence; see DESIGN.md §6).
    FdivD { dest: u8, f1: u8, f2: u8 },
    /// `fsqrt.d fD=f1` — single long-latency instruction (same caveat).
    FsqrtD { dest: u8, f1: u8 },
    /// `fabs fD=f1`.
    FabsD { dest: u8, f1: u8 },
    /// `fneg fD=f1`.
    FnegD { dest: u8, f1: u8 },
    /// `fcmp.rel pA,pB=f1,f2` — sets `pA` to the comparison result and `pB`
    /// to its complement.
    FcmpD {
        p1: u8,
        p2: u8,
        rel: CmpRel,
        f1: u8,
        f2: u8,
    },
    /// `setf.d fD=rS` — move GR bits into an FR (bit pattern reinterpreted as
    /// an IEEE double).
    SetfD { dest: u8, src: u8 },
    /// `getf.d rD=fS` — move FR bits into a GR.
    GetfD { dest: u8, src: u8 },
    /// `setf.sig fD=rS` — move GR value into an FR significand (integer in FR).
    SetfSig { dest: u8, src: u8 },
    /// `getf.sig rD=fS` — move an FR significand integer into a GR.
    GetfSig { dest: u8, src: u8 },
    /// `fcvt.xf fD=fS` — convert the signed integer in `fS`'s significand to
    /// a double.
    FcvtXf { dest: u8, src: u8 },
    /// `fcvt.fx.trunc fD=fS` — truncate the double in `fS` to a signed
    /// integer significand.
    FcvtFxTrunc { dest: u8, src: u8 },

    // ---- integer ----
    /// `add rD=r2,r3`.
    Add { dest: u8, r2: u8, r3: u8 },
    /// `sub rD=r2,r3`.
    Sub { dest: u8, r2: u8, r3: u8 },
    /// `adds rD=imm,rS` — add a (sign-extended) immediate.
    AddI { dest: u8, src: u8, imm: i32 },
    /// `xmpy.l rD=r2,r3` — 64-bit integer multiply (low half).
    Mul { dest: u8, r2: u8, r3: u8 },
    /// `shl rD=rS,count`.
    ShlI { dest: u8, src: u8, count: u8 },
    /// `shr.u rD=rS,count`.
    ShrI { dest: u8, src: u8, count: u8 },
    /// `shr rD=rS,count` (arithmetic).
    SarI { dest: u8, src: u8, count: u8 },
    /// `and rD=r2,r3`.
    And { dest: u8, r2: u8, r3: u8 },
    /// `or rD=r2,r3`.
    Or { dest: u8, r2: u8, r3: u8 },
    /// `xor rD=r2,r3`.
    Xor { dest: u8, r2: u8, r3: u8 },
    /// `and rD=imm,rS`.
    AndI { dest: u8, src: u8, imm: i32 },
    /// `movl rD=imm` — load a 43-bit sign-extended immediate (the model's
    /// counterpart of the two-slot `movl`; 43 bits cover every code, data and
    /// loop-bound constant the workloads use).
    MovI { dest: u8, imm: i64 },
    /// `cmp.rel pA,pB=r2,r3`.
    Cmp {
        p1: u8,
        p2: u8,
        rel: CmpRel,
        r2: u8,
        r3: u8,
    },
    /// `cmp.rel pA,pB=imm,r3`.
    CmpI {
        p1: u8,
        p2: u8,
        rel: CmpRel,
        imm: i32,
        r3: u8,
    },

    // ---- branches ----
    /// `br.cond target` — taken when the qualifying predicate holds.
    BrCond { target: CodeAddr },
    /// `br.ctop target` — software-pipelined counted-loop back edge: while
    /// `LC > 0` it decrements `LC`, writes `p63`=1 (visible as `p16` after
    /// rotation), rotates, and branches; during the epilogue (`EC > 1`) it
    /// writes `p63`=0, decrements `EC`, rotates and branches; otherwise it
    /// falls through.
    BrCtop { target: CodeAddr },
    /// `br.cloop target` — counted loop on `LC` without rotation.
    BrCloop { target: CodeAddr },
    /// `br.wtop target` — software-pipelined while-loop back edge (branches
    /// on the qualifying predicate, rotating on the taken path).
    BrWtop { target: CodeAddr },
    /// `br.call b0=target`.
    BrCall { target: CodeAddr },
    /// `br.ret b0`.
    BrRet,

    // ---- moves to/from application registers ----
    /// `mov ar.lc=rS`.
    MovToLc { src: u8 },
    /// `mov ar.ec=rS`.
    MovToEc { src: u8 },
    /// `mov rD=ar.lc`.
    MovFromLc { dest: u8 },
    /// `mov rD=ar.ec`.
    MovFromEc { dest: u8 },
    /// `mov b0=rS`.
    MovToB0 { src: u8 },
    /// `mov rD=b0`.
    MovFromB0 { dest: u8 },
    /// `clrrrb` — clear the rotating register bases.
    Clrrrb,

    // ---- misc ----
    /// `nop.{m,i,f,b}` — the COBRA `noprefetch` optimization overwrites
    /// `lfetch` (an M-unit instruction) with `nop.m`, exactly as in §5.2.
    Nop { unit: Unit },
    /// `hlt` — terminate the executing simulated thread (models the return
    /// from an outlined parallel-region body into the runtime).
    Hlt,
}

/// One architectural storage location an [`Op`] can name as an operand.
/// Register numbers are *virtual* (pre-rotation), as in the operand fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reg {
    /// General (integer) register `r<n>`.
    Gr(u8),
    /// Floating-point register `f<n>`.
    Fr(u8),
    /// Predicate register `p<n>`.
    Pr(u8),
    /// Loop count application register `ar.lc`.
    Lc,
    /// Epilogue count application register `ar.ec`.
    Ec,
    /// Return branch register `b0`.
    B0,
}

/// What one [`Op`] writes and reads ([`Op::operands`]): two fixed-capacity
/// lists, so the CFG walks and the block builder consult them without
/// allocating.
#[derive(Debug, Clone, Copy)]
pub struct Operands {
    defs: ([Reg; 3], u8),
    uses: ([Reg; 3], u8),
}

impl Operands {
    /// Registers the operation writes. A nullified instruction (false
    /// qualifying predicate) writes nothing at runtime; the static set is
    /// the upper bound, which is what a conservative safety check wants.
    pub fn defs(&self) -> &[Reg] {
        &self.defs.0[..self.defs.1 as usize]
    }

    /// Registers the operation reads, the base of every post-increment form
    /// included (read-modify-write). The qualifying predicate is a property
    /// of the [`Insn`], not of the operation, and is not listed.
    pub fn uses(&self) -> &[Reg] {
        &self.uses.0[..self.uses.1 as usize]
    }
}

/// One instruction slot: a qualifying predicate plus an operation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Insn {
    /// Qualifying predicate register (0 = always execute).
    pub qp: u8,
    pub op: Op,
}

impl Insn {
    /// Unpredicated instruction.
    #[inline]
    pub fn new(op: Op) -> Self {
        Insn { qp: 0, op }
    }

    /// Instruction guarded by predicate register `qp`.
    #[inline]
    pub fn pred(qp: u8, op: Op) -> Self {
        Insn { qp, op }
    }

    /// Execution unit this instruction occupies.
    pub fn unit(&self) -> Unit {
        self.op.unit()
    }

    /// Is this any branch flavour?
    #[inline]
    pub fn is_branch(&self) -> bool {
        self.op.branch_kind().is_some()
    }

    /// Is this a data prefetch?
    #[inline]
    pub fn is_lfetch(&self) -> bool {
        matches!(self.op, Op::Lfetch { .. })
    }
}

impl Op {
    /// What this operation writes and reads: the one operand table. The
    /// block builder derives a micro-op's scoreboard sources from it and the
    /// verifier its liveness facts; `cobra-machine`'s `Core::sources_ready`
    /// and `Core::execute` are the hand-written oracle it is tested against.
    /// Memory is not a location here: no consumer needs may-alias reasoning.
    /// Rotation (`br.ctop`, `br.wtop`, `clrrrb`) renames registers and
    /// writes none, so it does not appear either.
    pub fn operands(&self) -> Operands {
        use Op::*;
        use Reg::*;
        fn list(regs: &[Reg]) -> ([Reg; 3], u8) {
            let mut l = [Lc; 3];
            l[..regs.len()].copy_from_slice(regs);
            (l, regs.len() as u8)
        }
        // A post-incrementing access also writes its base.
        let mem = |dest: &[Reg], base: u8, post_inc: i32| {
            let (mut l, mut n) = list(dest);
            if post_inc != 0 {
                l[n as usize] = Gr(base);
                n += 1;
            }
            (l, n)
        };
        // A taken rotating branch writes the stage predicate that reads as
        // `p16` after the rotation: `p63` in the names of the issuing slot.
        const STAGE: Reg = Pr(ROT_PR_BASE + ROT_PR_SIZE - 1);
        let (defs, uses) = match *self {
            Ld8 {
                dest,
                base,
                post_inc,
                ..
            } => (mem(&[Gr(dest)], base, post_inc), list(&[Gr(base)])),
            Ldfd {
                dest,
                base,
                post_inc,
            } => (mem(&[Fr(dest)], base, post_inc), list(&[Gr(base)])),
            St8 {
                src,
                base,
                post_inc,
            } => (mem(&[], base, post_inc), list(&[Gr(src), Gr(base)])),
            Stfd {
                src,
                base,
                post_inc,
            } => (mem(&[], base, post_inc), list(&[Fr(src), Gr(base)])),
            Lfetch { base, post_inc, .. } => (mem(&[], base, post_inc), list(&[Gr(base)])),
            // `inc` on fetchadd is an immediate, not a register.
            FetchAdd8 { dest, base, .. } => (list(&[Gr(dest)]), list(&[Gr(base)])),
            Cmpxchg8 {
                dest,
                base,
                new,
                cmp,
            } => (list(&[Gr(dest)]), list(&[Gr(base), Gr(new), Gr(cmp)])),
            FmaD { dest, f1, f2, f3 } | FmsD { dest, f1, f2, f3 } => {
                (list(&[Fr(dest)]), list(&[Fr(f1), Fr(f2), Fr(f3)]))
            }
            FaddD { dest, f1, f2 }
            | FsubD { dest, f1, f2 }
            | FmulD { dest, f1, f2 }
            | FdivD { dest, f1, f2 } => (list(&[Fr(dest)]), list(&[Fr(f1), Fr(f2)])),
            FsqrtD { dest, f1 } | FabsD { dest, f1 } | FnegD { dest, f1 } => {
                (list(&[Fr(dest)]), list(&[Fr(f1)]))
            }
            FcmpD { p1, p2, f1, f2, .. } => (list(&[Pr(p1), Pr(p2)]), list(&[Fr(f1), Fr(f2)])),
            SetfD { dest, src } | SetfSig { dest, src } => (list(&[Fr(dest)]), list(&[Gr(src)])),
            GetfD { dest, src } | GetfSig { dest, src } => (list(&[Gr(dest)]), list(&[Fr(src)])),
            FcvtXf { dest, src } | FcvtFxTrunc { dest, src } => {
                (list(&[Fr(dest)]), list(&[Fr(src)]))
            }
            Add { dest, r2, r3 }
            | Sub { dest, r2, r3 }
            | Mul { dest, r2, r3 }
            | And { dest, r2, r3 }
            | Or { dest, r2, r3 }
            | Xor { dest, r2, r3 } => (list(&[Gr(dest)]), list(&[Gr(r2), Gr(r3)])),
            AddI { dest, src, .. }
            | AndI { dest, src, .. }
            | ShlI { dest, src, .. }
            | ShrI { dest, src, .. }
            | SarI { dest, src, .. } => (list(&[Gr(dest)]), list(&[Gr(src)])),
            MovI { dest, .. } => (list(&[Gr(dest)]), list(&[])),
            Cmp { p1, p2, r2, r3, .. } => (list(&[Pr(p1), Pr(p2)]), list(&[Gr(r2), Gr(r3)])),
            CmpI { p1, p2, r3, .. } => (list(&[Pr(p1), Pr(p2)]), list(&[Gr(r3)])),
            BrCtop { .. } => (list(&[Lc, Ec, STAGE]), list(&[Lc, Ec])),
            BrCloop { .. } => (list(&[Lc]), list(&[Lc])),
            BrWtop { .. } => (list(&[STAGE]), list(&[])),
            BrCall { .. } => (list(&[B0]), list(&[])),
            BrRet => (list(&[]), list(&[B0])),
            MovToLc { src } => (list(&[Lc]), list(&[Gr(src)])),
            MovToEc { src } => (list(&[Ec]), list(&[Gr(src)])),
            MovToB0 { src } => (list(&[B0]), list(&[Gr(src)])),
            MovFromLc { dest } => (list(&[Gr(dest)]), list(&[Lc])),
            MovFromEc { dest } => (list(&[Gr(dest)]), list(&[Ec])),
            MovFromB0 { dest } => (list(&[Gr(dest)]), list(&[B0])),
            BrCond { .. } | Clrrrb | Nop { .. } | Hlt => (list(&[]), list(&[])),
        };
        Operands { defs, uses }
    }

    /// Branch flavour, if this is a branch.
    pub fn branch_kind(&self) -> Option<BrKind> {
        match self {
            Op::BrCond { .. } => Some(BrKind::Cond),
            Op::BrCtop { .. } => Some(BrKind::Ctop),
            Op::BrCloop { .. } => Some(BrKind::Cloop),
            Op::BrWtop { .. } => Some(BrKind::Wtop),
            Op::BrCall { .. } => Some(BrKind::Call),
            Op::BrRet => Some(BrKind::Ret),
            _ => None,
        }
    }

    /// Static branch target, if any (`br.ret` has none).
    pub fn branch_target(&self) -> Option<CodeAddr> {
        match *self {
            Op::BrCond { target }
            | Op::BrCtop { target }
            | Op::BrCloop { target }
            | Op::BrWtop { target }
            | Op::BrCall { target } => Some(target),
            _ => None,
        }
    }

    /// Same operation with the branch target replaced (used when relocating
    /// loop bodies into the trace cache). Returns `None` when the operation
    /// has no static target.
    pub fn with_branch_target(&self, new: CodeAddr) -> Option<Op> {
        match *self {
            Op::BrCond { .. } => Some(Op::BrCond { target: new }),
            Op::BrCtop { .. } => Some(Op::BrCtop { target: new }),
            Op::BrCloop { .. } => Some(Op::BrCloop { target: new }),
            Op::BrWtop { .. } => Some(Op::BrWtop { target: new }),
            Op::BrCall { .. } => Some(Op::BrCall { target: new }),
            _ => None,
        }
    }
}

/// Which rewrite of a loop's `lfetch` slots a plan performs: what the
/// optimizer emits, the verifier judges, and the store and the telemetry
/// record by [`RewriteKind::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RewriteKind {
    /// Replace selected `lfetch` slots with `nop.m`.
    NoPrefetch,
    /// Flip selected `lfetch` slots to `lfetch.excl`.
    ExclHint,
    /// Mix both per site: each written `lfetch` slot is either removed
    /// (`nop.m`) or hint-flipped (`.excl`), judged independently
    /// (tournament candidates only: the classic one-shot classifier never
    /// emits this).
    Combined,
}

impl RewriteKind {
    pub const ALL: [RewriteKind; 3] = [
        RewriteKind::NoPrefetch,
        RewriteKind::ExclHint,
        RewriteKind::Combined,
    ];

    /// Stable name, as stored and printed.
    pub fn name(self) -> &'static str {
        match self {
            RewriteKind::NoPrefetch => "noprefetch",
            RewriteKind::ExclHint => "prefetch.excl",
            RewriteKind::Combined => "combined",
        }
    }

    /// Inverse of [`RewriteKind::name`]; `None` for unknown names (e.g. a
    /// store record written by an incompatible build).
    pub fn from_name(name: &str) -> Option<RewriteKind> {
        RewriteKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// `nop.m` slot — what `noprefetch` writes over an `lfetch`.
pub const NOP_SLOT_M: Insn = Insn {
    qp: 0,
    op: Op::Nop { unit: Unit::M },
};
/// `nop.i` slot.
pub const NOP_SLOT_I: Insn = Insn {
    qp: 0,
    op: Op::Nop { unit: Unit::I },
};
/// `nop.f` slot.
pub const NOP_SLOT_F: Insn = Insn {
    qp: 0,
    op: Op::Nop { unit: Unit::F },
};
/// `nop.b` slot.
pub const NOP_SLOT_B: Insn = Insn {
    qp: 0,
    op: Op::Nop { unit: Unit::B },
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_are_consistent_with_slot_classes() {
        assert_eq!(
            Op::Lfetch {
                base: 1,
                post_inc: 0,
                hint: LfetchHint::Nt1,
                excl: false
            }
            .unit(),
            Unit::M
        );
        assert_eq!(
            Op::FmaD {
                dest: 6,
                f1: 7,
                f2: 8,
                f3: 9
            }
            .unit(),
            Unit::F
        );
        assert_eq!(Op::BrCtop { target: 0 }.unit(), Unit::B);
        assert_eq!(
            Op::Add {
                dest: 1,
                r2: 2,
                r3: 3
            }
            .unit(),
            Unit::I
        );
        assert_eq!(Op::Nop { unit: Unit::F }.unit(), Unit::F);
    }

    #[test]
    fn cmp_rel_semantics() {
        assert!(CmpRel::Lt.eval_i64(-1, 0));
        assert!(!CmpRel::Ltu.eval_i64(-1, 0), "-1 as u64 is huge");
        assert!(CmpRel::Geu.eval_i64(-1, 0));
        assert!(CmpRel::Ne.eval_f64(1.0, 2.0));
        assert!(!CmpRel::Eq.eval_f64(f64::NAN, f64::NAN));
    }

    #[test]
    fn rewrite_kind_names_round_trip() {
        for kind in RewriteKind::ALL {
            assert_eq!(RewriteKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(RewriteKind::from_name("bogus"), None);
    }

    #[test]
    fn branch_target_rewrite() {
        let op = Op::BrCtop { target: 10 };
        assert_eq!(op.branch_target(), Some(10));
        assert_eq!(op.with_branch_target(99), Some(Op::BrCtop { target: 99 }));
        assert_eq!(Op::BrRet.with_branch_target(99), None);
        assert_eq!(Op::Hlt.branch_target(), None);
    }

    #[test]
    fn lfetch_predicates() {
        let lf = Insn::pred(
            16,
            Op::Lfetch {
                base: 43,
                post_inc: 0,
                hint: LfetchHint::Nt1,
                excl: false,
            },
        );
        assert!(lf.is_lfetch());
        assert!(!lf.is_branch());
        assert_eq!(lf.qp, 16);
        assert!(!NOP_SLOT_M.is_lfetch());
    }
}
