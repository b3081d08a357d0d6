//! Pre-decoded micro-ops: the flat, execute-ready form of an [`Insn`].
//!
//! The per-cycle interpreter re-derives two facts about every instruction on
//! every fetch: which registers it reads (one big `match` to consult the
//! stall-on-use scoreboard) and whether it can transfer control. A
//! [`MicroOp`] computes both once, at block-build time, so the hot loop
//! degenerates to a table walk: read the pre-resolved source list, compare
//! scoreboard entries, execute. The block dispatch engine in
//! `cobra-machine` lowers every instruction of a basic block into this form
//! and caches the result keyed by the block's entry address.
//!
//! The lowering is *purely* a re-arrangement of information already present
//! in the [`Insn`]: the source list is the general and FP registers of
//! [`Op::operands`]' uses, which must be exactly the registers the reference
//! interpreter's readiness check consults, no more and no fewer, or the two
//! paths would stall on different cycles and diverge. `cobra-machine` checks
//! that per opcode shape (`core::tests`) and its
//! `block_dispatch_equivalence` suite property-tests it end to end.

use crate::insn::{Insn, Op, Reg};
use crate::regs::{ROT_GR_BASE, ROT_PR_BASE};

/// One source register reference, pre-resolved from the operand fields.
/// Register numbers are *virtual*: the rotating-register bases are runtime
/// state, so a micro-op is mapped through them when it issues. (The block
/// engine does bake the mapping in for the loops it runs most, once per
/// rotation residue: `cobra-machine`'s loop traces.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrcReg {
    /// General register read (integer scoreboard).
    Gr(u8),
    /// Floating-point register read (FP scoreboard).
    Fr(u8),
}

/// Maximum number of explicit source registers any [`Op`] reads (the
/// three-input `fma.d`).
pub(crate) const MAX_SRCS: usize = 3;

/// Dispatch class of a micro-op: the four shapes that carry the dispatch
/// traffic of arithmetic stretches (`add`, `adds`, `br.cloop`, `nop`), which
/// the block engine executes through one specialized arm each, with operands
/// pre-extracted into the flat [`MicroOp`] fields. A specialized class is
/// given only when every register number is its own physical register under
/// any rotation and never a hard-wired destination: qualifying predicate
/// below [`ROT_PR_BASE`], GR operands below [`ROT_GR_BASE`], and an
/// `add`/`adds` destination other than `r0`; so its arm indexes the register
/// files directly. Everything else is [`OpClass::Other`] and goes through
/// the full interpreter arm — the same one the reference engine uses. The
/// specialized arms must be semantically byte-identical to the interpreter
/// (property-tested by `block_dispatch_equivalence`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpClass {
    /// `add d = a, b` (wrapping).
    Add,
    /// `adds d = imm, a` (wrapping; immediate pre-widened to i64).
    AddI,
    /// `nop` on any unit: consumes the slot, no effects either way.
    Nop,
    /// `br.cloop target` (target pre-widened into `imm`; ignores qp).
    BrCloop,
    /// Full interpreter dispatch.
    Other,
}

/// A pre-decoded instruction: the instruction itself plus everything the
/// dispatch loop needs without re-matching on the opcode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroOp {
    /// The decoded instruction (executed exactly as the reference path would).
    pub insn: Insn,
    /// Explicit source registers; only the first [`Self::nsrcs`] are valid.
    /// The qualifying predicate is *not* listed — every instruction reads it
    /// and the dispatch loop checks it unconditionally.
    pub srcs: [SrcReg; MAX_SRCS],
    /// Number of valid entries in [`Self::srcs`].
    pub nsrcs: u8,
    /// The op can transfer control or end the thread (all branch flavours
    /// and `hlt`): it terminates a basic block.
    ends: bool,
    /// Dispatch class; operands of specialized classes are pre-extracted
    /// into [`Self::d`], [`Self::a`], [`Self::b`] and [`Self::imm`].
    pub class: OpClass,
    /// Destination register of the specialized classes.
    pub d: u8,
    /// First general-register source of the specialized classes.
    pub a: u8,
    /// Second general-register source of the specialized classes.
    pub b: u8,
    /// Immediate operand (or branch target) of the specialized classes,
    /// pre-widened to i64.
    pub imm: i64,
}

impl MicroOp {
    /// Lower one instruction. Infallible: every decodable [`Insn`] has a
    /// micro-op form. A rotating operand or an `r0` destination lowers
    /// `add`/`adds`/`nop`/`br.cloop` to [`OpClass::Other`] (see [`OpClass`]).
    pub fn lower(insn: Insn) -> MicroOp {
        let mut srcs = [SrcReg::Gr(0); MAX_SRCS];
        let mut n = 0usize;
        // The scoreboard tracks general and FP registers; the application
        // and branch registers an op may also read are never waited on.
        for r in insn.op.operands().uses() {
            srcs[n] = match *r {
                Reg::Gr(r) => SrcReg::Gr(r),
                Reg::Fr(r) => SrcReg::Fr(r),
                _ => continue,
            };
            n += 1;
        }
        let ends = insn.is_branch() || insn.op == Op::Hlt;
        let fixed = |regs: &[u8]| insn.qp < ROT_PR_BASE && regs.iter().all(|&r| r < ROT_GR_BASE);
        let (class, d, a, b, imm) = match insn.op {
            Op::Add { dest, r2, r3 } if dest != 0 && fixed(&[dest, r2, r3]) => {
                (OpClass::Add, dest, r2, r3, 0)
            }
            Op::AddI { dest, src, imm } if dest != 0 && fixed(&[dest, src]) => {
                (OpClass::AddI, dest, src, 0, imm as i64)
            }
            Op::Nop { .. } if fixed(&[]) => (OpClass::Nop, 0, 0, 0, 0),
            Op::BrCloop { target } if fixed(&[]) => (OpClass::BrCloop, 0, 0, 0, target as i64),
            _ => (OpClass::Other, 0, 0, 0, 0),
        };
        MicroOp {
            insn,
            srcs,
            nsrcs: n as u8,
            ends,
            class,
            d,
            a,
            b,
            imm,
        }
    }

    /// The valid prefix of the source list.
    #[inline]
    pub fn sources(&self) -> &[SrcReg] {
        &self.srcs[..self.nsrcs as usize]
    }

    /// Does this op terminate a basic block (branch or `hlt`)?
    #[inline]
    pub fn ends_block(&self) -> bool {
        self.ends
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{CmpRel, Unit};

    /// The block cache holds these by the thousand and the hot loop walks
    /// them: the lowering may be re-derived, the layout may not move.
    #[test]
    fn micro_op_is_48_bytes() {
        assert_eq!(std::mem::size_of::<MicroOp>(), 48);
    }

    #[test]
    fn memory_ops_list_their_base_sources() {
        let u = MicroOp::lower(Insn::new(Op::Ld8 {
            dest: 7,
            base: 4,
            post_inc: 8,
            bias: false,
        }));
        assert!(!u.ends_block());
        assert_eq!(u.sources(), &[SrcReg::Gr(4)]);

        let u = MicroOp::lower(Insn::new(Op::Stfd {
            src: 6,
            base: 5,
            post_inc: 0,
        }));
        assert_eq!(u.sources(), &[SrcReg::Fr(6), SrcReg::Gr(5)]);
    }

    #[test]
    fn fp_ops_list_fp_sources() {
        let u = MicroOp::lower(Insn::new(Op::FmaD {
            dest: 9,
            f1: 6,
            f2: 7,
            f3: 8,
        }));
        assert_eq!(u.sources(), &[SrcReg::Fr(6), SrcReg::Fr(7), SrcReg::Fr(8)]);
    }

    #[test]
    fn branches_and_hlt_end_blocks_without_explicit_sources() {
        for op in [
            Op::BrCond { target: 3 },
            Op::BrCtop { target: 3 },
            Op::BrCloop { target: 3 },
            Op::BrWtop { target: 3 },
            Op::Hlt,
        ] {
            let u = MicroOp::lower(Insn::new(op));
            assert!(u.ends_block(), "{op:?} must end a block");
            assert!(u.sources().is_empty());
        }
        // Straight-line ops do not end blocks.
        let u = MicroOp::lower(Insn::new(Op::CmpI {
            p1: 6,
            p2: 7,
            rel: CmpRel::Lt,
            imm: 3,
            r3: 4,
        }));
        assert!(!u.ends_block());
        assert_eq!(u.sources(), &[SrcReg::Gr(4)]);
    }

    #[test]
    fn specialized_classes_pre_extract_their_operands() {
        let u = MicroOp::lower(Insn::new(Op::AddI {
            dest: 5,
            src: 6,
            imm: -3,
        }));
        assert_eq!((u.class, u.d, u.a, u.imm), (OpClass::AddI, 5, 6, -3));

        let u = MicroOp::lower(Insn::new(Op::Add {
            dest: 7,
            r2: 8,
            r3: 9,
        }));
        assert_eq!((u.class, u.d, u.a, u.b), (OpClass::Add, 7, 8, 9));

        let u = MicroOp::lower(Insn::new(Op::Nop { unit: Unit::I }));
        assert_eq!(u.class, OpClass::Nop);

        let u = MicroOp::lower(Insn::new(Op::BrCloop { target: 12 }));
        assert_eq!((u.class, u.imm), (OpClass::BrCloop, 12));

        // Anything with its own interpreter-side complexity stays generic.
        let u = MicroOp::lower(Insn::new(Op::Mul {
            dest: 3,
            r2: 4,
            r3: 5,
        }));
        assert_eq!(u.class, OpClass::Other);

        // Classes that carry no measurable dispatch traffic run through the
        // interpreter arm, like the reference.
        for op in [
            Op::MovI { dest: 4, imm: 7 },
            Op::BrCond { target: 77 },
            Op::Sub {
                dest: 7,
                r2: 8,
                r3: 9,
            },
        ] {
            assert_eq!(MicroOp::lower(Insn::new(op)).class, OpClass::Other);
        }
    }

    /// A specialized class is given only to operands that are their own
    /// physical registers under every rotation, with no write to `r0`:
    /// a rotating GR (`r32`+), a rotating qualifying predicate (`p16`+) or
    /// destination `r0` sends the op to the interpreter arm.
    #[test]
    fn rotating_operands_and_r0_destinations_lower_to_other() {
        let add = |dest, r2, r3| Op::Add { dest, r2, r3 };
        let addi = |dest, src| Op::AddI { dest, src, imm: 4 };
        let nop = Op::Nop { unit: Unit::I };
        let cloop = Op::BrCloop { target: 12 };
        for (qp, op) in [
            (0, add(32, 5, 6)),
            (0, add(5, 32, 6)),
            (0, add(5, 6, 127)),
            (0, add(0, 5, 6)),
            (16, add(5, 6, 7)),
            (0, addi(40, 5)),
            (0, addi(5, 33)),
            (0, addi(0, 5)),
            (63, addi(5, 6)),
            (16, nop),
            (40, cloop),
        ] {
            let u = MicroOp::lower(Insn::pred(qp, op));
            assert_eq!(u.class, OpClass::Other, "(p{qp}) {op:?}");
        }

        // The fixed forms, under a static predicate, keep their class and
        // their pre-extracted operands.
        let u = MicroOp::lower(Insn::pred(15, add(31, 0, 1)));
        assert_eq!((u.class, u.d, u.a, u.b), (OpClass::Add, 31, 0, 1));
        let u = MicroOp::lower(Insn::pred(15, addi(1, 31)));
        assert_eq!((u.class, u.d, u.a, u.imm), (OpClass::AddI, 1, 31, 4));
        assert_eq!(MicroOp::lower(Insn::pred(15, nop)).class, OpClass::Nop);
        let u = MicroOp::lower(Insn::pred(15, cloop));
        assert_eq!((u.class, u.imm), (OpClass::BrCloop, 12));
    }
}
