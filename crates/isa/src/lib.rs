//! # cobra-isa — an Itanium-2-inspired instruction set for runtime binary optimization
//!
//! The COBRA paper (ICPP 2007) performs its optimizations by *rewriting binary
//! instructions in place*: turning `lfetch.nt1` prefetches into `nop.m`, adding the
//! `.excl` ownership hint to selected prefetches, and redirecting hot loops into a
//! trace cache. Reproducing that faithfully requires an actual binary instruction
//! format, not an AST. This crate provides:
//!
//! * [`Insn`] — a typed model of the Itanium 2 subset the paper's workloads need:
//!   FP loads/stores (`ldfd`/`stfd`), integer loads/stores (`ld8`/`st8`, with the
//!   `.bias` ownership hint), `lfetch` with locality hints and the `.excl`
//!   completer, `fma.d` and friends, predicated compares, modulo-scheduled loop
//!   branches (`br.ctop`, `br.cloop`, `br.wtop`), and the atomic `fetchadd8` /
//!   `cmpxchg8` used by the OpenMP runtime's barriers.
//! * [`encode`]/[`decode`] — a concrete, fully round-trippable 64-bit-per-slot
//!   binary encoding. Binary rewriting in `cobra-rt` operates on these words.
//! * [`Assembler`] — labels, fixups and bundle packing for the `minicc` code
//!   generator in `cobra-kernels`.
//! * [`CodeImage`] — the program binary: a word-addressed code segment plus a
//!   growable trace-cache region, with validated patching (the deployment target
//!   of the COBRA optimizer).
//! * [`disasm`] — textual disassembly used to regenerate the paper's Figure 2.
//!
//! ## Addressing conventions
//!
//! Code addresses are **word indices** into the [`CodeImage`] (one instruction
//! slot per 64-bit word, three slots per bundle). Data addresses are **byte
//! addresses** into the machine's flat data memory. The two spaces are disjoint,
//! matching the split instruction/data view a user-mode optimizer has of a
//! running process.

pub mod asm;
pub mod disasm;
pub mod encode;
pub mod image;
pub mod insn;
pub mod regs;
pub mod uop;

pub use asm::{Assembler, Label};
pub use encode::{decode, encode, DecodeError};
pub use image::{CodeImage, PatchError};
pub use insn::{
    BrKind, CmpRel, Insn, LfetchHint, Reg, RewriteKind, Unit, NOP_SLOT_B, NOP_SLOT_F, NOP_SLOT_I,
    NOP_SLOT_M,
};
pub use regs::{ROT_FR_BASE, ROT_FR_SIZE, ROT_GR_BASE, ROT_GR_SIZE, ROT_PR_BASE, ROT_PR_SIZE};
pub use uop::{MicroOp, OpClass, SrcReg};

/// A code address: an index of a 64-bit instruction slot in a [`CodeImage`].
pub type CodeAddr = u32;

/// Number of instruction slots per bundle (Itanium issues three-slot bundles).
pub const SLOTS_PER_BUNDLE: u32 = 3;

/// Round a code address up to the next bundle boundary (identity if aligned).
#[inline]
pub fn bundle_align(addr: CodeAddr) -> CodeAddr {
    addr.div_ceil(SLOTS_PER_BUNDLE) * SLOTS_PER_BUNDLE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_math() {
        assert_eq!(bundle_align(0), 0);
        assert_eq!(bundle_align(1), 3);
        assert_eq!(bundle_align(3), 3);
        assert_eq!(bundle_align(4), 6);
    }
}
