//! A small assembler: labels, forward references, bundle alignment.
//!
//! The `minicc` code generator in `cobra-kernels` drives this API to emit the
//! icc-shaped binaries (software-pipelined loops with aggressive prefetch)
//! that COBRA later optimizes. The assembler resolves labels at `finish()`
//! time and produces a [`CodeImage`].

use std::collections::BTreeMap;

use crate::encode::encode;
use crate::image::CodeImage;
use crate::insn::{CmpRel, Insn, LfetchHint, Op, Unit};
use crate::{CodeAddr, SLOTS_PER_BUNDLE};

/// An assembler label. Create with [`Assembler::new_label`], place with
/// [`Assembler::bind`], reference from branch-emitting helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

#[derive(Debug)]
struct Fixup {
    insn_index: usize,
    label: Label,
}

/// Incremental instruction emitter with label fixups.
#[derive(Debug, Default)]
pub struct Assembler {
    insns: Vec<Insn>,
    labels: Vec<Option<CodeAddr>>,
    fixups: Vec<Fixup>,
    symbols: BTreeMap<String, CodeAddr>,
    comments: Vec<(CodeAddr, String)>,
}

impl Assembler {
    pub fn new() -> Self {
        Assembler::default()
    }

    /// Current emission address (index of the next instruction).
    #[inline]
    pub fn here(&self) -> CodeAddr {
        self.insns.len() as CodeAddr
    }

    /// Allocate an unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Bind `label` at the current (bundle-aligned) address. Padding `nop.i`
    /// slots are inserted as needed so every branch target starts a bundle,
    /// matching the alignment discipline of real IA-64 code.
    pub fn bind(&mut self, label: Label) {
        self.align();
        let addr = self.here();
        let slot = &mut self.labels[label.0];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(addr);
    }

    /// Record a named symbol at the current (bundle-aligned) address.
    pub fn symbol(&mut self, name: impl Into<String>) -> CodeAddr {
        self.align();
        let addr = self.here();
        self.symbols.insert(name.into(), addr);
        addr
    }

    /// Pad with `nop.i` to the next bundle boundary.
    pub fn align(&mut self) {
        while !self.here().is_multiple_of(SLOTS_PER_BUNDLE) {
            self.emit(Insn::new(Op::Nop { unit: Unit::I }));
        }
    }

    /// Emit one instruction; returns its address.
    pub fn emit(&mut self, insn: Insn) -> CodeAddr {
        let addr = self.here();
        self.insns.push(insn);
        addr
    }

    /// Attach a disassembly comment to the *next* emitted instruction's
    /// address (call just before emitting).
    pub fn comment(&mut self, text: impl Into<String>) {
        self.comments.push((self.here(), text.into()));
    }

    /// Emit a branch to a label; the target is fixed up at `finish()`.
    pub(crate) fn emit_branch(&mut self, insn: Insn, label: Label) -> CodeAddr {
        assert!(
            insn.op.branch_target().is_some(),
            "emit_branch needs a targeted branch"
        );
        let addr = self.emit(insn);
        self.fixups.push(Fixup {
            insn_index: addr as usize,
            label,
        });
        addr
    }

    // ---- convenience emitters used heavily by minicc ----

    /// `movl rD=imm`.
    pub fn movi(&mut self, dest: u8, imm: i64) -> CodeAddr {
        self.emit(Insn::new(Op::MovI { dest, imm }))
    }

    /// `mov rD=rS` (assembles as `add rD=rS,r0`).
    pub fn mov(&mut self, dest: u8, src: u8) -> CodeAddr {
        self.emit(Insn::new(Op::Add {
            dest,
            r2: src,
            r3: 0,
        }))
    }

    /// `adds rD=imm,rS`.
    pub fn addi(&mut self, dest: u8, src: u8, imm: i32) -> CodeAddr {
        self.emit(Insn::new(Op::AddI { dest, src, imm }))
    }

    /// `ldfd fD=[rB],inc`.
    pub fn ldfd(&mut self, qp: u8, dest: u8, base: u8, post_inc: i32) -> CodeAddr {
        self.emit(Insn::pred(
            qp,
            Op::Ldfd {
                dest,
                base,
                post_inc,
            },
        ))
    }

    /// `stfd [rB]=fS,inc`.
    pub fn stfd(&mut self, qp: u8, src: u8, base: u8, post_inc: i32) -> CodeAddr {
        self.emit(Insn::pred(
            qp,
            Op::Stfd {
                src,
                base,
                post_inc,
            },
        ))
    }

    /// `ld8 rD=[rB],inc`.
    pub fn ld8(&mut self, qp: u8, dest: u8, base: u8, post_inc: i32) -> CodeAddr {
        self.emit(Insn::pred(
            qp,
            Op::Ld8 {
                dest,
                base,
                post_inc,
                bias: false,
            },
        ))
    }

    /// `st8 [rB]=rS,inc`.
    pub fn st8(&mut self, qp: u8, src: u8, base: u8, post_inc: i32) -> CodeAddr {
        self.emit(Insn::pred(
            qp,
            Op::St8 {
                src,
                base,
                post_inc,
            },
        ))
    }

    /// `lfetch.nt1 [rB],inc` — the aggressive-prefetch workhorse of Figure 2.
    pub fn lfetch_nt1(&mut self, qp: u8, base: u8, post_inc: i32) -> CodeAddr {
        self.emit(Insn::pred(
            qp,
            Op::Lfetch {
                base,
                post_inc,
                hint: LfetchHint::Nt1,
                excl: false,
            },
        ))
    }

    /// `fma.d fD=f1,f2,f3`.
    pub fn fma_d(&mut self, qp: u8, dest: u8, f1: u8, f2: u8, f3: u8) -> CodeAddr {
        self.emit(Insn::pred(qp, Op::FmaD { dest, f1, f2, f3 }))
    }

    /// `cmp.rel pA,pB=r2,r3`.
    pub fn cmp(&mut self, p1: u8, p2: u8, rel: CmpRel, r2: u8, r3: u8) -> CodeAddr {
        self.emit(Insn::new(Op::Cmp {
            p1,
            p2,
            rel,
            r2,
            r3,
        }))
    }

    /// `nop.unit`.
    pub fn nop(&mut self, unit: Unit) -> CodeAddr {
        self.emit(Insn::new(Op::Nop { unit }))
    }

    /// `mov ar.lc=rS`.
    pub fn mov_to_lc(&mut self, src: u8) -> CodeAddr {
        self.emit(Insn::new(Op::MovToLc { src }))
    }

    /// `mov ar.ec=rS`.
    pub fn mov_to_ec(&mut self, src: u8) -> CodeAddr {
        self.emit(Insn::new(Op::MovToEc { src }))
    }

    /// `br.ctop label`.
    pub fn br_ctop(&mut self, label: Label) -> CodeAddr {
        self.emit_branch(Insn::new(Op::BrCtop { target: 0 }), label)
    }

    /// `br.cloop label`.
    pub fn br_cloop(&mut self, label: Label) -> CodeAddr {
        self.emit_branch(Insn::new(Op::BrCloop { target: 0 }), label)
    }

    /// `br.wtop label`.
    pub fn br_wtop(&mut self, qp: u8, label: Label) -> CodeAddr {
        self.emit_branch(Insn::pred(qp, Op::BrWtop { target: 0 }), label)
    }

    /// `(qp) br.cond label`.
    pub fn br_cond(&mut self, qp: u8, label: Label) -> CodeAddr {
        self.emit_branch(Insn::pred(qp, Op::BrCond { target: 0 }), label)
    }

    /// `hlt`.
    pub fn hlt(&mut self) -> CodeAddr {
        self.emit(Insn::new(Op::Hlt))
    }

    /// Resolve all fixups and produce the final [`CodeImage`].
    ///
    /// # Panics
    /// Panics on unbound labels — an unresolved forward reference is a
    /// code-generator bug.
    pub fn finish(mut self) -> CodeImage {
        self.align();
        for fixup in &self.fixups {
            let target = self.labels[fixup.label.0]
                .unwrap_or_else(|| panic!("unbound label {:?}", fixup.label));
            let insn = &mut self.insns[fixup.insn_index];
            insn.op = insn
                .op
                .with_branch_target(target)
                .expect("fixup on a non-branch instruction");
        }
        let words: Vec<u64> = self.insns.iter().map(encode).collect();
        let mut image = CodeImage::from_words(words, self.symbols);
        for (addr, text) in self.comments {
            image.add_comment(addr, text);
        }
        image
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::Op;

    fn decoded(img: &CodeImage) -> Vec<Insn> {
        (0..img.len()).map(|a| img.insn(a).unwrap()).collect()
    }

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut a = Assembler::new();
        let top = a.new_label();
        let out = a.new_label();
        a.movi(4, 10);
        a.mov_to_lc(4);
        a.bind(top);
        let top_addr = a.here();
        a.addi(5, 5, 1);
        a.br_cond(6, out); // forward reference
        a.br_cloop(top); // backward reference
        a.bind(out);
        let img = a.finish();

        let insns = decoded(&img);
        let cloop = insns
            .iter()
            .find(|i| matches!(i.op, Op::BrCloop { .. }))
            .unwrap();
        assert_eq!(cloop.op.branch_target(), Some(top_addr));
        let cond = insns
            .iter()
            .find(|i| matches!(i.op, Op::BrCond { .. }))
            .unwrap();
        let out_addr = cond.op.branch_target().unwrap();
        assert!(out_addr > top_addr);
        assert_eq!(out_addr % SLOTS_PER_BUNDLE, 0);
    }

    #[test]
    fn labels_are_bundle_aligned() {
        let mut a = Assembler::new();
        a.nop(Unit::I); // misalign
        let l = a.new_label();
        a.bind(l);
        assert_eq!(a.here() % SLOTS_PER_BUNDLE, 0);
    }

    #[test]
    #[should_panic(expected = "label bound twice")]
    fn double_bind_panics() {
        let mut a = Assembler::new();
        let l = a.new_label();
        a.bind(l);
        a.bind(l);
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics_at_finish() {
        let mut a = Assembler::new();
        let l = a.new_label();
        a.br_cond(0, l);
        let _ = a.finish();
    }

    #[test]
    fn symbols_and_comments_flow_into_image() {
        let mut a = Assembler::new();
        let entry = a.symbol("entry");
        a.comment("prefetch y[0]+8");
        a.lfetch_nt1(0, 10, 0);
        a.hlt();
        let img = a.finish();
        assert_eq!(img.symbol("entry"), Some(entry));
        assert_eq!(img.comment(entry), Some("prefetch y[0]+8"));
    }

    #[test]
    fn backward_branch_at_image_start_resolves_to_slot_zero() {
        // Loop head at the very first slot: the back edge must resolve to
        // target 0, not underflow or land past the end.
        let mut a = Assembler::new();
        let top = a.new_label();
        a.bind(top);
        assert_eq!(a.here(), 0);
        a.addi(5, 5, 1);
        a.br_ctop(top);
        let img = a.finish();
        let back = decoded(&img)
            .into_iter()
            .find(|i| matches!(i.op, Op::BrCtop { .. }))
            .unwrap();
        assert_eq!(back.op.branch_target(), Some(0));
        assert!(img.insn(0).is_ok());
    }

    #[test]
    fn self_loop_branch_targets_its_own_address() {
        // A branch that is the first slot of its own bundle and targets the
        // label bound at that bundle is a one-slot self-loop.
        let mut a = Assembler::new();
        a.nop(Unit::I); // push the loop off slot 0
        let l = a.new_label();
        a.bind(l);
        let branch_addr = a.here();
        a.br_cloop(l);
        let img = a.finish();
        let insn = img.insn(branch_addr).unwrap();
        assert_eq!(insn.op.branch_target(), Some(branch_addr));
        assert_eq!(branch_addr % SLOTS_PER_BUNDLE, 0);
    }

    #[test]
    fn forward_branch_to_final_bundle_stays_in_bounds() {
        // A forward branch whose target is the last bundle of the image:
        // the resolved target must be a valid in-bounds slot address.
        let mut a = Assembler::new();
        let end = a.new_label();
        a.addi(5, 5, 1);
        a.br_cond(0, end);
        a.addi(6, 6, 1); // skipped
        a.bind(end);
        a.nop(Unit::M);
        a.hlt();
        let img = a.finish();
        let cond = decoded(&img)
            .into_iter()
            .find(|i| matches!(i.op, Op::BrCond { .. }))
            .unwrap();
        let target = cond.op.branch_target().unwrap();
        assert_eq!(target, img.len() - SLOTS_PER_BUNDLE);
        assert!(target < img.len());
        assert!(img.insn(target).is_ok());
    }

    #[test]
    fn image_ends_bundle_aligned() {
        let mut a = Assembler::new();
        a.nop(Unit::I);
        a.nop(Unit::I);
        a.nop(Unit::I);
        a.nop(Unit::I);
        let img = a.finish();
        assert_eq!(img.len() % SLOTS_PER_BUNDLE, 0);
    }
}
