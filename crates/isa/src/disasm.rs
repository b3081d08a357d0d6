//! Textual disassembly in icc-like syntax.
//!
//! Used by the harness to regenerate the paper's Figure 2 (the icc-generated
//! Itanium assembly of the DAXPY kernel) from our `minicc` binary, and by
//! COBRA's report facility to show what was rewritten.

use std::fmt::Write as _;

use crate::image::CodeImage;
use crate::insn::{Insn, LfetchHint, Op, Unit};
use crate::{CodeAddr, SLOTS_PER_BUNDLE};

/// Render one instruction in assembly syntax (without its predicate prefix).
fn format_op(op: &Op) -> String {
    match *op {
        Op::Ld8 {
            dest,
            base,
            post_inc,
            bias,
        } => {
            let b = if bias { ".bias" } else { "" };
            with_postinc(format!("ld8{b} r{dest}=[r{base}]"), post_inc)
        }
        Op::St8 {
            src,
            base,
            post_inc,
        } => with_postinc(format!("st8 [r{base}]=r{src}"), post_inc),
        Op::Ldfd {
            dest,
            base,
            post_inc,
        } => with_postinc(format!("ldfd f{dest}=[r{base}]"), post_inc),
        Op::Stfd {
            src,
            base,
            post_inc,
        } => with_postinc(format!("stfd [r{base}]=f{src}"), post_inc),
        Op::Lfetch {
            base,
            post_inc,
            hint,
            excl,
        } => {
            let h = match hint {
                LfetchHint::None => "",
                LfetchHint::Nt1 => ".nt1",
                LfetchHint::Nt2 => ".nt2",
                LfetchHint::Nta => ".nta",
            };
            let e = if excl { ".excl" } else { "" };
            with_postinc(format!("lfetch{h}{e} [r{base}]"), post_inc)
        }
        Op::FmaD { dest, f1, f2, f3 } => format!("fma.d f{dest}=f{f1},f{f2},f{f3}"),
        Op::FsubD { dest, f1, f2 } => format!("fsub.d f{dest}=f{f1},f{f2}"),
        Op::FmulD { dest, f1, f2 } => format!("fmul.d f{dest}=f{f1},f{f2}"),
        Op::FdivD { dest, f1, f2 } => format!("fdiv.d f{dest}=f{f1},f{f2}"),
        Op::FsqrtD { dest, f1 } => format!("fsqrt.d f{dest}=f{f1}"),
        Op::FcmpD {
            p1,
            p2,
            rel,
            f1,
            f2,
        } => {
            format!("fcmp.{} p{p1},p{p2}=f{f1},f{f2}", rel.mnemonic())
        }
        Op::SetfD { dest, src } => format!("setf.d f{dest}=r{src}"),
        Op::SetfSig { dest, src } => format!("setf.sig f{dest}=r{src}"),
        Op::FcvtXf { dest, src } => format!("fcvt.xf f{dest}=f{src}"),
        Op::Add { dest, r2, r3 } => {
            if r3 == 0 {
                format!("mov r{dest}=r{r2}")
            } else {
                format!("add r{dest}=r{r2},r{r3}")
            }
        }
        Op::Sub { dest, r2, r3 } => format!("sub r{dest}=r{r2},r{r3}"),
        Op::AddI { dest, src, imm } => format!("adds r{dest}={imm},r{src}"),
        Op::Mul { dest, r2, r3 } => format!("xmpy.l r{dest}=r{r2},r{r3}"),
        Op::ShlI { dest, src, count } => format!("shl r{dest}=r{src},{count}"),
        Op::ShrI { dest, src, count } => format!("shr.u r{dest}=r{src},{count}"),
        Op::MovI { dest, imm } => format!("movl r{dest}={imm:#x}"),
        Op::Cmp {
            p1,
            p2,
            rel,
            r2,
            r3,
        } => {
            format!("cmp.{} p{p1},p{p2}=r{r2},r{r3}", rel.mnemonic())
        }
        Op::CmpI {
            p1,
            p2,
            rel,
            imm,
            r3,
        } => {
            format!("cmp.{} p{p1},p{p2}={imm},r{r3}", rel.mnemonic())
        }
        Op::BrCond { target } => format!("br.cond.sptk .L{target}"),
        Op::BrCtop { target } => format!("br.ctop.sptk .L{target}"),
        Op::BrCloop { target } => format!("br.cloop.sptk .L{target}"),
        Op::BrWtop { target } => format!("br.wtop.sptk .L{target}"),
        Op::MovToLc { src } => format!("mov ar.lc=r{src}"),
        Op::MovToEc { src } => format!("mov ar.ec=r{src}"),
        Op::Clrrrb => "clrrrb".to_string(),
        Op::Nop { unit } => format!("nop.{} 0", unit_letter(unit)),
        Op::Hlt => "hlt".to_string(),
    }
}

fn with_postinc(body: String, post_inc: i32) -> String {
    if post_inc != 0 {
        format!("{body},{post_inc}")
    } else {
        body
    }
}

fn unit_letter(unit: Unit) -> char {
    match unit {
        Unit::M => 'm',
        Unit::I => 'i',
        Unit::F => 'f',
        Unit::B => 'b',
    }
}

/// Render one instruction, including its `(pN)` predicate prefix.
pub fn format_insn(insn: &Insn) -> String {
    if insn.qp != 0 {
        format!("(p{}) {}", insn.qp, format_op(&insn.op))
    } else {
        format_op(&insn.op)
    }
}

/// Bundle template string (e.g. `.mmf`) for three slot units.
fn template(units: &[Unit]) -> String {
    let mut s = String::from(".");
    for u in units {
        s.push(unit_letter(*u));
    }
    s
}

/// Disassemble `[start, end)` of an image as icc-style bundles with labels
/// and `//` comments, reproducing the presentation of the paper's Figure 2.
pub fn disasm_range(image: &CodeImage, start: CodeAddr, end: CodeAddr) -> String {
    let mut out = String::new();
    let symbols: Vec<(CodeAddr, &str)> = {
        let mut v: Vec<(CodeAddr, &str)> = image.symbols().map(|(n, a)| (a, n)).collect();
        v.sort();
        v
    };
    let mut addr = start - start % SLOTS_PER_BUNDLE;
    while addr < end.min(image.len()) {
        for (sym_addr, name) in &symbols {
            if *sym_addr == addr {
                let _ = writeln!(out, ".{name}:");
            }
        }
        let bundle_end = (addr + SLOTS_PER_BUNDLE).min(image.len());
        let insns: Vec<Insn> = (addr..bundle_end)
            .map(|a| image.insn(a).expect("undecodable word in image"))
            .collect();
        let units: Vec<Unit> = insns.iter().map(|i| i.unit()).collect();
        let _ = writeln!(out, "{{ {}", template(&units));
        for (i, insn) in insns.iter().enumerate() {
            let a = addr + i as u32;
            let text = format_insn(insn);
            match image.comment(a) {
                Some(c) => {
                    let _ = writeln!(out, "  {text:<40} // {c}");
                }
                None => {
                    let _ = writeln!(out, "  {text}");
                }
            }
        }
        let _ = writeln!(out, "}}");
        addr = bundle_end;
    }
    out
}

/// Disassemble the whole original text segment.
pub fn disasm_image(image: &CodeImage) -> String {
    disasm_range(image, 0, image.main_len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::insn::CmpRel;

    #[test]
    fn formats_figure2_style_instructions() {
        let lf = Insn::pred(
            16,
            Op::Lfetch {
                base: 43,
                post_inc: 0,
                hint: LfetchHint::Nt1,
                excl: false,
            },
        );
        assert_eq!(format_insn(&lf), "(p16) lfetch.nt1 [r43]");

        let lfx = Insn::new(Op::Lfetch {
            base: 43,
            post_inc: 128,
            hint: LfetchHint::Nt1,
            excl: true,
        });
        assert_eq!(format_insn(&lfx), "lfetch.nt1.excl [r43],128");

        let ld = Insn::pred(
            16,
            Op::Ldfd {
                dest: 32,
                base: 2,
                post_inc: 8,
            },
        );
        assert_eq!(format_insn(&ld), "(p16) ldfd f32=[r2],8");

        let fma = Insn::pred(
            21,
            Op::FmaD {
                dest: 44,
                f1: 6,
                f2: 37,
                f3: 43,
            },
        );
        assert_eq!(format_insn(&fma), "(p21) fma.d f44=f6,f37,f43");

        let st = Insn::pred(
            23,
            Op::Stfd {
                src: 46,
                base: 40,
                post_inc: 0,
            },
        );
        assert_eq!(format_insn(&st), "(p23) stfd [r40]=f46");

        assert_eq!(
            format_insn(&Insn::new(Op::Nop { unit: Unit::B })),
            "nop.b 0"
        );
        assert_eq!(
            format_insn(&Insn::new(Op::Cmp {
                p1: 6,
                p2: 7,
                rel: CmpRel::Ltu,
                r2: 1,
                r3: 2
            })),
            "cmp.ltu p6,p7=r1,r2"
        );
        assert_eq!(
            format_insn(&Insn::new(Op::Ld8 {
                dest: 3,
                base: 4,
                post_inc: 0,
                bias: true
            })),
            "ld8.bias r3=[r4]"
        );
    }

    #[test]
    fn bundle_rendering_includes_template_and_comments() {
        let mut a = Assembler::new();
        a.symbol("b1_22");
        a.comment("load x[i], i++");
        a.ldfd(16, 32, 2, 8);
        a.lfetch_nt1(16, 43, 0);
        a.nop(Unit::B);
        let img = a.finish();
        let text = disasm_image(&img);
        assert!(text.contains(".b1_22:"), "{text}");
        assert!(text.contains("{ .mmb"), "{text}");
        assert!(text.contains("// load x[i], i++"), "{text}");
        assert!(text.contains("(p16) lfetch.nt1 [r43]"), "{text}");
    }

    #[test]
    fn every_op_formats_without_panicking() {
        use crate::encode::{decode, encode};
        // Round-trip a broad instruction sample through format to ensure no
        // panics and non-empty output.
        let ops = [
            Op::FdivD {
                dest: 1,
                f1: 2,
                f2: 3,
            },
            Op::FsqrtD { dest: 1, f1: 2 },
            Op::Clrrrb,
            Op::Hlt,
            Op::MovToEc { src: 9 },
            Op::SetfSig { dest: 1, src: 2 },
            Op::Sub {
                dest: 1,
                r2: 2,
                r3: 3,
            },
        ];
        for op in ops {
            let insn = Insn::new(op);
            let s = format_insn(&insn);
            assert!(!s.is_empty());
            // and the encoding round-trips
            assert_eq!(decode(encode(&insn)).unwrap(), insn);
        }
    }
}
