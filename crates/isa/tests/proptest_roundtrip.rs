//! Property tests: every well-formed instruction round-trips through the
//! binary encoding, and arbitrary 64-bit words never panic the decoder and
//! decode only when they are the word `encode` writes.

use cobra_isa::insn::Op;
use cobra_isa::{decode, encode, CmpRel, Insn, LfetchHint, Unit};
use proptest::prelude::*;

fn arb_reg() -> impl Strategy<Value = u8> {
    0u8..128
}

fn arb_pr() -> impl Strategy<Value = u8> {
    0u8..64
}

fn arb_imm22() -> impl Strategy<Value = i32> {
    -(1i32 << 21)..(1i32 << 21)
}

fn arb_rel() -> impl Strategy<Value = CmpRel> {
    prop_oneof![
        Just(CmpRel::Eq),
        Just(CmpRel::Ne),
        Just(CmpRel::Lt),
        Just(CmpRel::Le),
        Just(CmpRel::Gt),
        Just(CmpRel::Ge),
        Just(CmpRel::Ltu),
        Just(CmpRel::Geu),
    ]
}

fn arb_hint() -> impl Strategy<Value = LfetchHint> {
    prop_oneof![
        Just(LfetchHint::None),
        Just(LfetchHint::Nt1),
        Just(LfetchHint::Nt2),
        Just(LfetchHint::Nta),
    ]
}

fn arb_unit() -> impl Strategy<Value = Unit> {
    prop_oneof![Just(Unit::M), Just(Unit::I), Just(Unit::F), Just(Unit::B)]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_reg(), arb_reg(), arb_imm22(), any::<bool>()).prop_map(
            |(dest, base, post_inc, bias)| Op::Ld8 {
                dest,
                base,
                post_inc,
                bias
            }
        ),
        (arb_reg(), arb_reg(), arb_imm22()).prop_map(|(src, base, post_inc)| Op::St8 {
            src,
            base,
            post_inc
        }),
        (arb_reg(), arb_reg(), arb_imm22()).prop_map(|(dest, base, post_inc)| Op::Ldfd {
            dest,
            base,
            post_inc
        }),
        (arb_reg(), arb_reg(), arb_imm22()).prop_map(|(src, base, post_inc)| Op::Stfd {
            src,
            base,
            post_inc
        }),
        (arb_reg(), arb_imm22(), arb_hint(), any::<bool>()).prop_map(
            |(base, post_inc, hint, excl)| Op::Lfetch {
                base,
                post_inc,
                hint,
                excl
            }
        ),
        (arb_reg(), arb_reg(), arb_imm22()).prop_map(|(dest, base, inc)| Op::FetchAdd8 {
            dest,
            base,
            inc
        }),
        (arb_reg(), arb_reg(), arb_reg(), arb_reg()).prop_map(|(dest, base, new, cmp)| {
            Op::Cmpxchg8 {
                dest,
                base,
                new,
                cmp,
            }
        }),
        (arb_reg(), arb_reg(), arb_reg(), arb_reg()).prop_map(|(dest, f1, f2, f3)| Op::FmaD {
            dest,
            f1,
            f2,
            f3
        }),
        (arb_reg(), arb_reg(), arb_reg(), arb_reg()).prop_map(|(dest, f1, f2, f3)| Op::FmsD {
            dest,
            f1,
            f2,
            f3
        }),
        (arb_reg(), arb_reg(), arb_reg()).prop_map(|(dest, f1, f2)| Op::FaddD { dest, f1, f2 }),
        (arb_reg(), arb_reg(), arb_reg()).prop_map(|(dest, f1, f2)| Op::FdivD { dest, f1, f2 }),
        (arb_pr(), arb_pr(), arb_rel(), arb_reg(), arb_reg()).prop_map(|(p1, p2, rel, f1, f2)| {
            Op::FcmpD {
                p1,
                p2,
                rel,
                f1,
                f2,
            }
        }),
        (arb_reg(), arb_reg(), arb_reg()).prop_map(|(dest, r2, r3)| Op::Add { dest, r2, r3 }),
        (arb_reg(), arb_reg(), arb_imm22()).prop_map(|(dest, src, imm)| Op::AddI {
            dest,
            src,
            imm
        }),
        (arb_reg(), arb_reg(), 0u8..64).prop_map(|(dest, src, count)| Op::ShlI {
            dest,
            src,
            count
        }),
        (arb_reg(), -(1i64 << 42)..(1i64 << 42)).prop_map(|(dest, imm)| Op::MovI { dest, imm }),
        (arb_pr(), arb_pr(), arb_rel(), arb_reg(), arb_reg()).prop_map(|(p1, p2, rel, r2, r3)| {
            Op::Cmp {
                p1,
                p2,
                rel,
                r2,
                r3,
            }
        }),
        (arb_pr(), arb_pr(), arb_rel(), arb_imm22(), arb_reg()).prop_map(
            |(p1, p2, rel, imm, r3)| Op::CmpI {
                p1,
                p2,
                rel,
                imm,
                r3
            }
        ),
        any::<u32>().prop_map(|target| Op::BrCond { target }),
        any::<u32>().prop_map(|target| Op::BrCtop { target }),
        any::<u32>().prop_map(|target| Op::BrCloop { target }),
        any::<u32>().prop_map(|target| Op::BrWtop { target }),
        any::<u32>().prop_map(|target| Op::BrCall { target }),
        Just(Op::BrRet),
        arb_reg().prop_map(|src| Op::MovToLc { src }),
        arb_reg().prop_map(|src| Op::MovToEc { src }),
        arb_reg().prop_map(|dest| Op::MovFromLc { dest }),
        arb_reg().prop_map(|dest| Op::MovFromEc { dest }),
        Just(Op::Clrrrb),
        arb_unit().prop_map(|unit| Op::Nop { unit }),
        Just(Op::Hlt),
        (arb_reg(), arb_reg()).prop_map(|(dest, src)| Op::SetfD { dest, src }),
        (arb_reg(), arb_reg()).prop_map(|(dest, src)| Op::GetfSig { dest, src }),
        (arb_reg(), arb_reg()).prop_map(|(dest, src)| Op::FcvtXf { dest, src }),
    ]
}

fn arb_insn() -> impl Strategy<Value = Insn> {
    (arb_pr(), arb_op()).prop_map(|(qp, op)| Insn { qp, op })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn encode_decode_roundtrip(insn in arb_insn()) {
        let word = encode(&insn);
        let back = decode(word).expect("well-formed instruction must decode");
        prop_assert_eq!(back, insn);
    }

    #[test]
    fn decode_is_total_and_never_panics(word in prop_oneof![
        any::<u64>(),
        // A well-formed word with one bit flipped: near the words that decode.
        (arb_insn(), 0u32..64).prop_map(|(insn, bit)| encode(&insn) ^ (1 << bit)),
    ]) {
        // Either decodes or returns an error; a word that decodes is the one
        // word of its instruction, the word `encode` writes.
        if let Ok(insn) = decode(word) {
            prop_assert_eq!(encode(&insn), word);
        }
    }

    #[test]
    fn disasm_never_panics(insn in arb_insn()) {
        let text = cobra_isa::disasm::format_insn(&insn);
        prop_assert!(!text.is_empty());
    }
}
