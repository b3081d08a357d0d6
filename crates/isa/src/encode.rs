//! Binary encoding: one instruction slot per 64-bit word.
//!
//! COBRA is a *binary* optimizer — the framework reads instruction words out
//! of a running program's text segment, decides which ones to change, and
//! writes new words back (into the original text for `noprefetch`, into a
//! trace cache for relocated loops). This module defines the concrete word
//! format those rewrites operate on, with an exact round-trip guarantee:
//! `decode(encode(i)) == Ok(i)` for every well-formed [`Insn`], and
//! `encode(decode(w)?) == w` for every word: an instruction has one word.
//!
//! ## Word layout
//!
//! ```text
//!  63      56 55    50 49    43 42    36 35    29 28    22 21           0
//! +----------+--------+--------+--------+--------+--------+--------------+
//! |  opcode  |   qp   |   a    |   b    |   c    |   d    |    imm22     |
//! +----------+--------+--------+--------+--------+--------+--------------+
//! ```
//!
//! * `a`–`d` are 7-bit register/operand fields.
//! * `imm22` is a 22-bit two's-complement immediate (post-increments,
//!   `adds`/`cmp` immediates, comparison relations).
//! * Branch instructions place a 32-bit absolute slot address in bits
//!   `[31:0]` (long-branch form, so trace-cache targets anywhere in the image
//!   are reachable — the property COBRA's code deployment relies on).
//! * `movl` places a 43-bit sign-extended immediate in bits `[42:0]`.
//!
//! Where each opcode's fields sit is stated once, in the instruction table
//! at the foot of this module; [`encode`], [`decode`] and [`Op::unit`] are
//! generated from it. Encoding panics on out-of-range operands (those are
//! code-generator bugs); decoding is total over `u64` and returns
//! [`DecodeError`] on malformed words, which the patch validator in
//! [`crate::CodeImage`] uses to reject corrupt patches. A word with a bit set
//! outside its opcode's fields is malformed.

use crate::insn::{CmpRel, Insn, LfetchHint, Op, Unit};

/// Why a word failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// A predicate-register field exceeded `p63`.
    BadPredicate(u8),
    /// An enumerated sub-field (unit, shift count) was invalid, or a bit
    /// outside the opcode's fields was set (`"unused bits"`, with the word).
    BadSubfield(&'static str, u64),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadOpcode(op) => write!(f, "unknown opcode {op:#x}"),
            DecodeError::BadPredicate(p) => write!(f, "predicate register p{p} out of range"),
            DecodeError::BadSubfield(what, v) => write!(f, "invalid {what} field value {v}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Where a field sits in the word: `width` bits up from bit `lo`. A `u8`
/// field's values also stop below `bound`; `what` names the field in a
/// panic or a [`DecodeError`].
#[derive(Clone, Copy)]
struct Slot {
    lo: u32,
    width: u32,
    bound: u64,
    what: &'static str,
}

const PREDICATE: &str = "predicate register";

const fn slot(lo: u32, width: u32, bound: u64, what: &'static str) -> Slot {
    Slot {
        lo,
        width,
        bound,
        what,
    }
}

// The slots: `a`..`d` as registers (`R*`) or predicates (`P*`), and the
// sub-field placements some opcodes use.
const QP: Slot = slot(50, 6, 64, PREDICATE);
const RA: Slot = slot(43, 7, 128, "register number");
const RB: Slot = slot(36, 7, 128, "register number");
const RC: Slot = slot(29, 7, 128, "register number");
const RD: Slot = slot(22, 7, 128, "register number");
const PA: Slot = slot(43, 7, 64, PREDICATE);
const PB: Slot = slot(36, 7, 64, PREDICATE);
const COUNT: Slot = slot(29, 7, 64, "shift count");
const IMM22: Slot = slot(0, 22, 0, "immediate");
const IMM43: Slot = slot(0, 43, 0, "movl immediate");
const TARGET: Slot = slot(0, 32, 0, "branch target");
/// `cmp`'s and `fcmp`'s relation: imm[2:0].
const REL: Slot = slot(0, 3, 0, "cmp relation");
/// `cmp.i`'s relation: d[2:0].
const REL_D: Slot = slot(22, 3, 0, "cmp relation");
/// `lfetch`'s hint is b[1:0] and `.excl` b[2].
const HINT: Slot = slot(36, 2, 0, "lfetch hint");
const EXCL: Slot = slot(38, 1, 0, "excl");
/// `ld8`'s `.bias`: c[0].
const BIAS: Slot = slot(29, 1, 0, "bias");
const UNIT: Slot = slot(43, 7, 0, "nop unit");

/// One of the eight types an [`Op`] field has: how its value becomes the
/// bits of its slot, and back.
trait Field: Sized {
    /// The value's bits, in the low `s.width`; panics when it does not fit.
    fn to_bits(self, s: Slot) -> u64;
    /// The value `bits` (the slot's, shifted down) spell.
    fn from_bits(bits: u64, s: Slot) -> Result<Self, DecodeError>;
}

impl Field for u8 {
    fn to_bits(self, s: Slot) -> u64 {
        assert!(u64::from(self) < s.bound, "{} {self} out of range", s.what);
        self.into()
    }

    fn from_bits(bits: u64, s: Slot) -> Result<u8, DecodeError> {
        if bits < s.bound {
            Ok(bits as u8)
        } else if s.what == PREDICATE {
            Err(DecodeError::BadPredicate(bits as u8))
        } else {
            Err(DecodeError::BadSubfield(s.what, bits))
        }
    }
}

impl Field for i64 {
    fn to_bits(self, s: Slot) -> u64 {
        let half = 1i64 << (s.width - 1);
        assert!(
            (-half..half).contains(&self),
            "{} {self} does not fit in {} bits",
            s.what,
            s.width
        );
        self as u64
    }

    fn from_bits(bits: u64, s: Slot) -> Result<i64, DecodeError> {
        let pad = 64 - s.width;
        Ok(((bits << pad) as i64) >> pad)
    }
}

impl Field for i32 {
    fn to_bits(self, s: Slot) -> u64 {
        i64::from(self).to_bits(s)
    }

    fn from_bits(bits: u64, s: Slot) -> Result<i32, DecodeError> {
        // The slot is at most 22 bits wide, so the value fits.
        i64::from_bits(bits, s).map(|v| v as i32)
    }
}

impl Field for u32 {
    fn to_bits(self, _: Slot) -> u64 {
        self.into()
    }

    fn from_bits(bits: u64, _: Slot) -> Result<u32, DecodeError> {
        Ok(bits as u32)
    }
}

impl Field for bool {
    fn to_bits(self, _: Slot) -> u64 {
        self.into()
    }

    fn from_bits(bits: u64, _: Slot) -> Result<bool, DecodeError> {
        Ok(bits != 0)
    }
}

/// An enumerated field's code is its variant's place in the list.
macro_rules! enum_fields {
    ($($t:ident [$($v:ident),*])*) => {$(
        impl Field for $t {
            fn to_bits(self, _: Slot) -> u64 {
                let code = [$($t::$v),*].iter().position(|&v| v == self);
                code.expect("every variant is listed") as u64
            }

            fn from_bits(bits: u64, s: Slot) -> Result<$t, DecodeError> {
                [$($t::$v),*]
                    .get(bits as usize)
                    .copied()
                    .ok_or(DecodeError::BadSubfield(s.what, bits))
            }
        }
    )*};
}

enum_fields! {
    CmpRel [Eq, Ne, Lt, Le, Gt, Ge, Ltu, Geu]
    LfetchHint [None, Nt1, Nt2, Nta]
    Unit [M, I, F, B]
}

/// `value` placed in its slot of a word.
fn put<T: Field>(value: T, s: Slot) -> u64 {
    (value.to_bits(s) & ((1u64 << s.width) - 1)) << s.lo
}

/// The value in `word`'s slot `s`.
fn get<T: Field>(word: u64, s: Slot) -> Result<T, DecodeError> {
    T::from_bits((word >> s.lo) & ((1u64 << s.width) - 1), s)
}

/// The instruction table: per [`Op`] variant its opcode byte (`[63:56]`),
/// its unit (`nop`'s is its field) and the slot of each field. [`encode`],
/// [`decode`] and [`Op::unit`] are generated from it.
macro_rules! instructions {
    ($($v:ident = $opc:literal, $unit:ident { $($f:ident: $s:ident),* };)*) => {
        /// Encode an instruction into its 64-bit word.
        ///
        /// # Panics
        ///
        /// Panics when a register number or immediate is out of range for
        /// its field — such values can only come from a code-generator bug,
        /// never from data.
        pub fn encode(insn: &Insn) -> u64 {
            let op = match insn.op {
                $(Op::$v { $($f),* } => ($opc << 56) $(| put($f, $s))*,)*
            };
            op | put(insn.qp, QP)
        }

        /// Decode a 64-bit word back into an instruction: `Ok` exactly for
        /// the words [`encode`] writes.
        pub fn decode(word: u64) -> Result<Insn, DecodeError> {
            let op = match (word >> 56) as u8 {
                $($opc => Op::$v { $($f: get(word, $s)?),* },)*
                other => return Err(DecodeError::BadOpcode(other)),
            };
            let insn = Insn { qp: get(word, QP)?, op };
            if encode(&insn) != word {
                return Err(DecodeError::BadSubfield("unused bits", word));
            }
            Ok(insn)
        }

        impl Op {
            /// Execution unit for bundle packing and `nop.{m,i,f,b}`
            /// selection.
            #[allow(unused_variables)]
            pub fn unit(&self) -> Unit {
                use Unit::*;
                match *self {
                    $(Op::$v { $($f),* } => $unit,)*
                }
            }
        }
    };
}

// Opcode bytes are stable: gaps group the families, and the byte of a
// deleted opcode is not given to another.
instructions! {
    Ld8 = 1, M { dest: RA, base: RB, post_inc: IMM22, bias: BIAS };
    St8 = 2, M { src: RA, base: RB, post_inc: IMM22 };
    Ldfd = 3, M { dest: RA, base: RB, post_inc: IMM22 };
    Stfd = 4, M { src: RA, base: RB, post_inc: IMM22 };
    Lfetch = 5, M { base: RA, post_inc: IMM22, hint: HINT, excl: EXCL };

    FmaD = 10, F { dest: RA, f1: RB, f2: RC, f3: RD };
    FsubD = 13, F { dest: RA, f1: RB, f2: RC };
    FmulD = 14, F { dest: RA, f1: RB, f2: RC };
    FdivD = 15, F { dest: RA, f1: RB, f2: RC };
    FsqrtD = 16, F { dest: RA, f1: RB };
    FcmpD = 19, F { p1: PA, p2: PB, rel: REL, f1: RC, f2: RD };
    SetfD = 20, M { dest: RA, src: RB };
    SetfSig = 22, M { dest: RA, src: RB };
    FcvtXf = 24, F { dest: RA, src: RB };

    Add = 30, I { dest: RA, r2: RB, r3: RC };
    Sub = 31, I { dest: RA, r2: RB, r3: RC };
    AddI = 32, I { dest: RA, src: RB, imm: IMM22 };
    Mul = 33, I { dest: RA, r2: RB, r3: RC };
    ShlI = 34, I { dest: RA, src: RB, count: COUNT };
    ShrI = 35, I { dest: RA, src: RB, count: COUNT };
    MovI = 41, I { dest: RA, imm: IMM43 };
    Cmp = 42, I { p1: PA, p2: PB, rel: REL, r2: RC, r3: RD };
    CmpI = 43, I { p1: PA, p2: PB, rel: REL_D, imm: IMM22, r3: RC };

    BrCond = 50, B { target: TARGET };
    BrCtop = 51, B { target: TARGET };
    BrCloop = 52, B { target: TARGET };
    BrWtop = 53, B { target: TARGET };

    MovToLc = 60, I { src: RA };
    MovToEc = 61, I { src: RA };
    Clrrrb = 66, I {};

    Nop = 70, unit { unit: UNIT };
    Hlt = 71, B {};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{NOP_SLOT_I, NOP_SLOT_M};

    fn roundtrip(insn: Insn) {
        let word = encode(&insn);
        let back = decode(word).expect("decode failed");
        assert_eq!(back, insn, "round-trip mismatch for word {word:#018x}");
    }

    #[test]
    fn roundtrip_representative_instructions() {
        let samples = vec![
            Insn::pred(
                16,
                Op::Ldfd {
                    dest: 32,
                    base: 2,
                    post_inc: 8,
                },
            ),
            Insn::pred(
                16,
                Op::Lfetch {
                    base: 43,
                    post_inc: 128,
                    hint: LfetchHint::Nt1,
                    excl: false,
                },
            ),
            Insn::new(Op::Lfetch {
                base: 43,
                post_inc: -128,
                hint: LfetchHint::Nt1,
                excl: true,
            }),
            Insn::pred(
                23,
                Op::Stfd {
                    src: 46,
                    base: 40,
                    post_inc: 8,
                },
            ),
            Insn::pred(
                21,
                Op::FmaD {
                    dest: 44,
                    f1: 6,
                    f2: 37,
                    f3: 43,
                },
            ),
            Insn::new(Op::Ld8 {
                dest: 9,
                base: 10,
                post_inc: 0,
                bias: true,
            }),
            Insn::new(Op::St8 {
                src: 9,
                base: 10,
                post_inc: -8,
            }),
            Insn::new(Op::MovI {
                dest: 4,
                imm: (1 << 40) + 12345,
            }),
            Insn::new(Op::MovI {
                dest: 4,
                imm: -(1 << 40),
            }),
            Insn::new(Op::Cmp {
                p1: 6,
                p2: 7,
                rel: CmpRel::Ltu,
                r2: 3,
                r3: 4,
            }),
            Insn::new(Op::CmpI {
                p1: 6,
                p2: 0,
                rel: CmpRel::Ge,
                imm: -100,
                r3: 4,
            }),
            Insn::new(Op::FcmpD {
                p1: 8,
                p2: 9,
                rel: CmpRel::Lt,
                f1: 10,
                f2: 11,
            }),
            Insn::new(Op::BrCtop {
                target: 0xdead_beef,
            }),
            Insn::pred(7, Op::BrCond { target: 3 }),
            Insn::new(Op::BrWtop { target: 6 }),
            Insn::new(Op::BrCloop { target: 9 }),
            Insn::new(Op::MovToLc { src: 5 }),
            Insn::new(Op::MovToEc { src: 5 }),
            Insn::new(Op::Clrrrb),
            Insn::new(Op::Hlt),
            Insn::new(Op::ShlI {
                dest: 1,
                src: 2,
                count: 63,
            }),
            Insn::new(Op::SetfSig { dest: 33, src: 12 }),
            Insn::new(Op::FcvtXf { dest: 33, src: 33 }),
            NOP_SLOT_M,
            NOP_SLOT_I,
            Insn::new(Op::Nop { unit: Unit::F }),
            Insn::new(Op::Nop { unit: Unit::B }),
        ];
        for insn in samples {
            roundtrip(insn);
        }
    }

    #[test]
    fn branch_target_arithmetic_edge_cases_roundtrip() {
        // The target field occupies bits [31:0] of the word, below the
        // predicate at [55:50], so the full `CodeAddr` range must survive
        // encode/decode: target 0 (a backward branch to the image start),
        // a final-bundle address, a self-loop-sized small target, and the
        // extreme u32::MAX (no wrap into the qp/opcode fields).
        let targets = [0u32, 3, 0x7fff_fffd, u32::MAX - 2, u32::MAX];
        for &target in &targets {
            roundtrip(Insn::new(Op::BrCtop { target }));
            roundtrip(Insn::new(Op::BrCloop { target }));
            roundtrip(Insn::new(Op::BrWtop { target }));
            roundtrip(Insn::pred(63, Op::BrCond { target }));
        }
        // A max-target branch must still carry its predicate intact.
        let word = encode(&Insn::pred(63, Op::BrCond { target: u32::MAX }));
        let back = decode(word).unwrap();
        assert_eq!(back.qp, 63);
        assert_eq!(back.op.branch_target(), Some(u32::MAX));
    }

    #[test]
    fn lfetch_hint_and_excl_are_separate_bits() {
        for excl in [false, true] {
            for hint in [
                LfetchHint::None,
                LfetchHint::Nt1,
                LfetchHint::Nt2,
                LfetchHint::Nta,
            ] {
                roundtrip(Insn::new(Op::Lfetch {
                    base: 100,
                    post_inc: 1200,
                    hint,
                    excl,
                }));
            }
        }
    }

    #[test]
    fn noprefetch_rewrite_is_word_level() {
        // The core rewrite of the paper: lfetch word -> nop.m word.
        let lf = Insn::pred(
            16,
            Op::Lfetch {
                base: 43,
                post_inc: 0,
                hint: LfetchHint::Nt1,
                excl: false,
            },
        );
        let word = encode(&lf);
        let nop = encode(&NOP_SLOT_M);
        assert_ne!(word, nop);
        assert_eq!(decode(nop).unwrap().op, Op::Nop { unit: Unit::M });
    }

    #[test]
    fn excl_rewrite_preserves_everything_else() {
        let lf = Insn::pred(
            16,
            Op::Lfetch {
                base: 43,
                post_inc: 256,
                hint: LfetchHint::Nt1,
                excl: false,
            },
        );
        let word = encode(&lf);
        let mut decoded = decode(word).unwrap();
        if let Op::Lfetch { ref mut excl, .. } = decoded.op {
            *excl = true;
        }
        let reworded = encode(&decoded);
        let back = decode(reworded).unwrap();
        match back.op {
            Op::Lfetch {
                base,
                post_inc,
                hint,
                excl,
            } => {
                assert_eq!(
                    (base, post_inc, hint, excl),
                    (43, 256, LfetchHint::Nt1, true)
                );
            }
            other => panic!("unexpected decode {other:?}"),
        }
        assert_eq!(back.qp, 16);
    }

    #[test]
    fn bad_opcode_rejected() {
        assert!(matches!(
            decode(0xff << 56),
            Err(DecodeError::BadOpcode(0xff))
        ));
        assert!(decode(u64::MAX).is_err());
    }

    #[test]
    fn bad_predicate_rejected() {
        // qp field = 64 is invalid... qp is a 6-bit field, so it cannot
        // exceed 63 structurally; instead check p-field validation in cmp.
        let word = (42 << 56) | (64 << 43);
        assert!(matches!(decode(word), Err(DecodeError::BadPredicate(64))));
    }

    #[test]
    fn shift_count_past_63_is_rejected() {
        // `(p21) shl r19 = r122, 64`: the count field holds 64.
        assert_eq!(
            decode(0x2254_9fa8_0000_0000),
            Err(DecodeError::BadSubfield("shift count", 64))
        );
    }

    #[test]
    fn decode_accepts_only_the_words_encode_writes() {
        let lfetch = encode(&Insn::new(Op::Lfetch {
            base: 43,
            post_inc: 8,
            hint: LfetchHint::Nt1,
            excl: false,
        }));
        let nop_m = encode(&NOP_SLOT_M);
        // b[3], above the hint and `.excl`; imm[0], outside `nop`'s field.
        for word in [lfetch | 1 << 39, nop_m | 1] {
            assert_eq!(
                decode(word),
                Err(DecodeError::BadSubfield("unused bits", word))
            );
        }
    }

    #[test]
    #[should_panic(expected = "does not fit in 22 bits")]
    fn oversized_immediate_panics() {
        encode(&Insn::new(Op::AddI {
            dest: 1,
            src: 2,
            imm: 1 << 22,
        }));
    }

    #[test]
    #[should_panic(expected = "register number")]
    fn oversized_register_panics() {
        encode(&Insn::new(Op::Add {
            dest: 200,
            r2: 0,
            r3: 0,
        }));
    }

    #[test]
    fn movl_extremes_roundtrip() {
        roundtrip(Insn::new(Op::MovI {
            dest: 9,
            imm: (1 << 42) - 1,
        }));
        roundtrip(Insn::new(Op::MovI {
            dest: 9,
            imm: -(1 << 42),
        }));
        roundtrip(Insn::new(Op::MovI { dest: 9, imm: 0 }));
        roundtrip(Insn::new(Op::MovI { dest: 9, imm: -1 }));
    }

    #[test]
    fn negative_postinc_roundtrip() {
        roundtrip(Insn::new(Op::Ldfd {
            dest: 40,
            base: 41,
            post_inc: -(1 << 21),
        }));
        roundtrip(Insn::new(Op::Ldfd {
            dest: 40,
            base: 41,
            post_inc: (1 << 21) - 1,
        }));
    }

    /// One instruction per opcode, every field distinct and non-zero, held
    /// to the word this format has always written for it: the check that
    /// the instruction table moves no bit.
    #[test]
    fn every_opcode_writes_its_recorded_word() {
        use Op::*;
        #[rustfmt::skip]
        let cases = [
            (Insn::pred(1, Ld8 { dest: 3, base: 5, post_inc: -24, bias: true }), 0x0104_1850_203f_ffe8),
            (Insn::pred(2, St8 { src: 7, base: 9, post_inc: 16 }), 0x0208_3890_0000_0010),
            (Insn::pred(3, Ldfd { dest: 33, base: 11, post_inc: 8 }), 0x030d_08b0_0000_0008),
            (Insn::pred(4, Stfd { src: 34, base: 12, post_inc: -8 }), 0x0411_10c0_003f_fff8),
            (Insn::pred(16, Lfetch { base: 43, post_inc: 128, hint: LfetchHint::Nt2, excl: true }), 0x0541_5860_0000_0080),
            (Insn::pred(21, FmaD { dest: 44, f1: 6, f2: 37, f3: 43 }), 0x0a55_6064_aac0_0000),
            (Insn::pred(9, FsubD { dest: 47, f1: 9, f2: 40 }), 0x0d25_7895_0000_0000),
            (Insn::pred(10, FmulD { dest: 48, f1: 10, f2: 41 }), 0x0e29_80a5_2000_0000),
            (Insn::pred(11, FdivD { dest: 49, f1: 11, f2: 42 }), 0x0f2d_88b5_4000_0000),
            (Insn::pred(12, FsqrtD { dest: 50, f1: 12 }), 0x1031_90c0_0000_0000),
            (Insn::pred(15, FcmpD { p1: 6, p2: 7, rel: CmpRel::Le, f1: 32, f2: 33 }), 0x133c_3074_0840_0003),
            (Insn::pred(17, SetfD { dest: 53, src: 18 }), 0x1445_a920_0000_0000),
            (Insn::pred(19, SetfSig { dest: 55, src: 20 }), 0x164d_b940_0000_0000),
            (Insn::pred(22, FcvtXf { dest: 57, src: 58 }), 0x1859_cba0_0000_0000),
            (Insn::pred(24, Add { dest: 22, r2: 23, r3: 24 }), 0x1e60_b173_0000_0000),
            (Insn::pred(25, Sub { dest: 25, r2: 26, r3: 27 }), 0x1f64_c9a3_6000_0000),
            (Insn::pred(26, AddI { dest: 28, src: 29, imm: -100 }), 0x2068_e1d0_003f_ff9c),
            (Insn::pred(27, Mul { dest: 30, r2: 31, r3: 32 }), 0x216c_f1f4_0000_0000),
            (Insn::pred(28, ShlI { dest: 33, src: 34, count: 5 }), 0x2271_0a20_a000_0000),
            (Insn::pred(29, ShrI { dest: 35, src: 36, count: 17 }), 0x2375_1a42_2000_0000),
            (Insn::pred(35, MovI { dest: 50, imm: -(1 << 40) + 12345 }), 0x298d_9700_0000_3039),
            (Insn::pred(36, Cmp { p1: 8, p2: 9, rel: CmpRel::Ltu, r2: 51, r3: 52 }), 0x2a90_4096_6d00_0006),
            (Insn::pred(37, CmpI { p1: 10, p2: 11, rel: CmpRel::Ge, imm: -7, r3: 53 }), 0x2b94_50b6_a17f_fff9),
            (Insn::pred(38, BrCond { target: 0xdead_beef }), 0x3298_0000_dead_beef),
            (Insn::pred(39, BrCtop { target: 300 }), 0x339c_0000_0000_012c),
            (Insn::pred(40, BrCloop { target: 3 }), 0x34a0_0000_0000_0003),
            (Insn::pred(41, BrWtop { target: 6 }), 0x35a4_0000_0000_0006),
            (Insn::pred(44, MovToLc { src: 54 }), 0x3cb1_b000_0000_0000),
            (Insn::pred(45, MovToEc { src: 55 }), 0x3db5_b800_0000_0000),
            (Insn::pred(50, Clrrrb), 0x42c8_0000_0000_0000),
            (Insn::pred(51, Nop { unit: Unit::F }), 0x46cc_1000_0000_0000),
            (Insn::pred(52, Hlt), 0x47d0_0000_0000_0000),
        ];
        for (insn, word) in cases {
            assert_eq!(encode(&insn), word, "{insn:?}");
            assert_eq!(decode(word), Ok(insn), "{word:#018x}");
        }
    }
}
