//! Per-instruction def/use sets over the architectural register files:
//! [`Op::operands`](cobra_isa::insn::Op::operands), `cobra-isa`'s one
//! operand table, plus the qualifying predicate every [`Insn`] reads.

use cobra_isa::insn::Insn;
pub use cobra_isa::Reg;

/// Registers written by `insn` (the static upper bound: a nullified
/// instruction writes nothing at runtime).
pub fn defs(insn: &Insn) -> Vec<Reg> {
    insn.op.operands().defs().to_vec()
}

/// Registers read by `insn`, including the qualifying predicate when it is
/// not the hard-wired `p0`, and the base register of every post-increment
/// addressing form (read-modify-write).
pub fn uses(insn: &Insn) -> Vec<Reg> {
    let qp = (insn.qp != 0).then_some(Reg::Pr(insn.qp));
    qp.into_iter()
        .chain(insn.op.operands().uses().iter().copied())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_isa::insn::{CmpRel, LfetchHint, Op};

    #[test]
    fn post_increment_forms_both_use_and_def_the_base() {
        let lf = Insn::new(Op::Lfetch {
            base: 27,
            post_inc: 8,
            hint: LfetchHint::Nt1,
            excl: false,
        });
        assert!(uses(&lf).contains(&Reg::Gr(27)));
        assert!(defs(&lf).contains(&Reg::Gr(27)));

        let lf0 = Insn::new(Op::Lfetch {
            base: 27,
            post_inc: 0,
            hint: LfetchHint::Nt1,
            excl: false,
        });
        assert!(uses(&lf0).contains(&Reg::Gr(27)));
        assert!(!defs(&lf0).contains(&Reg::Gr(27)));
    }

    #[test]
    fn qualifying_predicate_is_a_use() {
        let st = Insn::pred(
            16,
            Op::St8 {
                src: 9,
                base: 10,
                post_inc: 0,
            },
        );
        assert!(uses(&st).contains(&Reg::Pr(16)));
        // p0 is hard-wired and never a dependence.
        let st0 = Insn::new(Op::St8 {
            src: 9,
            base: 10,
            post_inc: 0,
        });
        assert!(!uses(&st0).iter().any(|r| matches!(r, Reg::Pr(_))));
    }

    #[test]
    fn loop_branches_touch_loop_registers() {
        let ctop = Insn::new(Op::BrCtop { target: 0 });
        assert!(uses(&ctop).contains(&Reg::Lc));
        assert!(defs(&ctop).contains(&Reg::Lc));
        assert!(defs(&ctop).contains(&Reg::Ec));

        let movlc = Insn::new(Op::MovToLc { src: 31 });
        assert!(uses(&movlc).contains(&Reg::Gr(31)));
        assert!(defs(&movlc).contains(&Reg::Lc));
    }

    #[test]
    fn fma_reads_three_writes_one() {
        let fma = Insn::new(Op::FmaD {
            dest: 40,
            f1: 41,
            f2: 42,
            f3: 43,
        });
        assert_eq!(defs(&fma), vec![Reg::Fr(40)]);
        let u = uses(&fma);
        assert_eq!(u, vec![Reg::Fr(41), Reg::Fr(42), Reg::Fr(43)]);
    }

    #[test]
    fn cmp_defines_both_predicates() {
        let cmp = Insn::new(Op::Cmp {
            p1: 6,
            p2: 7,
            rel: CmpRel::Lt,
            r2: 1,
            r3: 2,
        });
        assert_eq!(defs(&cmp), vec![Reg::Pr(6), Reg::Pr(7)]);
    }
}
