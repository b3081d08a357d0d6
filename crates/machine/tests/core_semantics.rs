//! Per-instruction execution semantics of the core: every ISA operation is
//! exercised through a tiny program and checked against its architectural
//! definition (values, flags, control flow, rotation).

use cobra_isa::insn::{CmpRel, Insn, Op, Unit};
use cobra_isa::Assembler;
use cobra_machine::{Machine, MachineConfig};

/// Assemble, run on CPU 0, return the machine (halted).
fn run(build: impl FnOnce(&mut Assembler)) -> Machine {
    let mut a = Assembler::new();
    build(&mut a);
    a.hlt();
    let mut m = Machine::new(MachineConfig::smp4(), a.finish());
    m.spawn_thread(0, 0, &[]);
    let r = m.run(1_000_000);
    assert!(r.halted, "program did not halt");
    m
}

fn run_args(args: &[i64], build: impl FnOnce(&mut Assembler)) -> Machine {
    let mut a = Assembler::new();
    build(&mut a);
    a.hlt();
    let mut m = Machine::new(MachineConfig::smp4(), a.finish());
    m.spawn_thread(0, 0, args);
    let r = m.run(1_000_000);
    assert!(r.halted);
    m
}

#[test]
fn integer_alu_semantics() {
    let m = run(|a| {
        a.movi(4, 100);
        a.movi(5, 7);
        a.emit(Insn::new(Op::Add {
            dest: 10,
            r2: 4,
            r3: 5,
        }));
        a.emit(Insn::new(Op::Sub {
            dest: 11,
            r2: 4,
            r3: 5,
        }));
        a.emit(Insn::new(Op::Mul {
            dest: 12,
            r2: 4,
            r3: 5,
        }));
        a.addi(17, 4, -1);
    });
    assert_eq!(m.core(0).gr(10), 107);
    assert_eq!(m.core(0).gr(11), 93);
    assert_eq!(m.core(0).gr(12), 700);
    assert_eq!(m.core(0).gr(17), 99);
}

#[test]
fn shifts_are_logical_and_arithmetic() {
    let m = run(|a| {
        a.movi(4, -16);
        a.emit(Insn::new(Op::ShlI {
            dest: 10,
            src: 4,
            count: 2,
        }));
        a.emit(Insn::new(Op::ShrI {
            dest: 11,
            src: 4,
            count: 2,
        }));
    });
    assert_eq!(m.core(0).gr(10), -64);
    assert_eq!(m.core(0).gr(11), ((-16i64 as u64) >> 2) as i64);
}

#[test]
fn gr0_reads_zero_and_ignores_writes() {
    let m = run(|a| {
        a.emit(Insn::new(Op::MovI { dest: 0, imm: 99 }));
        a.emit(Insn::new(Op::Add {
            dest: 10,
            r2: 0,
            r3: 0,
        }));
    });
    assert_eq!(m.core(0).gr(0), 0);
    assert_eq!(m.core(0).gr(10), 0);
}

#[test]
fn fr0_and_fr1_are_architectural_constants() {
    let m = run_args(&[7.5f64.to_bits() as i64], |a| {
        a.emit(Insn::new(Op::SetfD { dest: 6, src: 8 }));
        // f10 = f6 * f1 + f0 = 7.5
        a.emit(Insn::new(Op::FmaD {
            dest: 10,
            f1: 6,
            f2: 1,
            f3: 0,
        }));
        // writes to f0/f1 are ignored
        a.emit(Insn::new(Op::FmaD {
            dest: 0,
            f1: 6,
            f2: 6,
            f3: 6,
        }));
        a.emit(Insn::new(Op::FmaD {
            dest: 1,
            f1: 6,
            f2: 6,
            f3: 6,
        }));
        a.emit(Insn::new(Op::FsubD {
            dest: 11,
            f1: 1,
            f2: 0,
        }));
    });
    assert_eq!(m.core(0).fr(10), 7.5);
    assert_eq!(m.core(0).fr(11), 1.0, "f1 - f0 == 1 - 0");
}

#[test]
fn fp_arithmetic_matches_ieee() {
    let m = run_args(
        &[3.0f64.to_bits() as i64, (-2.5f64).to_bits() as i64],
        |a| {
            a.emit(Insn::new(Op::SetfD { dest: 6, src: 8 }));
            a.emit(Insn::new(Op::SetfD { dest: 7, src: 9 }));
            a.emit(Insn::new(Op::FsubD {
                dest: 11,
                f1: 6,
                f2: 7,
            }));
            a.emit(Insn::new(Op::FmulD {
                dest: 12,
                f1: 6,
                f2: 7,
            }));
            a.emit(Insn::new(Op::FdivD {
                dest: 13,
                f1: 6,
                f2: 7,
            }));
            a.emit(Insn::new(Op::FmaD {
                dest: 16,
                f1: 6,
                f2: 7,
                f3: 6,
            }));
        },
    );
    let c = m.core(0);
    assert_eq!(c.fr(11), 5.5);
    assert_eq!(c.fr(12), -7.5);
    assert_eq!(c.fr(13), 3.0 / -2.5);
    assert_eq!(c.fr(16), 3.0f64.mul_add(-2.5, 3.0));
}

#[test]
fn fsqrt_and_conversions() {
    let m = run_args(&[2.25f64.to_bits() as i64], |a| {
        a.emit(Insn::new(Op::SetfD { dest: 6, src: 8 }));
        a.emit(Insn::new(Op::FsqrtD { dest: 10, f1: 6 }));
        // int -> fp: 12345 through setf.sig + fcvt.xf
        a.movi(5, 12345);
        a.emit(Insn::new(Op::SetfSig { dest: 11, src: 5 }));
        a.emit(Insn::new(Op::FcvtXf { dest: 12, src: 11 }));
    });
    let c = m.core(0);
    assert_eq!(c.fr(10), 1.5);
    // setf.sig keeps the integer in the significand; setf.d moves raw bits.
    assert_eq!(c.fr(11).to_bits(), 12345);
    assert_eq!(c.fr(12), 12345.0);
    assert_eq!(c.fr(6).to_bits(), 2.25f64.to_bits());
}

#[test]
fn integer_and_float_compares_set_both_predicates() {
    let m = run_args(&[1.5f64.to_bits() as i64], |a| {
        a.movi(4, 10);
        a.movi(5, 20);
        a.cmp(6, 7, CmpRel::Lt, 4, 5); // p6=1 p7=0
        a.cmp(8, 9, CmpRel::Eq, 4, 5); // p8=0 p9=1
        a.emit(Insn::new(Op::CmpI {
            p1: 10,
            p2: 11,
            rel: CmpRel::Gt,
            imm: 15,
            r3: 4,
        })); // 15>10
        a.emit(Insn::new(Op::SetfD { dest: 6, src: 8 }));
        a.emit(Insn::new(Op::FcmpD {
            p1: 12,
            p2: 13,
            rel: CmpRel::Ge,
            f1: 6,
            f2: 1,
        })); // 1.5>=1.0
    });
    let c = m.core(0);
    assert!(c.pr(6) && !c.pr(7));
    assert!(!c.pr(8) && c.pr(9));
    assert!(c.pr(10) && !c.pr(11));
    assert!(c.pr(12) && !c.pr(13));
}

#[test]
fn p0_is_always_true_and_write_protected() {
    let m = run(|a| {
        // cmp writing into p0 must not clear it
        a.cmp(0, 7, CmpRel::Ne, 0, 0); // result false -> tries p0=0, p7=1
        a.emit(Insn::pred(0, Op::MovI { dest: 10, imm: 42 })); // still executes
    });
    assert!(m.core(0).pr(0));
    assert_eq!(m.core(0).gr(10), 42);
}

#[test]
fn predicated_off_instruction_has_no_side_effects() {
    let m = run(|a| {
        a.movi(4, 0x2000);
        a.cmp(6, 7, CmpRel::Ne, 0, 0); // p6 = false, p7 = true
        a.emit(Insn::pred(6, Op::MovI { dest: 10, imm: 1 }));
        a.emit(Insn::pred(
            6,
            Op::St8 {
                src: 4,
                base: 4,
                post_inc: 8,
            },
        )); // no store, no post-inc
        a.emit(Insn::pred(7, Op::MovI { dest: 11, imm: 2 }));
    });
    assert_eq!(m.core(0).gr(10), 0);
    assert_eq!(m.core(0).gr(11), 2);
    assert_eq!(m.core(0).gr(4), 0x2000, "post-increment must be squashed");
    assert_eq!(m.shared.mem.read_u64(0x2000), 0);
}

#[test]
fn post_increment_applies_after_address_use() {
    let m = run(|a| {
        a.movi(4, 0x3000);
        a.movi(5, 77);
        a.st8(0, 5, 4, 8);
        a.st8(0, 5, 4, 8);
        a.movi(6, 0x3000);
        a.ld8(0, 10, 6, 8);
        a.ld8(0, 11, 6, -8); // post-decrement
    });
    assert_eq!(m.shared.mem.read_u64(0x3000), 77);
    assert_eq!(m.shared.mem.read_u64(0x3008), 77);
    assert_eq!(m.core(0).gr(10), 77);
    assert_eq!(m.core(0).gr(11), 77);
    assert_eq!(m.core(0).gr(6), 0x3000, "+8 then -8");
}

#[test]
fn br_cond_taken_and_fallthrough() {
    let m = run(|a| {
        let skip = a.new_label();
        let out = a.new_label();
        a.cmp(6, 7, CmpRel::Eq, 0, 0); // p6 true
        a.br_cond(6, skip);
        a.movi(10, 111); // skipped
        a.bind(skip);
        a.br_cond(7, out); // p7 false: falls through
        a.movi(11, 222); // executed
        a.bind(out);
    });
    assert_eq!(m.core(0).gr(10), 0);
    assert_eq!(m.core(0).gr(11), 222);
}

#[test]
fn mov_to_lc_sets_the_loop_count() {
    let m = run(|a| {
        a.movi(5, 55);
        a.mov_to_lc(5);
    });
    assert_eq!(m.core(0).lc(), 55);
}

#[test]
fn wtop_loops_while_predicate_holds() {
    let m = run(|a| {
        a.movi(4, 5); // countdown
        a.movi(5, 0); // iterations executed
        let top = a.new_label();
        a.bind(top);
        a.addi(5, 5, 1);
        a.addi(4, 4, -1);
        a.cmp(8, 9, CmpRel::Gt, 4, 0);
        a.br_wtop(8, top);
    });
    assert_eq!(m.core(0).gr(5), 5);
}

#[test]
fn register_rotation_carries_values_across_iterations() {
    // Write f32 each iteration; 3 iterations later the value must be
    // visible as f35 (the SWP pipeline mechanism).
    let m = run(|a| {
        a.emit(Insn::new(Op::Clrrrb));
        a.movi(4, 5);
        a.mov_to_lc(4);
        a.movi(5, 0); // i
        a.movi(6, 0x6000);
        let top = a.new_label();
        a.bind(top);
        // f32 = (f64) i  via setf.sig + fcvt
        a.emit(Insn::new(Op::SetfSig { dest: 32, src: 5 }));
        a.emit(Insn::new(Op::FcvtXf { dest: 32, src: 32 }));
        // store f35 (value produced 3 iterations ago)
        a.stfd(0, 35, 6, 8);
        a.addi(5, 5, 1);
        a.br_ctop(top);
    });
    // Iteration k stores the f32 of iteration k-3: first valid at k=3
    // storing 0.0, then 1.0, 2.0 at k=4,5 (6 total iterations: LC=5).
    let vals = m.shared.mem.read_f64_slice(0x6000, 6);
    assert_eq!(&vals[3..6], &[0.0, 1.0, 2.0]);
}

#[test]
fn ctop_epilogue_count_drains_pipeline() {
    // LC=2, EC=3: kernel runs LC+1=3 times with p16, then 2 epilogue
    // rotations with p16 false; total taken branches = LC + EC - 1.
    let m = run(|a| {
        a.emit(Insn::new(Op::Clrrrb));
        a.movi(4, 2);
        a.mov_to_lc(4);
        a.movi(5, 3);
        a.mov_to_ec(5);
        a.cmp(16, 15, CmpRel::Eq, 0, 0); // prime p16
        a.movi(7, 0); // p16-guarded counter
        a.movi(8, 0); // total iteration counter
        let top = a.new_label();
        a.bind(top);
        a.emit(Insn::pred(
            16,
            Op::AddI {
                dest: 7,
                src: 7,
                imm: 1,
            },
        ));
        a.addi(8, 8, 1);
        a.br_ctop(top);
    });
    assert_eq!(m.core(0).gr(7), 3, "p16 true for LC+1 iterations");
    assert_eq!(m.core(0).gr(8), 5, "LC + EC total iterations");
    assert_eq!(m.core(0).lc(), 0);
}

#[test]
fn clrrrb_resets_rotation() {
    let m = run_args(&[9.0f64.to_bits() as i64], |a| {
        a.emit(Insn::new(Op::Clrrrb));
        a.movi(4, 1);
        a.mov_to_lc(4);
        a.movi(5, 1);
        a.mov_to_ec(5);
        let top = a.new_label();
        a.bind(top);
        a.br_ctop(top); // rotates twice
        a.emit(Insn::new(Op::Clrrrb));
        // After clrrrb, a write to f32 is readable as f32 again.
        a.emit(Insn::new(Op::SetfD { dest: 32, src: 8 }));
    });
    assert_eq!(m.core(0).fr(32), 9.0);
}

#[test]
fn fdiv_latency_exceeds_fma_latency() {
    let cycles_of = |long: bool| {
        let m = run_args(&[3.0f64.to_bits() as i64], move |a| {
            a.emit(Insn::new(Op::SetfD { dest: 6, src: 8 }));
            for _ in 0..8 {
                if long {
                    a.emit(Insn::new(Op::FdivD {
                        dest: 7,
                        f1: 6,
                        f2: 6,
                    }));
                } else {
                    a.emit(Insn::new(Op::FmaD {
                        dest: 7,
                        f1: 6,
                        f2: 6,
                        f3: 6,
                    }));
                }
                // immediate consumer forces the stall
                a.emit(Insn::new(Op::FsubD {
                    dest: 8,
                    f1: 7,
                    f2: 7,
                }));
            }
        });
        m.cycle()
    };
    assert!(
        cycles_of(true) > cycles_of(false) + 8 * 10,
        "fdiv chains must stall much longer than fma chains"
    );
}

#[test]
fn nops_of_every_unit_retire() {
    let m = run(|a| {
        for unit in [Unit::M, Unit::I, Unit::F, Unit::B] {
            a.nop(unit);
        }
        a.movi(10, 5);
    });
    assert_eq!(m.core(0).gr(10), 5);
}

#[test]
fn ld8_bias_acquires_exclusive_ownership() {
    let mut a = Assembler::new();
    a.movi(4, 0x7000);
    a.emit(Insn::new(Op::Ld8 {
        dest: 10,
        base: 4,
        post_inc: 0,
        bias: true,
    }));
    a.hlt();
    let mut m = Machine::new(MachineConfig::smp4(), a.finish());
    m.shared.mem.write_u64(0x7000, 99);
    m.spawn_thread(0, 0, &[]);
    assert!(m.run(100_000).halted);
    assert_eq!(m.core(0).gr(10), 99);
    use cobra_machine::Mesi;
    assert_eq!(m.shared.memsys.peek_state(0, 0x7000), Some(Mesi::Exclusive));
}
