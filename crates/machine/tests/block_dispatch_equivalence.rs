//! Bit-identical equivalence of the pre-decoded block engine against the
//! per-cycle reference loop.
//!
//! The fast engine executes out of a per-generation micro-op block cache,
//! with per-opcode-class fused dispatch arms, a stretch that runs a solo
//! core on a local clock, and interleaved pre-decoded cycles (the boundary
//! batch) whenever two or more cores run. Like everything else under
//! `HostAccel::Fast` it may only change how fast the simulator runs, never
//! what it computes: for any program (including predicated forms of every
//! opcode class), thread placement, HPM sampling configuration, budget
//! cutoff, and mid-run binary patching, the final cycle count, every per-CPU
//! event counter, the exact overflow capture stream, data memory, MESI
//! state and architectural register state must match the reference loop
//! exactly.

mod common;

use cobra_isa::insn::{Insn, Op};
use cobra_isa::{encode, Assembler, CmpRel, Unit};
use cobra_machine::{CoreStatus, Event, HostAccel, Machine, MachineConfig, SamplingConfig};
use common::{
    assert_equivalent, assert_equivalent_with, boot, mem_boundary_program, sampling, snapshot,
    LoopParams, Program, BODY_OPS,
};
use proptest::prelude::*;

/// Random counted loops over the whole op mix, with an optional HPM
/// sampling configuration per CPU (`event_sel == 4` leaves sampling off, so
/// stretches are bounded only by the budget).
fn params_strategy(max_threads: usize) -> impl Strategy<Value = LoopParams> {
    (
        any::<bool>(),
        1usize..=max_threads,
        any::<bool>(),
        0u8..5,
        50u64..1500,
        prop::collection::vec(0u8..BODY_OPS, 1..10),
        1u64..48,
    )
        .prop_map(
            |(altix, threads, share_base, event_sel, period, body, iters)| LoopParams {
                altix,
                threads,
                share_base,
                sampling: sampling(event_sel, period),
                body,
                iters,
                pipelined: false,
            },
        )
}

/// Workloads that keep two to eight cores *running together* — the regime
/// the boundary batch runs. Sampling stays in the mix: batches are then
/// capped by the budget rule rather than disabled, and must still be
/// bit-identical.
fn multicore_params_strategy() -> impl Strategy<Value = LoopParams> {
    params_strategy(8).prop_map(|mut p| {
        p.threads = p.threads.max(2);
        p
    })
}

/// The software-pipelined form of [`params_strategy`]: either machine, one
/// to eight threads, sampling on any of the four gated events or off.
fn pipelined_strategy() -> impl Strategy<Value = LoopParams> {
    params_strategy(8).prop_map(|p| LoopParams {
        pipelined: true,
        ..p
    })
}

/// Run in segments on both engines, patching one body slot between the
/// first two segments, reverting it (via the returned old word) before the
/// third and appending a trace before the last — so the block cache sees
/// builds, a patch invalidation possibly mid-block, a revert and a text
/// that grew, all mid-run. Every segment's snapshot must match the
/// reference loop, which has no cache to invalidate.
fn assert_patched_equivalent(p: &LoopParams, seg_budget: u64, patch_off: u32) {
    let (program, body_start, body_end) = p.program();
    let addr = body_start + patch_off % (body_end - body_start);
    assert_equivalent_with(&p.cfg(), &program, |m| {
        let mut snaps = Vec::new();
        let r = m.run(seg_budget);
        snaps.push(snapshot(m, r));
        let old = m
            .patch_word(
                addr,
                encode(&Insn::new(Op::AddI {
                    dest: 6,
                    src: 6,
                    imm: 5,
                })),
            )
            .expect("body slot is patchable");
        let r = m.run(seg_budget);
        snaps.push(snapshot(m, r));
        m.patch_word(addr, old).expect("revert patch is valid");
        let r = m.run(seg_budget);
        snaps.push(snapshot(m, r));
        m.append_trace(&[Insn::new(Op::Hlt)]);
        let r = m.run(seg_budget);
        snaps.push(snapshot(m, r));
        snaps
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Block dispatch and the per-cycle reference produce bit-identical
    /// simulations: cycles, counters, overflow capture streams (including
    /// overflows that fire mid-block), memory, and registers.
    #[test]
    fn block_dispatch_matches_reference(p in params_strategy(4)) {
        assert_equivalent(&p.cfg(), &p.program().0, 150_000);
    }

    /// Same property when the budget cuts the run off mid-flight — possibly
    /// mid-block, mid-stall, or both. The cutoff cycle and the resumable
    /// core state must be identical.
    #[test]
    fn block_dispatch_matches_reference_at_cutoff(
        p in params_strategy(2),
        budget in 100u64..3000,
    ) {
        assert_equivalent(&p.cfg(), &p.program().0, budget);
    }

    /// Patching and reverting a body instruction *between run segments* —
    /// while the cursor may sit mid-block — must invalidate exactly the
    /// stale blocks.
    #[test]
    fn mid_run_patch_and_revert_match_reference(
        p in params_strategy(2),
        seg_budget in 50u64..2000,
        patch_off in 0u32..16,
    ) {
        assert_patched_equivalent(&p, seg_budget, patch_off);
    }

    /// Multicore runs: with 2-8 cores running, the boundary batch and the
    /// per-cycle reference must produce bit-identical simulations — down to
    /// the MESI state of every touched line in every CPU's cache hierarchy.
    #[test]
    fn multicore_matches_reference(p in multicore_params_strategy()) {
        assert_equivalent(&p.cfg(), &p.program().0, 150_000);
    }

    /// The budget expiring mid-batch must cut the run at exactly the
    /// reference cycle, with every core left in a resumable state.
    #[test]
    fn multicore_matches_reference_at_cutoff(
        p in multicore_params_strategy(),
        budget in 100u64..3000,
    ) {
        assert_equivalent(&p.cfg(), &p.program().0, budget);
    }

    /// `run` in segments of 1..=130 cycles, so a boundary batch ends by
    /// budget on its first cycle or any later one, mid-stall and on a HITM
    /// cycle. Every segment's snapshot must match: the batch's bulk counters
    /// are in the per-CPU stats before `run` returns, and a snoop stall
    /// raised on a batch's last cycle is delivered on that cycle (nothing
    /// left in `snoop_stalls`).
    #[test]
    fn multicore_short_run_segments_match_reference(
        p in multicore_params_strategy(),
        segs in prop::collection::vec(1u64..=130, 1..12),
    ) {
        assert_equivalent_with(&p.cfg(), &p.program().0, |m| {
            let mut snaps = Vec::new();
            for &seg in segs.iter().cycle().take(64) {
                let r = m.run(seg);
                snaps.push(snapshot(m, r));
                if r.halted {
                    break;
                }
            }
            snaps
        });
    }

    /// Patch/revert between run segments while multiple cores sit mid-block:
    /// the cache invalidations must leave every core's cursor coherent.
    #[test]
    fn multicore_mid_run_patch_and_revert_match_reference(
        p in multicore_params_strategy(),
        seg_budget in 50u64..2000,
        patch_off in 0u32..16,
    ) {
        assert_patched_equivalent(&p, seg_budget, patch_off);
    }

    /// Software-pipelined `br.ctop` loops — `clrrrb`, rotating registers,
    /// stage predicates, the `ar.ec` epilogue — issued from their loop
    /// traces at every rotation residue they reach: cut by a budget that
    /// mostly lands mid-loop, then run to the end.
    #[test]
    fn pipelined_loops_match_reference(
        p in pipelined_strategy(),
        budget in 100u64..5000,
    ) {
        assert_equivalent_with(&p.cfg(), &p.program().0, |m| {
            let r = m.run(budget);
            let cut = snapshot(m, r);
            let r = m.run(150_000);
            (cut, snapshot(m, r))
        });
    }

    /// Patch, revert and append between segments of pipelined loops, with
    /// cursors inside a loop trace: each text mutation drops the block and
    /// its trace, and the core resumes at the same slot and residue.
    #[test]
    fn pipelined_patch_revert_and_append_match_reference(
        p in pipelined_strategy(),
        seg_budget in 50u64..2000,
        patch_off in 0u32..16,
    ) {
        assert_patched_equivalent(&p, seg_budget, patch_off);
    }
}

/// The outcome every fault case shares: the thread on CPU 0 dereferenced
/// `-8` and nothing past the fault executed.
fn assert_cpu0_faulted(m: &Machine) {
    assert_eq!(m.core(0).status, CoreStatus::Faulted);
    assert_eq!(
        m.core(0).fault.expect("fault recorded").addr,
        (-8i64) as u64
    );
    assert_eq!(m.core(0).gr(31), 0, "nothing executes past the fault");
}

/// A fault in the middle of a block must surface identically to the
/// reference: same fault address, same PC, same retired-instruction counts,
/// and nothing past the fault executes.
#[test]
fn fault_mid_block_matches_reference() {
    let mut a = Assembler::new();
    // A straight-line block: arithmetic, then a wild load, then a
    // sentinel that must never execute.
    a.movi(6, 10);
    a.addi(6, 6, 1);
    a.addi(6, 6, 2);
    a.movi(4, -8);
    a.ld8(0, 7, 4, 0);
    a.movi(31, 1);
    a.hlt();
    let program = Program::new(a.finish(), 1);
    assert_equivalent_with(&MachineConfig::smp4(), &program, |m| {
        let r = m.run(100_000);
        assert!(r.halted && r.faulted);
        assert_cpu0_faulted(m);
        let result = m.run(100_000);
        snapshot(m, result)
    });
}

/// An appended trace is executable under block dispatch: redirecting the
/// loop back edge into freshly appended code must behave exactly like the
/// reference loop.
#[test]
fn appended_trace_executes_identically() {
    let mut a = Assembler::new();
    a.movi(5, 40);
    a.mov_to_lc(5);
    let top = a.new_label();
    a.bind(top);
    let body = a.addi(6, 6, 1);
    a.br_cloop(top);
    a.hlt();
    let program = Program::new(a.finish(), 1);
    assert_equivalent_with(&MachineConfig::smp4(), &program, |m| {
        // Run halfway, then append a trace and patch the old body to jump
        // into it (simulating what cobra-rt's trace deployment does).
        let r1 = m.run(30);
        let trace = m.append_trace(&[
            Insn::new(Op::AddI {
                dest: 6,
                src: 6,
                imm: 1,
            }),
            Insn::new(Op::AddI {
                dest: 7,
                src: 7,
                imm: 1,
            }),
            Insn::new(Op::BrCond { target: body + 1 }),
        ]);
        m.patch_word(body, encode(&Insn::new(Op::BrCond { target: trace })))
            .expect("branch patch is valid");
        let r2 = m.run(100_000);
        assert!(r2.halted && !r2.faulted, "trace run completes");
        (r1, snapshot(m, r2))
    });
}

/// Pinned semantics for opcodes that have no fused arm and run through the
/// interpreter arm (`OpClass::Other`): shifts, immediate compares,
/// conditional forward branches (taken and fall-through), predicated `movi`
/// and double-precision add/multiply, next to one fixed-operand `adds`. The
/// block engine must agree with the reference *and* with the architecturally
/// expected values.
#[test]
fn widened_dispatch_classes_execute_identically() {
    let program = {
        let mut a = Assembler::new();
        a.movi(6, 5); // r6 = 5
        a.movi(7, -16); // r7 = -16
        a.emit(Insn::new(Op::ShlI {
            dest: 9,
            src: 6,
            count: 3,
        })); // r9 = 40
        a.emit(Insn::new(Op::ShrI {
            dest: 10,
            src: 7,
            count: 2,
        })); // r10 = -16 logically shifted: huge positive
        a.emit(Insn::new(Op::SarI {
            dest: 11,
            src: 7,
            count: 2,
        })); // r11 = -4
        a.emit(Insn::new(Op::CmpI {
            p1: 3,
            p2: 4,
            rel: CmpRel::Lt,
            imm: 20,
            r3: 6,
        })); // 20 < 5 is false: p3 = 0, p4 = 1
        a.emit(Insn::pred(4, Op::MovI { dest: 8, imm: 77 }));
        a.emit(Insn::pred(3, Op::MovI { dest: 8, imm: -1 }));
        a.emit(Insn::new(Op::FaddD {
            dest: 6,
            f1: 6,
            f2: 8,
        }));
        a.emit(Insn::new(Op::FmulD {
            dest: 8,
            f1: 8,
            f2: 6,
        }));
        a.cmp(1, 2, CmpRel::Lt, 6, 9); // 5 < 40: p1 = 1, p2 = 0
        let skip = a.new_label();
        a.br_cond(1, skip); // taken
        a.movi(4, 999); // skipped
        a.bind(skip);
        let join = a.new_label();
        a.br_cond(2, join); // fall-through
        a.addi(5, 5, 7); // executes: r5 = 7
        a.bind(join);
        a.hlt();
        Program::new(a.finish(), 1)
    };
    assert_equivalent_with(&MachineConfig::smp4(), &program, |m| {
        let r = m.run(100_000);
        assert!(r.halted && !r.faulted);
        let c = m.core(0);
        assert_eq!(c.gr(9), 40, "shl");
        assert_eq!(c.gr(10), (((-16i64) as u64) >> 2) as i64, "shr is logical");
        assert_eq!(c.gr(11), -4, "sar is arithmetic");
        assert_eq!(c.gr(8), 77, "cmpi picked the false side");
        assert_eq!(c.gr(4), 0, "taken br.cond skipped the movi");
        assert_eq!(c.gr(5), 7, "fall-through br.cond executed the addi");
        snapshot(m, r)
    });
}

/// The fused-class opcodes on both sides of the lowering rule. First a
/// `br.ctop` loop of ten iterations, which leaves the rotating bases at a
/// nonzero residue: `adds` into a rotating GR, `add` from one, `adds r0 = …`
/// (dropped) and `add` / `nop` under the rotating `p17` — all of which lower
/// to `OpClass::Other` — beside fixed `adds` that keep their arms. Then a
/// fixed-operand `br.cloop` loop, whose fused arms index the register files
/// directly while the bases are still rotated. The block engine must agree
/// with the reference and with the architecturally expected values.
#[test]
fn fused_class_opcodes_across_the_rotation_rule_execute_identically() {
    let program = {
        let mut a = Assembler::new();
        a.emit(Insn::new(Op::Clrrrb));
        a.movi(5, 9);
        a.mov_to_lc(5);
        a.movi(5, 1);
        a.mov_to_ec(5);
        a.cmp(16, 17, CmpRel::Eq, 0, 0); // p16 = 1, p17 = 0
        let ctop = a.new_label();
        a.bind(ctop);
        a.addi(6, 6, 1); // r6 = k in iteration k
        a.addi(32, 6, 0); // rotating destination: r32 = k
        a.emit(Insn::new(Op::Add {
            dest: 7,
            r2: 7,
            r3: 33,
        })); // rotating source: r33 = k - 1, last iteration's r32
        a.addi(0, 6, 5); // dropped: r0 stays 0
        a.addi(11, 0, 7); // r11 = 7 while r0 reads 0
        a.emit(Insn::pred(
            17,
            Op::Add {
                dest: 9,
                r2: 9,
                r3: 6,
            },
        )); // p17 is last iteration's p16: off in iteration 1 only
        a.emit(Insn::pred(17, Op::Nop { unit: Unit::I }));
        a.br_ctop(ctop);
        a.movi(5, 4);
        a.mov_to_lc(5);
        let cloop = a.new_label();
        a.bind(cloop);
        a.addi(10, 10, 4);
        a.emit(Insn::new(Op::Add {
            dest: 4,
            r2: 4,
            r3: 10,
        }));
        a.nop(Unit::I);
        a.br_cloop(cloop);
        a.hlt();
        Program::new(a.finish(), 1)
    };
    assert_equivalent_with(&MachineConfig::smp4(), &program, |m| {
        let r = m.run(100_000);
        assert!(r.halted && !r.faulted);
        let c = m.core(0);
        assert_eq!(c.gr(6), 10, "ten iterations of the br.ctop loop");
        assert_eq!((c.gr(32), c.gr(33)), (10, 9), "r32 renamed to r33");
        assert_eq!(c.gr(7), 45, "sum of k - 1 read through r33");
        assert_eq!(c.gr(11), 7, "the write to r0 was dropped");
        assert_eq!(c.gr(9), 54, "sum of k from 2, under p17");
        assert_eq!((c.gr(10), c.gr(4)), (20, 60), "five br.cloop iterations");
        snapshot(m, r)
    });
}

/// A loop program for [`loop_part_group_edges_match_reference`]: `r4` and
/// `r12` walk from the thread's base (`r8`) and `base + 0x2000`, the bases
/// are cleared, `lc = 12`, `ec = ec`, `p16 = 1` and `p17 = p18 = 0`; then
/// the loop `body`, closed by a `br.ctop` to its head, and after it three
/// `adds` and a `hlt`, which a group that falls out of the loop with slots
/// left issues into. With `skew`, the preheader opens with an `adds` that
/// waits on a load: every later group starts one slot later, and the loop
/// head is entered mid-group.
fn edge_loop(skew: bool, ec: i64, body: fn(&mut Assembler)) -> Program {
    let mut a = Assembler::new();
    if skew {
        a.ld8(0, 9, 8, 0);
        a.addi(9, 9, 1);
    }
    a.mov(4, 8);
    a.addi(12, 8, 0x2000);
    a.emit(Insn::new(Op::Clrrrb));
    a.movi(5, 12);
    a.mov_to_lc(5);
    a.movi(5, ec);
    a.mov_to_ec(5);
    a.cmp(16, 17, CmpRel::Eq, 0, 0);
    a.cmp(18, 15, CmpRel::Ne, 0, 0);
    let top = a.new_label();
    a.bind(top);
    body(&mut a);
    a.br_ctop(top);
    a.addi(9, 9, 1);
    a.addi(10, 9, 2);
    a.addi(11, 10, 3);
    a.hlt();
    Program::new(a.finish(), 1)
}

/// The edges of an issue group inside a traced loop part, each run alone
/// on CPU 0 (the solo stretch) and on CPUs 0 and 1 together (the boundary
/// batch), entered at a group start and mid-group, and each required to
/// match the reference:
/// - a group that stalls on its second or its third uop resumes at that
///   uop, not at the group's first (a `fma` waits on the `ldfd` before it);
/// - a `br.ctop` that falls through in the first or second slot of its
///   group leaves slots, which issue in the block after the loop;
/// - a load whose pointer walks out of memory faults mid-group, in the
///   loop's sixth iteration;
/// - fixed-operand `nop` and `adds` beside rotating `ldfd` / `fma` / `stfd`
///   under stage predicates;
/// - a `clrrrb` mid-group, after which the group's later uops read the
///   residue-0 row.
#[test]
fn loop_part_group_edges_match_reference() {
    type Body = fn(&mut Assembler);
    let cases: [(&str, i64, Body); 7] = [
        ("stall on the second uop", 1, |a| {
            a.ldfd(0, 32, 4, 8);
            a.fma_d(0, 40, 32, 1, 6);
            a.addi(6, 6, 1);
        }),
        ("stall on the third uop", 1, |a| {
            a.ldfd(0, 32, 4, 8);
            a.addi(6, 6, 1);
            a.fma_d(0, 40, 32, 1, 6);
        }),
        ("not-taken br.ctop in its group's first slot", 1, |a| {
            a.ldfd(0, 32, 4, 8);
            a.addi(6, 6, 1);
            a.nop(Unit::I);
        }),
        ("not-taken br.ctop in its group's second slot", 1, |a| {
            a.ldfd(0, 32, 4, 8);
            a.addi(6, 6, 1);
            a.nop(Unit::I);
            a.nop(Unit::M);
        }),
        ("fault mid-group", 1, |a| {
            a.addi(6, 6, 1);
            a.ldfd(0, 32, 4, -0x800);
            a.fma_d(0, 40, 33, 1, 6);
        }),
        (
            "fixed nop and adds among rotating ldfd, fma and stfd",
            3,
            |a| {
                a.ldfd(16, 32, 4, 8);
                a.nop(Unit::M);
                a.addi(6, 6, 1);
                a.fma_d(17, 40, 33, 1, 6);
                a.nop(Unit::I);
                a.emit(Insn::new(Op::Add {
                    dest: 7,
                    r2: 7,
                    r3: 6,
                }));
                a.stfd(18, 41, 12, 8);
            },
        ),
        ("clrrrb mid-group", 1, |a| {
            a.emit(Insn::new(Op::Clrrrb));
            a.fma_d(0, 41, 33, 1, 6);
            a.ldfd(0, 32, 4, 8);
            a.addi(6, 6, 1);
            a.stfd(0, 34, 12, 8);
        }),
    ];
    let cfg = MachineConfig::smp4();
    for (name, ec, body) in cases {
        let faults = name.starts_with("fault");
        for (skew, threads) in [(false, 1), (true, 1), (false, 2), (true, 2)] {
            let mut program = edge_loop(skew, ec, body);
            program.threads = (0..threads)
                .map(|cpu| (cpu, 0, vec![0x2000 + cpu as i64 * 0x1000]))
                .collect();
            let case = format!("{name}, skew {skew}, {threads} thread(s)");
            println!("{case}"); // names the case a divergence panics in
            let snap = assert_equivalent_with(&cfg, &program, |m| {
                let r = m.run(100_000);
                snapshot(m, r)
            });
            let done = match faults {
                true => CoreStatus::Faulted,
                false => CoreStatus::Halted,
            };
            assert_eq!(snap.regs[0].0, done, "{case}");
            let mut m = boot(&cfg, HostAccel::fast(), &program);
            m.run(100_000);
            let batch = m.block_stats().fallback_mem_boundary;
            assert_eq!(batch > 0, threads > 1, "{case}: boundary-batch cycles");
        }
    }
}

/// A fault inside a multicore arithmetic loop: two cores run arithmetic
/// together in the boundary batch until one of them dereferences a wild
/// pointer. The fault must surface at the identical cycle and leave the
/// other core unperturbed, exactly as in the per-cycle reference.
#[test]
fn fault_in_multicore_arithmetic_loop_matches_reference() {
    let mut a = Assembler::new();
    // r4 = thread-argument pointer; a pure-arithmetic counted loop runs on
    // both cores at once, then each core loads through its own pointer.
    a.emit(Insn::new(Op::Add {
        dest: 4,
        r2: 8,
        r3: 0,
    }));
    a.movi(5, 64);
    a.mov_to_lc(5);
    let top = a.new_label();
    a.bind(top);
    for k in 0..8 {
        a.addi(6, 6, 1);
        a.addi(7, 7, 2 + k);
    }
    a.br_cloop(top);
    a.ld8(0, 9, 4, 0);
    a.movi(31, 1);
    a.hlt();
    let program = Program {
        image: a.finish(),
        // A wild pointer that faults at the load; a valid one that halts.
        threads: vec![(0, 0, vec![-8]), (1, 0, vec![0x2000])],
        sampling: None,
    };
    let cfg = MachineConfig::smp4();
    assert_equivalent_with(&cfg, &program, |m| {
        let r = m.run(100_000);
        assert!(r.halted && r.faulted);
        assert_cpu0_faulted(m);
        assert_eq!(m.core(1).status, CoreStatus::Halted);
        assert_eq!(m.core(1).gr(31), 1, "the healthy core finished");
        snapshot(m, r)
    });
    let mut m = boot(&cfg, HostAccel::fast(), &program);
    let r = m.run(100_000);
    let blocks = m.block_stats();
    assert_eq!(
        blocks.fallback_mem_boundary, r.cycles,
        "every cycle of the run is a boundary-batch cycle: {blocks:?}"
    );
}

/// The memory-boundary regime NPB runs in ([`mem_boundary_program`]): most
/// of the run must be interleaved boundary-batch cycles with coherent
/// traffic, issued from the loop's trace, and it must end as the reference
/// does.
#[test]
fn mem_boundary_4core_matches_reference_in_the_boundary_batch() {
    let program = mem_boundary_program();
    let cfg = MachineConfig::smp4();
    let budget = 400_000u64;
    assert_equivalent(&cfg, &program, budget);
    let mut m = boot(&cfg, HostAccel::fast(), &program);
    m.run(budget);
    let blocks = m.block_stats();
    assert!(
        blocks.fallback_mem_boundary * 2 >= budget,
        "most of the fixture's cycles must be boundary-batch cycles: {blocks:?}"
    );
}

/// A CPU that halts close to its sampling threshold cannot move its counters
/// again, so it must not hold the Running cores to one cycle at a time. CPU 1
/// samples `INST_RETIRED` every 10 and halts after 7 of them, three short of
/// its threshold; CPU 0 runs an arithmetic loop sampling `CPU_CYCLES` every
/// 1 000. Only CPU 0's crossings may run as single held cycles.
#[test]
fn halted_cpu_near_its_threshold_does_not_hold_the_run() {
    let mut a = Assembler::new();
    a.movi(5, 1_000_000);
    a.mov_to_lc(5);
    let top = a.new_label();
    a.bind(top);
    for k in 0..8 {
        a.addi(6, 6, 1);
        a.addi(7, 7, 2 + k);
    }
    a.br_cloop(top);
    a.hlt();
    let short = a.movi(4, 1);
    for r in 5..=9 {
        a.movi(r, i64::from(r));
    }
    a.hlt();
    let program = Program {
        image: a.finish(),
        threads: vec![(0, 0, Vec::new()), (1, short, Vec::new())],
        sampling: None,
    };
    let arm = |m: &mut Machine| {
        for (cpu, event, period) in [(0, Event::CpuCycles, 1_000), (1, Event::InstRetired, 10)] {
            let baseline = m.stats()[cpu].get(event);
            m.shared.hpm[cpu].program_sampling(SamplingConfig { event, period }, baseline);
        }
    };
    let cfg = MachineConfig::smp4();
    let budget = 20_000;
    let snap = assert_equivalent_with(&cfg, &program, |m| {
        arm(m);
        let r = m.run(budget);
        snapshot(m, r)
    });
    assert_eq!(snap.regs[1].0, CoreStatus::Halted);
    assert_eq!(snap.stats[1].get(Event::InstRetired), 7);
    let crossings = snap.overflows[0].len() as u64;
    assert_eq!(crossings, budget / 1_000);
    let mut m = boot(&cfg, HostAccel::fast(), &program);
    arm(&mut m);
    m.run(budget);
    let blocks = m.block_stats();
    assert!(
        blocks.fallback_sampling <= crossings,
        "only CPU 0's {crossings} crossings may be held to one cycle: {blocks:?}"
    );
}
