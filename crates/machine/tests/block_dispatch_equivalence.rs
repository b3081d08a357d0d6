//! Bit-identical equivalence of the pre-decoded block engine against the
//! per-cycle reference loop.
//!
//! The fast engine executes out of a per-generation micro-op block cache,
//! with per-opcode-class fused dispatch arms, a stretch that runs a solo
//! core (or every core inside a safe horizon) back-to-back on a local clock,
//! and interleaved pre-decoded cycles in between. Like everything else under
//! `HostAccel::Fast` it may only change how fast the simulator runs, never
//! what it computes: for any program (including predicated forms of every
//! opcode class), thread placement, HPM sampling configuration, budget
//! cutoff, and mid-run binary patching, the final cycle count, every per-CPU
//! event counter, the exact overflow capture stream, data memory, MESI
//! state and architectural register state must match the reference loop
//! exactly.

mod common;

use cobra_isa::insn::{Insn, Op};
use cobra_isa::{encode, Assembler, CmpRel};
use cobra_machine::{CoreStatus, HostAccel, Machine, MachineConfig};
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
/// where the lockstep horizon engages. Sampling stays in the mix: stretches
/// are then capped by the sampling gate rather than disabled, and must still
/// be bit-identical.
fn lockstep_params_strategy() -> impl Strategy<Value = LoopParams> {
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

    /// Lockstep multicore stretches: with 2-8 cores running, the horizon
    /// engine and the per-cycle reference must produce bit-identical
    /// simulations — down to the MESI state of every touched line in every
    /// CPU's cache hierarchy.
    #[test]
    fn lockstep_multicore_matches_reference(p in lockstep_params_strategy()) {
        assert_equivalent(&p.cfg(), &p.program().0, 150_000);
    }

    /// The budget expiring mid-horizon must cut the run at exactly the
    /// reference cycle, with every core left in a resumable state.
    #[test]
    fn lockstep_multicore_matches_reference_at_cutoff(
        p in lockstep_params_strategy(),
        budget in 100u64..3000,
    ) {
        assert_equivalent(&p.cfg(), &p.program().0, budget);
    }

    /// `run` in segments of 1..=130 cycles, so a boundary batch ends by
    /// budget on its 1st, its 64th and its 65th cycle, mid-stall and on a
    /// HITM cycle. Every segment's snapshot must match: the batch's bulk
    /// counters are in the per-CPU stats before `run` returns, and a snoop
    /// stall raised on a batch's last cycle is delivered on that cycle
    /// (nothing left in `snoop_stalls`).
    #[test]
    fn lockstep_short_run_segments_match_reference(
        p in lockstep_params_strategy(),
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
    fn lockstep_mid_run_patch_and_revert_match_reference(
        p in lockstep_params_strategy(),
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

/// Pinned semantics for every dispatch class widened in this round: shifts,
/// immediate compares, conditional forward branches (taken and fall-through)
/// and double-precision add/multiply. The block engine must agree with the
/// reference *and* with the architecturally expected values.
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

/// A fault inside a lockstep stretch: two cores run arithmetic together in
/// the horizon engine until one of them dereferences a wild pointer. The
/// fault must surface at the identical cycle and leave the other core
/// unperturbed, exactly as in the per-cycle reference.
#[test]
fn fault_in_lockstep_stretch_matches_reference() {
    let mut a = Assembler::new();
    // r4 = thread-argument pointer; a pure-arithmetic counted loop keeps
    // both cores inside lockstep horizons, then each core loads through
    // its own pointer.
    a.emit(Insn::new(Op::Add {
        dest: 4,
        r2: 8,
        r3: 0,
    }));
    a.movi(5, 64);
    a.mov_to_lc(5);
    let top = a.new_label();
    a.bind(top);
    // A body long enough that the loop-head horizon clears the engine's
    // minimum stretch length even though the loop exit leads straight to
    // a load.
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
    m.run(100_000);
    assert!(
        m.block_stats().horizon_stretches > 0,
        "the lockstep engine actually engaged"
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
