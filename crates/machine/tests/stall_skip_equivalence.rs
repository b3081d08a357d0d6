//! Bit-identical equivalence of the fast engine against the per-cycle
//! reference loop on stall-dominated programs, plus guest-memory fault
//! hardening.
//!
//! The fast engine skips all-stalled windows in bulk (and bulk-accounts the
//! stall windows inside a stretch). That may only change how fast the
//! simulator runs, never what it computes: for any program, thread
//! placement, and HPM sampling configuration, the final cycle count, every
//! per-CPU event counter, the exact stream of sampling overflow captures
//! (cycles, PCs, BTB/DEAR snapshots), data memory, and architectural
//! register state must match the reference loop exactly. The property test
//! below drives both engines over random multithreaded programs — including
//! sampling on events that advance during stalls (`CPU_CYCLES`,
//! `BE_STALL_CYCLES`), which is the hard case: an overflow can fire in the
//! middle of an all-stalled window.

mod common;

use cobra_isa::insn::{Insn, Op};
use cobra_isa::{Assembler, CodeAddr};
use cobra_machine::{CoreStatus, Event, Machine, MachineConfig};
use common::{assert_equivalent, sampling, LoopParams, Program, STALL_MIX};
use proptest::prelude::*;

/// A loop over the stall-source op mix on smp4, sampling always programmed.
fn stall_loop(
    threads: usize,
    share_base: bool,
    event_sel: u8,
    period: u64,
    body: &[u8],
    iters: u64,
) -> LoopParams {
    LoopParams {
        altix: false,
        threads,
        share_base,
        sampling: sampling(event_sel % 3, period),
        body: body.iter().map(|&sel| STALL_MIX[sel as usize]).collect(),
        iters,
        pipelined: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fast engine and the per-cycle reference produce bit-identical
    /// simulations: cycles, counters, overflow capture streams, memory,
    /// and registers.
    #[test]
    fn fast_path_matches_reference(
        threads in 1usize..=4,
        share_base in any::<bool>(),
        event_sel in 0u8..3,
        period in 50u64..1500,
        body in prop::collection::vec(0u8..8, 1..8),
        iters in 1u64..48,
    ) {
        let p = stall_loop(threads, share_base, event_sel, period, &body, iters);
        assert_equivalent(&p.cfg(), &p.program().0, 150_000);
    }

    /// Same property when the budget cuts the run off mid-flight (possibly
    /// mid-stall): the cutoff cycle must also be identical.
    #[test]
    fn fast_path_matches_reference_at_cutoff(
        body in prop::collection::vec(0u8..8, 1..6),
        budget in 100u64..3000,
    ) {
        let p = stall_loop(2, true, 0, 100, &body, 400);
        assert_equivalent(&p.cfg(), &p.program().0, budget);
    }
}

/// An all-idle machine (no thread bound) must burn the whole budget on both
/// engines — and the fast one must do it without spinning per cycle.
#[test]
fn idle_machine_burns_budget_identically() {
    let image = {
        let mut a = Assembler::new();
        a.hlt();
        a.finish()
    };
    let budget = 5_000_000u64;
    let snap = assert_equivalent(&MachineConfig::smp4(), &Program::new(image, 0), budget);
    assert_eq!(snap.result.cycles, budget);
    assert!(!snap.result.halted);
}

/// The case the stall skip exists for: a line-striding FP load (one
/// 128-byte line per iteration, so every load misses to memory) feeding an
/// immediate use parks all four cores in long all-stalled windows, for
/// 200 000 cycles.
#[test]
fn stall_heavy_200k_cycles_match_reference() {
    let image = {
        let mut a = Assembler::new();
        a.movi(4, 0x1000);
        a.movi(5, 100_000);
        a.mov_to_lc(5);
        let top = a.new_label();
        a.bind(top);
        a.ldfd(0, 6, 4, 128);
        a.fma_d(0, 7, 6, 1, 7); // immediate use: full load-use stall
        a.br_cloop(top);
        a.hlt();
        a.finish()
    };
    let budget = 200_000u64;
    let snap = assert_equivalent(&MachineConfig::smp4(), &Program::new(image, 4), budget);
    assert_eq!(snap.result.cycles, budget, "the budget ends the run");
}

// ---- guest-memory fault hardening ----

/// Build a machine whose thread executes `body` then (unreachably after a
/// fault) writes a sentinel and halts.
fn faulting_machine(body: impl FnOnce(&mut Assembler)) -> Machine {
    let mut a = Assembler::new();
    body(&mut a);
    a.movi(31, 1); // sentinel: only reached if no fault
    a.hlt();
    let mut m = Machine::new(MachineConfig::smp4(), a.finish());
    m.spawn_thread(0, 0, &[]);
    m
}

fn assert_faults_at(mut m: Machine, expected_addr: u64) {
    let r = m.run(100_000);
    assert!(r.halted, "a faulted thread terminates the run");
    assert!(r.faulted);
    assert_eq!(m.core(0).status, CoreStatus::Faulted);
    let f = m.core(0).fault.expect("fault info recorded");
    assert_eq!(f.addr, expected_addr);
    assert_eq!(m.core(0).gr(31), 0, "nothing executes past the fault");
    assert_eq!(m.stats()[0].get(Event::GuestFaults), 1);
}

#[test]
fn ld8_at_u64_max_faults_not_panics() {
    let m = faulting_machine(|a| {
        a.movi(4, -1); // u64::MAX: `addr + 8` wraps in a naive bounds check
        a.ld8(0, 7, 4, 0);
    });
    assert_faults_at(m, u64::MAX);
}

#[test]
fn st8_out_of_bounds_faults_not_panics() {
    let m = faulting_machine(|a| {
        a.movi(4, 1 << 40);
        a.st8(0, 5, 4, 0);
    });
    assert_faults_at(m, 1 << 40);
}

#[test]
fn ldfd_out_of_bounds_faults_not_panics() {
    let m = faulting_machine(|a| {
        a.movi(4, -8);
        a.ldfd(0, 6, 4, 0);
    });
    assert_faults_at(m, (-8i64) as u64);
}

#[test]
fn stfd_out_of_bounds_faults_not_panics() {
    // Near-i64::MAX address, built by shifting (movl immediates are 43-bit).
    let m = faulting_machine(|a| {
        a.movi(4, (1 << 42) - 1);
        a.emit(Insn::new(Op::ShlI {
            dest: 4,
            src: 4,
            count: 21,
        }));
        a.stfd(0, 6, 4, 0);
    });
    assert_faults_at(m, ((1u64 << 42) - 1) << 21);
}

#[test]
fn fetchadd_out_of_bounds_faults_not_panics() {
    let m = faulting_machine(|a| {
        a.movi(4, -16);
        a.emit(Insn::new(Op::FetchAdd8 {
            dest: 7,
            base: 4,
            inc: 1,
        }));
    });
    assert_faults_at(m, (-16i64) as u64);
}

/// `fetchadd8` wraps like every other integer op: adding one to a word that
/// holds `i64::MAX` leaves `i64::MIN` on both engines, not a host overflow
/// panic.
#[test]
fn fetchadd_at_i64_max_wraps_not_panics() {
    let image = {
        let mut a = Assembler::new();
        a.movi(4, 0x1000);
        // `movi` cannot encode `i64::MAX`: shift all-ones right by one.
        a.movi(5, -1);
        a.emit(Insn::new(Op::ShrI {
            dest: 5,
            src: 5,
            count: 1,
        }));
        a.st8(0, 5, 4, 0);
        a.emit(Insn::new(Op::FetchAdd8 {
            dest: 7,
            base: 4,
            inc: 1,
        }));
        a.hlt();
        a.finish()
    };
    let snap = assert_equivalent(&MachineConfig::smp4(), &Program::new(image, 1), 10_000);
    assert!(snap.result.halted && !snap.result.faulted);
    assert_eq!(
        snap.regs[0].2[3],
        i64::MAX,
        "r7 holds the word before the add"
    );
    assert_eq!(snap.mem_words[0x1000 / 8], i64::MIN as u64);
}

#[test]
fn cmpxchg_out_of_bounds_faults_not_panics() {
    let m = faulting_machine(|a| {
        a.movi(4, u32::MAX as i64 * 1024);
        a.emit(Insn::new(Op::Cmpxchg8 {
            dest: 7,
            base: 4,
            new: 5,
            cmp: 6,
        }));
    });
    assert_faults_at(m, u32::MAX as u64 * 1024);
}

/// A healthy thread: sums 1..=10 into `r5` and halts.
fn emit_sum_worker(a: &mut Assembler) {
    a.movi(4, 9);
    a.mov_to_lc(4);
    let top = a.new_label();
    a.bind(top);
    a.addi(6, 6, 1);
    a.emit(Insn::new(Op::Add {
        dest: 5,
        r2: 5,
        r3: 6,
    }));
    a.br_cloop(top);
    a.hlt();
}

/// A PC outside the image is a fault of the thread that fetched there —
/// `CoreStatus::Faulted`, `GUEST_FAULTS` + 1, the PC left where the fetch
/// failed, on the same cycle on both engines — never a host panic. CPU 0
/// enters `body`, which sends its PC to `wild` (`None`: it runs off the end
/// of the image, so nothing is assembled after it); alone, and then beside
/// three healthy workers, so that the solo stretch, the lockstep horizon
/// and the boundary batch each resolve the wild PC. The faulting fetch
/// retires nothing, and the workers finish as they do without CPU 0.
fn assert_fetch_faults(body: impl Fn(&mut Assembler), wild: Option<CodeAddr>) {
    let mut a = Assembler::new();
    emit_sum_worker(&mut a); // entry 0
    let bad = a.here();
    body(&mut a);
    let body_end = a.here();
    if wild.is_some() {
        a.movi(11, 1); // sentinel: only reached if the branch did not fault
        a.hlt();
    }
    let image = a.finish();
    let wild = wild.unwrap_or(image.len());
    // Everything up to the wild fetch retires: the body, and with nothing
    // after it the nops that pad the image to a bundle.
    let retired = (if wild == image.len() { wild } else { body_end } - bad) as u64;

    let cfg = MachineConfig::smp4();
    let with_workers = |cpu0: bool| {
        let mut p = Program::new(image.clone(), 4);
        p.threads[0].1 = bad;
        p.threads.drain(..usize::from(!cpu0));
        assert_equivalent(&cfg, &p, 100_000)
    };
    let mut alone = Program::new(image.clone(), 1);
    alone.threads[0].1 = bad;
    let alone = assert_equivalent(&cfg, &alone, 100_000);
    let beside = with_workers(true);
    let without = with_workers(false);

    for snap in [&alone, &beside] {
        assert!(snap.result.halted && snap.result.faulted);
        let (status, pc, gr, ..) = &snap.regs[0];
        assert_eq!((*status, *pc), (CoreStatus::Faulted, wild));
        assert_eq!(gr[7], 0, "r11: nothing executes past the fault");
        assert_eq!(snap.stats[0].get(Event::GuestFaults), 1);
        assert_eq!(snap.stats[0].get(Event::InstRetired), retired);
    }
    assert_eq!(beside.total_stats.get(Event::GuestFaults), 1);
    assert!(without.result.halted && !without.result.faulted);
    assert_eq!(beside.regs[1..], without.regs[1..]);
    assert_eq!(beside.stats[1..], without.stats[1..]);
    assert_eq!(beside.regs[1].2[1], 55, "r5: the workers' sums are intact");
}

#[test]
fn br_ret_to_a_wild_b0_faults_not_panics() {
    let wild = 1 << 20;
    assert_fetch_faults(
        |a| {
            a.movi(5, wild as i64);
            a.emit(Insn::new(Op::MovToB0 { src: 5 }));
            a.emit(Insn::new(Op::BrRet));
        },
        Some(wild),
    );
}

#[test]
fn direct_branch_past_the_image_faults_not_panics() {
    let wild = u32::MAX - 1;
    assert_fetch_faults(
        |a| {
            a.emit(Insn::new(Op::BrCond { target: wild }));
        },
        Some(wild),
    );
}

#[test]
fn running_off_the_end_of_the_image_faults_not_panics() {
    assert_fetch_faults(
        |a| {
            a.movi(7, 7);
        },
        None,
    );
}

/// `lfetch` is a non-binding prefetch: an out-of-bounds address is silently
/// dropped (speculative prefetches never fault), and execution continues.
#[test]
fn lfetch_out_of_bounds_is_dropped_not_faulted() {
    let mut m = faulting_machine(|a| {
        a.movi(4, -1);
        a.lfetch_nt1(0, 4, 0);
    });
    let r = m.run(100_000);
    assert!(r.halted);
    assert!(!r.faulted);
    assert_eq!(m.core(0).status, CoreStatus::Halted);
    assert_eq!(m.core(0).gr(31), 1, "execution continued past the lfetch");
    assert_eq!(m.stats()[0].get(Event::GuestFaults), 0);
}

/// A fault on one CPU must not disturb the others: the healthy threads
/// finish their work and the run reports both termination kinds.
#[test]
fn fault_is_isolated_to_the_offending_thread() {
    let image = {
        let mut a = Assembler::new();
        emit_sum_worker(&mut a); // entry 0
                                 // entry `bad`: immediate wild store.
        a.symbol("bad");
        let bad = a.movi(4, -64);
        a.st8(0, 5, 4, 0);
        a.hlt();
        let img = a.finish();
        assert_eq!(img.symbol("bad"), Some(bad));
        img
    };
    let bad_entry = image.symbol("bad").unwrap();
    let mut m = Machine::new(MachineConfig::smp4(), image);
    m.spawn_thread(0, 0, &[]);
    m.spawn_thread(1, bad_entry, &[]);
    let r = m.run(100_000);
    assert!(r.halted);
    assert!(r.faulted);
    assert_eq!(m.core(0).status, CoreStatus::Halted);
    assert_eq!(m.core(0).gr(5), 55, "healthy thread's result is intact");
    assert_eq!(m.core(1).status, CoreStatus::Faulted);
    assert_eq!(m.total_stats().get(Event::GuestFaults), 1);
}
