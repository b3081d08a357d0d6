//! Wall-clock floors of the fast engine against the per-cycle reference.
//!
//! Each test first requires both engines to end in the same state, then
//! compares min-of-N host time. A ratio of host times means nothing in a
//! debug build, so all four are `#[ignore]`d and CI runs them in release,
//! one step per floor:
//! `cargo test --release -p cobra-machine --test engine_floors -- --ignored <name>`.

mod common;

use std::fmt::Debug;
use std::time::{Duration, Instant};

use cobra_isa::insn::{Insn, Op};
use cobra_isa::Assembler;
use cobra_machine::{
    AccessKind, CpuStats, Event, HostAccel, Hpm, MachineConfig, MemSystem, SamplingConfig,
};
use common::{boot, mem_boundary_program, snapshot, Program, Snapshot};

/// Time `pass` `reps` times per engine and return `(reference, fast)`
/// minima, having asserted that every run of `pass` ends in the same state.
/// The engines alternate: a host load spike then has to hit every one of an
/// engine's runs to skew the ratio, instead of one unlucky back-to-back
/// group.
fn engine_pair_min_of<S: PartialEq + Debug>(
    reps: usize,
    pass: impl Fn(HostAccel) -> (Duration, S),
) -> (Duration, Duration) {
    let mut best = [Duration::MAX; 2];
    let mut first: Option<S> = None;
    for _ in 0..reps {
        for (slot, accel) in [HostAccel::reference(), HostAccel::fast()]
            .into_iter()
            .enumerate()
        {
            let (elapsed, state) = pass(accel);
            best[slot] = best[slot].min(elapsed);
            match &first {
                Some(expected) => assert_eq!(
                    expected, &state,
                    "{accel:?}: every run must be bit-identical to the first reference run"
                ),
                None => first = Some(state),
            }
        }
    }
    (best[0], best[1])
}

/// One timed `run_quantum(cycles)` of `program` on the 4-way SMP, and
/// everything observable about the machine afterwards.
fn timed_run(program: &Program, accel: HostAccel, cycles: u64) -> (Duration, Snapshot) {
    let mut m = boot(&MachineConfig::smp4(), accel, program);
    let t0 = Instant::now();
    let result = m.run_quantum(cycles);
    let elapsed = t0.elapsed();
    (elapsed, snapshot(&mut m, result))
}

/// Pre-decoded block dispatch: on the solo arithmetic loop, the cheapest
/// busy workload a quantum can carry, the fast engine must clear 1.5x over
/// the per-cycle reference stepper (it targets ~5x).
#[test]
#[ignore = "wall-clock floor: run in release by name"]
fn solo_block_dispatch_at_least_1_5x_reference() {
    let mut a = Assembler::new();
    a.movi(4, 1_000_000_000);
    a.mov_to_lc(4);
    let top = a.new_label();
    a.bind(top);
    a.addi(5, 5, 1);
    a.emit(Insn::new(Op::Add {
        dest: 6,
        r2: 6,
        r3: 5,
    }));
    a.br_cloop(top);
    a.hlt();
    let program = Program::new(a.finish(), 1);

    let (reference, block) = engine_pair_min_of(3, |accel| timed_run(&program, accel, 2_000_000));
    let ratio = reference.as_secs_f64() / block.as_secs_f64();
    println!("solo block dispatch: {ratio:.2}x ({reference:?} per-cycle vs {block:?} block)");
    assert!(
        ratio >= 1.5,
        "block dispatch must be >= 1.5x the per-cycle reference, got {ratio:.2}x"
    );
}

/// Lockstep multicore block dispatch: with all four cores running
/// independent add chains (a full-width, 3 uops/cycle body — the regime
/// optimized loop code runs in between memory operations) and HPM sampling
/// programmed on every CPU, as the perfmon driver leaves it during attached
/// runs, the fast engine's safe-horizon stretches must clear 2x. The
/// reference polls for overflow on each core every cycle; a stretch is
/// capped by the sampling gate and polls once.
#[test]
#[ignore = "wall-clock floor: run in release by name"]
fn lockstep4_sampled_dispatch_at_least_2x_reference() {
    let mut a = Assembler::new();
    a.movi(4, 1_000_000_000);
    a.mov_to_lc(4);
    let top = a.new_label();
    a.bind(top);
    for r in 5..11 {
        a.addi(r, r, 1);
    }
    a.br_cloop(top);
    a.hlt();
    let program = Program {
        sampling: Some(SamplingConfig {
            event: Event::InstRetired,
            period: 2000,
        }),
        ..Program::new(a.finish(), 4)
    };

    let (reference, lockstep) =
        engine_pair_min_of(5, |accel| timed_run(&program, accel, 1_000_000));
    let ratio = reference.as_secs_f64() / lockstep.as_secs_f64();
    println!(
        "lockstep multicore dispatch: {ratio:.2}x ({reference:?} per-cycle vs {lockstep:?} lockstep)"
    );
    assert!(
        ratio >= 2.0,
        "lockstep multicore dispatch must be >= 2x the per-cycle reference, got {ratio:.2}x"
    );
}

/// Snoop-miss cost: a cold-line load stream where no other hierarchy can
/// hold the line, so the presence vector lets the fast engine skip the
/// O(num_cpus) snoop loops that the reference walks on every miss. The skip
/// must not change miss handling, nor slow the miss path by more than 10 %.
#[test]
#[ignore = "wall-clock floor: run in release by name"]
fn snoop_miss_fast_path_within_1_10x_reference() {
    const MISSES: u64 = 300_000;
    let load = AccessKind::Load {
        fp: true,
        bias: false,
    };
    let (reference, fast) = engine_pair_min_of(3, |accel| {
        let cfg = MachineConfig::smp4().with_host_accel(accel);
        let mut ms = MemSystem::new(&cfg);
        let mut stats: Vec<CpuStats> = (0..4).map(|_| CpuStats::new()).collect();
        let mut hpm: Vec<Hpm> = (0..4).map(|_| Hpm::new(cfg.dear_min_latency)).collect();
        let mut now = 0u64;
        let mut digest = 0u64;
        let t0 = Instant::now();
        for i in 0..MISSES {
            now += 600;
            let addr = 0x1000 + i * 128;
            let out = ms.access(&mut stats, &mut hpm, 0, now, 1, load, addr);
            digest ^= out
                .complete_at
                .wrapping_mul(3)
                .wrapping_add(out.stall_until);
        }
        (t0.elapsed(), (digest, stats.swap_remove(0)))
    });
    let ratio = fast.as_secs_f64() / reference.as_secs_f64();
    println!(
        "snoop-miss path: fast/reference {ratio:.3} ({reference:?} reference vs {fast:?} fast)"
    );
    assert!(
        ratio <= 1.10,
        "snoop skip must not slow down the miss path: {reference:?} reference vs {fast:?} fast"
    );
}

/// The memory-boundary batch, where nearly all of an NPB run's cycles go:
/// four cores in the tier-1 guest's software-pipelined `br.ctop` loop
/// ([`mem_boundary_program`]: `ldfd`, `lfetch`, two `fma.d`, `stfd` over
/// rotating FRs and stage predicates), `INST_RETIRED` sampling on every CPU.
/// Every core sits within an issue cycle or two of a memory uop, so no
/// horizon opens: the fast engine interleaves the cores per cycle, issuing
/// the loop from its trace, where the reference re-fetches, re-maps and
/// re-matches every slot.
#[test]
#[ignore = "wall-clock floor: run in release by name"]
fn mem_boundary4_ctop_dispatch_at_least_1_1x_reference() {
    let program = mem_boundary_program();
    let (reference, fast) = engine_pair_min_of(5, |accel| timed_run(&program, accel, 300_000));
    let ratio = reference.as_secs_f64() / fast.as_secs_f64();
    println!(
        "memory-boundary ctop dispatch: {ratio:.2}x ({reference:?} per-cycle vs {fast:?} boundary batch)"
    );
    assert!(
        ratio >= 1.1,
        "memory-boundary dispatch must be >= 1.1x the per-cycle reference, got {ratio:.2}x"
    );
}
