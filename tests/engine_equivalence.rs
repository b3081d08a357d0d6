//! Tier-1 smoke for the simulator's engine contract: `HostAccel::Fast` is
//! the same simulation as `HostAccel::Reference`.
//!
//! One guest drives both paths through `Machine::run` — the boundary batch
//! over memory and over arithmetic, with its clock jumps across all-stalled
//! windows, and a solo stretch that issues memory uops — and the sampling
//! crossings the budget rule holds to one cycle, on both evaluation
//! machines, with one deployment (a trace appended, a word patched to
//! branch into it) landing mid-loop. The property suites in
//! `crates/machine/tests` are the proof; this is the one case the tier-1
//! command always runs.

use cobra::isa::insn::{Insn, Op};
use cobra::isa::{encode, Assembler, CmpRel, CodeImage, LfetchHint};
use cobra::machine::{
    BlockStats, CpuStats, Event, HostAccel, Machine, MachineConfig, OverflowCapture, SamplingConfig,
};

/// Per thread: a modulo-scheduled `br.ctop` load/`lfetch`/store loop whose
/// prefetches run ahead into the next thread's region (coherent traffic) —
/// three stages over rotating FRs and stage predicates, as `minicc` emits
/// NPB's loops, so the block engine runs it from its loop trace at every
/// rotation residue and through the `ar.ec` epilogue — an arithmetic loop
/// (the batch's arithmetic regime: four cores issuing, no memory uop in the
/// body), then a load/store epilogue of `r9` extra iterations — only
/// thread 0 gets any, so it finishes alone.
/// `arith` names the first slot of the arithmetic loop's body.
fn guest() -> CodeImage {
    let mut a = Assembler::new();
    a.mov(4, 8); // r4: load pointer
    a.addi(10, 8, 0x0c00); // r10: prefetch pointer, 64 bytes a step
    a.addi(11, 8, 0x0800); // r11: store pointer
    a.emit(Insn::new(Op::Clrrrb));
    a.movi(5, 199); // 200 iterations, then two to drain the stages
    a.mov_to_lc(5);
    a.movi(5, 3);
    a.mov_to_ec(5);
    a.cmp(16, 17, CmpRel::Eq, 0, 0);
    a.cmp(18, 15, CmpRel::Ne, 0, 0);
    let mem = a.new_label();
    a.bind(mem);
    a.ldfd(16, 32, 4, 8); // x
    a.emit(Insn::pred(
        16,
        Op::Lfetch {
            base: 10,
            post_inc: 64,
            hint: LfetchHint::Nt1,
            excl: false,
        },
    ));
    a.fma_d(17, 40, 33, 1, 7); // y = x + sum, a stage after the load
    a.fma_d(17, 7, 33, 1, 7); // sum += x
    a.stfd(18, 41, 11, 8); // y, a stage after it was computed
    a.br_ctop(mem);
    a.movi(5, 1000);
    a.mov_to_lc(5);
    let arith = a.new_label();
    a.symbol("arith");
    a.bind(arith);
    for _ in 0..12 {
        a.addi(6, 6, 1);
        a.emit(Insn::new(Op::Add {
            dest: 7,
            r2: 7,
            r3: 6,
        }));
    }
    a.br_cloop(arith);
    a.mov_to_lc(9);
    let solo = a.new_label();
    a.bind(solo);
    a.ld8(0, 12, 4, 8);
    a.emit(Insn::new(Op::Add {
        dest: 7,
        r2: 7,
        r3: 12,
    }));
    a.st8(0, 7, 11, 8);
    a.br_cloop(solo);
    a.hlt();
    a.finish()
}

/// The 5 000-cycle cut after which [`run`] deploys a trace.
const DEPLOY_AT_CUT: usize = 2;

#[derive(Debug, PartialEq)]
struct Outcome {
    cycles: u64,
    /// Per-CPU counters at every 5 000-cycle cut: what `cobra-rt` reads on
    /// each tick, so bulk counter flushes must have landed by then.
    stats_at_cut: Vec<Vec<CpuStats>>,
    overflows: Vec<Vec<OverflowCapture>>,
    mem_fingerprint: u64,
}

fn run(cfg: &MachineConfig, cpus: &[usize], accel: HostAccel) -> (Outcome, BlockStats) {
    let mut cfg = cfg.clone().with_host_accel(accel);
    cfg.mem_bytes = 1 << 20;
    let mut m = Machine::new(cfg, guest());
    for (k, &cpu) in cpus.iter().enumerate() {
        let base = 0x10000 + k as u64 * 0x1000;
        for w in 0..0x100 {
            m.shared
                .mem
                .write_f64(base + 8 * w, (k as u64 * 0x100 + w) as f64);
        }
        let sampling = SamplingConfig {
            event: Event::InstRetired,
            period: 700,
        };
        m.shared.hpm[cpu].program_sampling(sampling, 0);
        let extra = if k == 0 { 400 } else { 0 };
        m.spawn_thread(cpu, 0, &[base as i64, extra]);
    }
    // Quanta, as the OpenMP runtime runs a region: every budget cut-off
    // must land on the same cycle too.
    let mut overflows = vec![Vec::new(); m.num_cpus()];
    let mut stats_at_cut = Vec::new();
    loop {
        let halted = m.run(5_000).halted;
        stats_at_cut.push(m.stats().to_vec());
        for (cpu, seen) in overflows.iter_mut().enumerate() {
            seen.extend(m.shared.hpm[cpu].take_overflows());
        }
        if halted {
            break;
        }
        if stats_at_cut.len() == DEPLOY_AT_CUT {
            // What a trace deployment does, while every thread is inside
            // the arithmetic loop and the fast engine holds its lowered
            // body: from here on the first `addi` adds 3, in the trace.
            let arith = m.shared.code.symbol("arith").expect("guest names it");
            let body = arith..arith + 25;
            assert!(cpus.iter().all(|&cpu| body.contains(&m.core(cpu).pc)));
            let trace = m.append_trace(&[
                Insn::new(Op::AddI {
                    dest: 6,
                    src: 6,
                    imm: 3,
                }),
                Insn::new(Op::BrCond { target: arith + 1 }),
            ]);
            m.patch_word(arith, encode(&Insn::new(Op::BrCond { target: trace })))
                .expect("a branch is a valid word");
        }
    }
    let mem = &m.shared.mem;
    let mem_fingerprint = (0..mem.len() as u64)
        .step_by(8)
        .fold(0xcbf2_9ce4_8422_2325, |h, a| {
            (h ^ mem.read_u64(a)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    let outcome = Outcome {
        cycles: m.cycle(),
        stats_at_cut,
        overflows,
        mem_fingerprint,
    };
    (outcome, m.block_stats())
}

#[test]
fn fast_engine_is_the_reference_simulation_on_both_machines() {
    for (cfg, cpus) in [
        (MachineConfig::smp4(), [0, 1, 2, 3]),
        (MachineConfig::altix8(), [0, 2, 4, 6]),
    ] {
        let (reference, _) = run(&cfg, &cpus, HostAccel::reference());
        let (fast, blocks) = run(&cfg, &cpus, HostAccel::fast());
        assert_eq!(reference, fast, "{}", cfg.name);
        assert!(reference.overflows.iter().any(|c| !c.is_empty()));
        let last = reference.stats_at_cut.last().expect("at least one cut");
        let hitm: u64 = last.iter().map(|s| s.get(Event::BusRdHitm)).sum();
        assert!(hitm > 0, "coherent");
        // The guest reached the paths it was written to reach.
        assert!(blocks.fallback_mem_boundary > 0, "{}: {blocks:?}", cfg.name);
        assert!(blocks.fallback_sampling > 0, "{}: {blocks:?}", cfg.name);
    }
}
