//! The one differential harness of the machine equivalence suites.
//!
//! [`HostAccel::Fast`] may only change how fast the simulator runs, never
//! what it computes. Every suite states that the same way: boot one
//! [`Program`] on a [`HostAccel::Reference`] machine and on a `Fast` one,
//! drive both identically, and require equal [`Snapshot`]s — which hold
//! everything observable about a machine, so "equal" means "the same
//! simulation". [`assert_equivalent`] is that statement; a new engine gets
//! the full coverage of every suite by being what `Fast` selects.

#![allow(dead_code)] // every suite uses its own part of the harness

use std::fmt::Debug;

use cobra_isa::insn::{Insn, Op};
use cobra_isa::{Assembler, CmpRel, CodeAddr, CodeImage, LfetchHint, Unit};
use cobra_machine::{
    CoreStatus, CpuStats, DearRecord, Event, HostAccel, Machine, MachineConfig, Mesi,
    OverflowCapture, RunResult, SamplingConfig,
};

/// Number of selectors [`emit_body_op`] distinguishes.
pub const BODY_OPS: u8 = 24;

/// Selectors that exercise every stall source: load-use, FP long ops,
/// coherent stores, prefetches (the stall-skip suite's op mix).
pub const STALL_MIX: [u8; 8] = [0, 10, 11, 8, 9, 12, 13, 14];

/// [`STALL_MIX`] plus the kinds the memory system special-cases: atomics,
/// `.bias` loads and `.excl` prefetches (the memory suite's op mix).
pub const MEM_MIX: [u8; 11] = [0, 10, 11, 8, 9, 12, 13, 14, 15, 22, 23];

/// One body instruction of a generated loop. Selectors cover every
/// specialized dispatch class (`AddI`, `Add`, `Nop`, `BrCloop` via the loop
/// back edge) and the classes that go through the interpreter arm (`Sub`,
/// `MovI`, `Cmp`, `CmpI`, `BrCond`, shifts, `FaddD`/`FmulD`) in both
/// unpredicated and predicated form, plus every stall source and memory
/// access kind: loads/stores, load-use FP, long-latency FP, plain and
/// `.excl` prefetches, `.bias` loads, and atomics.
pub fn emit_body_op(a: &mut Assembler, sel: u8) {
    match sel % BODY_OPS {
        0 => {
            a.addi(6, 6, 1);
        }
        1 => {
            a.emit(Insn::new(Op::Add {
                dest: 5,
                r2: 5,
                r3: 6,
            }));
        }
        2 => {
            a.emit(Insn::new(Op::Sub {
                dest: 7,
                r2: 7,
                r3: 6,
            }));
        }
        3 => {
            a.movi(9, 0x5_0000_1234);
        }
        4 => {
            a.nop(Unit::I);
        }
        5 => {
            // Set a complementary predicate pair, then a predicated fast-class
            // op on the "true" side. Both sides of every predicated class are
            // exercised across the pair of selectors 5..=7.
            a.cmp(1, 2, CmpRel::Lt, 6, 7);
            a.emit(Insn::pred(
                1,
                Op::AddI {
                    dest: 9,
                    src: 9,
                    imm: 2,
                },
            ));
        }
        6 => {
            a.cmp(1, 2, CmpRel::Ge, 5, 7);
            a.emit(Insn::pred(2, Op::MovI { dest: 10, imm: -7 }));
        }
        7 => {
            a.cmp(1, 2, CmpRel::Ne, 6, 6);
            a.emit(Insn::pred(
                1,
                Op::Sub {
                    dest: 9,
                    r2: 9,
                    r3: 6,
                },
            ));
            a.emit(Insn::pred(2, Op::Nop { unit: Unit::M }));
        }
        8 => {
            a.ld8(0, 7, 4, 8);
        }
        9 => {
            a.st8(0, 7, 4, 8);
        }
        10 => {
            a.ldfd(0, 6, 4, 8);
        }
        11 => {
            a.stfd(0, 6, 4, 8);
        }
        12 => {
            // Immediate use of the last FP load: the classic load-use stall
            // that must abort a block mid-flight and resume at the same slot.
            a.fma_d(0, 8, 6, 1, 6);
        }
        13 => {
            a.lfetch_nt1(0, 4, 64);
        }
        14 => {
            // Long-latency FP: stalls every consumer for fp_long_latency.
            a.emit(Insn::new(Op::FdivD {
                dest: 9,
                f1: 8,
                f2: 1,
            }));
        }
        15 => {
            a.emit(Insn::new(Op::FetchAdd8 {
                dest: 11,
                base: 4,
                inc: 8,
            }));
        }
        16 => {
            a.emit(Insn::new(Op::ShlI {
                dest: 9,
                src: 6,
                count: 3,
            }));
        }
        17 => {
            // Logical vs arithmetic right shift over a value the loop can
            // drive negative, one of them predicated.
            a.emit(Insn::new(Op::ShrI {
                dest: 10,
                src: 7,
                count: 2,
            }));
            a.cmp(1, 2, CmpRel::Lt, 7, 0);
            a.emit(Insn::pred(
                1,
                Op::SarI {
                    dest: 11,
                    src: 7,
                    count: 2,
                },
            ));
        }
        18 => {
            // Immediate compare feeding predicated consumers on both sides.
            a.emit(Insn::new(Op::CmpI {
                p1: 3,
                p2: 4,
                rel: CmpRel::Lt,
                imm: 20,
                r3: 6,
            }));
            a.emit(Insn::pred(
                3,
                Op::AddI {
                    dest: 10,
                    src: 10,
                    imm: 3,
                },
            ));
            a.emit(Insn::pred(4, Op::MovI { dest: 11, imm: 40 }));
        }
        19 => {
            a.emit(Insn::new(Op::FaddD {
                dest: 6,
                f1: 6,
                f2: 8,
            }));
        }
        20 => {
            a.cmp(1, 2, CmpRel::Ge, 6, 7);
            a.emit(Insn::pred(
                2,
                Op::FmulD {
                    dest: 8,
                    f1: 8,
                    f2: 6,
                },
            ));
        }
        21 => {
            // Forward conditional skip inside the loop body: `br.cond` both
            // taken and not taken, with a block boundary at the join point.
            a.cmp(1, 2, CmpRel::Lt, 6, 7);
            let skip = a.new_label();
            a.br_cond(1, skip);
            a.addi(10, 10, 1);
            a.bind(skip);
        }
        22 => {
            a.emit(Insn::new(Op::Ld8 {
                dest: 7,
                base: 4,
                post_inc: 8,
                bias: true,
            }));
        }
        _ => {
            a.emit(Insn::new(Op::Lfetch {
                base: 4,
                post_inc: 64,
                hint: LfetchHint::Nt1,
                excl: true,
            }));
        }
    }
}

/// A guest program ready to boot: the image, where each thread starts, and
/// the HPM sampling programmed on every thread's CPU before it runs.
#[derive(Debug, Clone)]
pub struct Program {
    pub image: CodeImage,
    /// `(cpu, entry, args)` per thread.
    pub threads: Vec<(usize, CodeAddr, Vec<i64>)>,
    pub sampling: Option<SamplingConfig>,
}

impl Program {
    /// `threads` copies of `image` entered at slot 0 on CPUs `0..threads`,
    /// without arguments or sampling.
    pub fn new(image: CodeImage, threads: usize) -> Self {
        Program {
            image,
            threads: (0..threads).map(|cpu| (cpu, 0, Vec::new())).collect(),
            sampling: None,
        }
    }
}

/// Highest data address any generated program can touch, rounded up.
pub const MEM_SPAN: u64 = 0x28000;

/// A generated workload: a counted loop over a random op mix, each thread
/// walking a pointer from its own base (or all from one shared base).
#[derive(Debug, Clone)]
pub struct LoopParams {
    pub altix: bool,
    /// Threads wanted; capped at the machine size.
    pub threads: usize,
    pub share_base: bool,
    pub sampling: Option<SamplingConfig>,
    /// [`emit_body_op`] selectors.
    pub body: Vec<u8>,
    pub iters: u64,
    /// The software-pipelined form: a three-stage `br.ctop` loop over
    /// rotating registers, shaped as `minicc::emit_stream_loop` emits it
    /// (see [`Self::program`]); otherwise a `br.cloop` loop.
    pub pipelined: bool,
}

impl LoopParams {
    pub fn cfg(&self) -> MachineConfig {
        if self.altix {
            MachineConfig::altix8()
        } else {
            MachineConfig::smp4()
        }
    }

    /// The loop program, plus where its body starts and ends (for mid-run
    /// patching).
    ///
    /// The pipelined form puts the loop head mid-block, after a prologue
    /// that clears the rotating bases, sets `lc` and `ec` and primes the
    /// stage predicates `p16..p18`. Around the random body, stage 1 (`p16`)
    /// loads into `f32` and computes into `r32`; stage 2 (`p17`) reads both
    /// a rotation later, as `f33` and `r33`, into `f40` and the static `r7`;
    /// stage 3 (`p18`) stores `f41` through its own pointer `r12`. The
    /// body's own registers are static, so they run through the same
    /// rotation untouched.
    pub fn program(&self) -> (Program, CodeAddr, CodeAddr) {
        let mut a = Assembler::new();
        // r8 = base address (thread argument), r4 = walking pointer.
        a.emit(Insn::new(Op::Add {
            dest: 4,
            r2: 8,
            r3: 0,
        }));
        if self.pipelined {
            a.addi(12, 8, 0x2000);
            a.emit(Insn::new(Op::Clrrrb));
        }
        a.movi(5, self.iters as i64);
        a.mov_to_lc(5);
        if self.pipelined {
            a.movi(5, 3);
            a.mov_to_ec(5);
            a.cmp(16, 17, CmpRel::Eq, 0, 0);
            a.cmp(18, 15, CmpRel::Ne, 0, 0);
        }
        let top = a.new_label();
        a.bind(top);
        let body_start = a.here();
        if self.pipelined {
            a.ldfd(16, 32, 4, 8);
            a.emit(Insn::pred(
                16,
                Op::AddI {
                    dest: 32,
                    src: 6,
                    imm: 3,
                },
            ));
        }
        for &sel in &self.body {
            emit_body_op(&mut a, sel);
        }
        if self.pipelined {
            a.fma_d(17, 40, 33, 1, 6);
            a.emit(Insn::pred(
                17,
                Op::Add {
                    dest: 7,
                    r2: 7,
                    r3: 33,
                },
            ));
            a.stfd(18, 41, 12, 8);
        }
        let body_end = a.here();
        if self.pipelined {
            a.br_ctop(top);
        } else {
            a.br_cloop(top);
        }
        a.hlt();
        let threads = (0..self.threads.min(self.cfg().num_cpus))
            .map(|cpu| {
                let base = if self.share_base {
                    0x1000u64
                } else {
                    0x1000 + cpu as u64 * 0x4000
                };
                (cpu, 0, vec![base as i64])
            })
            .collect();
        let program = Program {
            image: a.finish(),
            threads,
            sampling: self.sampling,
        };
        (program, body_start, body_end)
    }
}

/// The memory-boundary regime NPB runs in: on four CPUs, the tier-1 guest's
/// memory loop (`tests/engine_equivalence.rs`) in passes until the budget
/// ends — 200 iterations of a three-stage `br.ctop` loop over rotating FRs
/// and stage predicates that loads through `r4`, prefetches 0xc00 bytes
/// ahead into the next thread's region through `r10` and stores through
/// `r11` — with `INST_RETIRED` sampling programmed, as an attached run
/// leaves it.
pub fn mem_boundary_program() -> Program {
    let mut a = Assembler::new();
    let pass = a.new_label();
    a.bind(pass);
    a.mov(4, 8);
    a.addi(10, 8, 0x0c00);
    a.addi(11, 8, 0x0800);
    a.emit(Insn::new(Op::Clrrrb));
    a.movi(5, 199);
    a.mov_to_lc(5);
    a.movi(5, 3);
    a.mov_to_ec(5);
    a.cmp(16, 17, CmpRel::Eq, 0, 0);
    a.cmp(18, 15, CmpRel::Ne, 0, 0);
    let mem = a.new_label();
    a.bind(mem);
    a.ldfd(16, 32, 4, 8);
    a.emit(Insn::pred(
        16,
        Op::Lfetch {
            base: 10,
            post_inc: 64,
            hint: LfetchHint::Nt1,
            excl: false,
        },
    ));
    a.fma_d(17, 40, 33, 1, 7);
    a.fma_d(17, 7, 33, 1, 7);
    a.stfd(18, 41, 11, 8);
    a.br_ctop(mem);
    a.br_cond(0, pass); // p0: always taken, the budget ends the run
    Program {
        image: a.finish(),
        threads: (0..4)
            .map(|cpu| (cpu, 0, vec![0x10000 + cpu as i64 * 0x1000]))
            .collect(),
        sampling: Some(SamplingConfig {
            event: Event::InstRetired,
            period: 2000,
        }),
    }
}

/// Sampling on the `sel`-th of the four events the sampling gate can bound
/// per cycle; `sel == 4` leaves sampling off.
pub fn sampling(sel: u8, period: u64) -> Option<SamplingConfig> {
    let event = match sel % 5 {
        0 => Event::CpuCycles,
        1 => Event::StallCycles,
        2 => Event::InstRetired,
        3 => Event::BrTaken,
        _ => return None,
    };
    Some(SamplingConfig { event, period })
}

/// A machine of `cfg` on engine `accel` with `program` loaded, sampling
/// programmed and every thread spawned.
pub fn boot(cfg: &MachineConfig, accel: HostAccel, program: &Program) -> Machine {
    let mut m = Machine::new(cfg.clone().with_host_accel(accel), program.image.clone());
    for (cpu, entry, args) in &program.threads {
        if let Some(sc) = program.sampling {
            let baseline = m.stats()[*cpu].get(sc.event);
            m.shared.hpm[*cpu].program_sampling(sc, baseline);
        }
        m.spawn_thread(*cpu, *entry, args);
    }
    m
}

/// Everything observable about a machine after a run. Two runs are "the
/// same simulation" iff these snapshots are equal.
#[derive(Debug, PartialEq)]
pub struct Snapshot {
    pub result: RunResult,
    pub final_cycle: u64,
    pub total_stats: CpuStats,
    pub stats: Vec<CpuStats>,
    /// Drained, so a later snapshot of the same machine holds only the
    /// captures taken since.
    pub overflows: Vec<Vec<OverflowCapture>>,
    pub dear: Vec<Option<DearRecord>>,
    /// Per CPU: status, pc, r4..=r11 and r32..=r33 (read through the
    /// rotation, so the bases show), f6 bits, f8 bits.
    pub regs: Vec<(CoreStatus, CodeAddr, Vec<i64>, u64, u64)>,
    /// Data memory below [`MEM_SPAN`].
    pub mem_words: Vec<u64>,
    /// `[cpu][line]` over the same range.
    pub mesi: Vec<Vec<Option<Mesi>>>,
    pub drain_times: Vec<u64>,
    pub snoop_stalls: Vec<u64>,
    pub bus_transactions: u64,
}

pub fn snapshot(m: &mut Machine, result: RunResult) -> Snapshot {
    let cpus = 0..m.num_cpus();
    Snapshot {
        result,
        final_cycle: m.cycle(),
        total_stats: m.total_stats(),
        stats: m.stats().to_vec(),
        overflows: cpus
            .clone()
            .map(|cpu| m.shared.hpm[cpu].take_overflows())
            .collect(),
        dear: cpus.clone().map(|cpu| m.shared.hpm[cpu].dear()).collect(),
        regs: cpus
            .clone()
            .map(|cpu| {
                let c = m.core(cpu);
                (
                    c.status,
                    c.pc,
                    (4..=11).chain(32..=33).map(|r| c.gr(r)).collect(),
                    c.fr(6).to_bits(),
                    c.fr(8).to_bits(),
                )
            })
            .collect(),
        mem_words: (0..MEM_SPAN)
            .step_by(8)
            .map(|a| m.shared.mem.read_u64(a))
            .collect(),
        mesi: cpus
            .clone()
            .map(|cpu| {
                (0..MEM_SPAN)
                    .step_by(128)
                    .map(|a| m.shared.memsys.peek_state(cpu, a))
                    .collect()
            })
            .collect(),
        drain_times: cpus
            .clone()
            .map(|cpu| m.shared.memsys.store_drain_time(cpu))
            .collect(),
        snoop_stalls: cpus
            .map(|cpu| m.shared.memsys.snoop_stall_pending(cpu))
            .collect(),
        bus_transactions: m.shared.memsys.bus_transactions(),
    }
}

/// Boot `program` on a Reference machine and on a Fast one, `drive` each
/// the same way, and require the two to have observed the same thing
/// (snapshots, usually: one per run segment). Returns the common outcome.
pub fn assert_equivalent_with<T: PartialEq + Debug>(
    cfg: &MachineConfig,
    program: &Program,
    drive: impl Fn(&mut Machine) -> T,
) -> T {
    let reference = drive(&mut boot(cfg, HostAccel::reference(), program));
    let fast = drive(&mut boot(cfg, HostAccel::fast(), program));
    assert_eq!(reference, fast, "Fast diverged from Reference");
    fast
}

/// One `run(budget)` of `program` is the same simulation on both engines.
pub fn assert_equivalent(cfg: &MachineConfig, program: &Program, budget: u64) -> Snapshot {
    assert_equivalent_with(cfg, program, |m| {
        let result = m.run(budget);
        snapshot(m, result)
    })
}
