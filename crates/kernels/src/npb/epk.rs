//! EP — the embarrassingly parallel kernel: per-thread pseudo-random pair
//! generation and tallying, nearly no shared memory traffic.
//!
//! The paper excludes EP from Figures 5–7 because it shows no long-latency
//! coherent misses (§5.2); it appears in Table 1 with almost no prefetch
//! instructions. Our skeleton draws pairs from a per-thread 64-bit LCG and
//! counts how many land in the unit circle (a Monte-Carlo π tally); each
//! thread's count is written to its own cache line at the end.

use cobra_isa::insn::{CmpRel, Insn, Op};
use cobra_isa::{Assembler, CodeAddr, CodeImage};
use cobra_machine::{DataMem, Machine};
use cobra_omp::{abi, OmpRuntime, QuantumHook, Team};

use crate::minicc::PrefetchPolicy;
use crate::workload::{Arena, Workload, WorkloadRun};

/// EP configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EpParams {
    /// Number of random pairs to draw (split over threads).
    pub pairs: usize,
}

impl EpParams {
    /// Class-S-like scale (NPB class S draws 2^24 pairs; we scale to 2^16
    /// simulated pairs, which dominates the run the same way).
    pub(crate) fn class_s() -> Self {
        EpParams { pairs: 1 << 16 }
    }
}

const LCG_A: i64 = 0x5851_F42D_4C95_7F2Du64 as i64;
const LCG_C: i64 = 0x1405_7B7E_F767_814Fu64 as i64;

/// A built EP workload.
pub(crate) struct Ep {
    params: EpParams,
    image: CodeImage,
    entry: CodeAddr,
    out: u64,
}

impl Ep {
    pub(crate) fn build(params: EpParams, _policy: &PrefetchPolicy, mem_bytes: usize) -> Self {
        // EP is compute-bound: icc finds almost nothing to prefetch, so the
        // policy is irrelevant — matching Table 1's near-zero counts.
        let mut arena = Arena::new(mem_bytes);
        let out = arena.alloc_bytes(128 * 16);

        let mut a = Assembler::new();
        let entry = a.symbol("ep_body");
        // args: r12=out, r13=A, r14=C, r15=2^-30 bits, r16=0.5 bits, r17=seed
        a.emit(Insn::new(Op::SetfD {
            dest: 7,
            src: abi::R_ARG0 + 3,
        })); // 2^-30
        a.emit(Insn::new(Op::SetfD {
            dest: 8,
            src: abi::R_ARG0 + 4,
        })); // 0.5
        a.emit(Insn::new(Op::FmulD {
            dest: 6,
            f1: 8,
            f2: 8,
        })); // 0.25
             // state = seed + (tid+1) * GOLD (distinct per-thread streams)
        a.movi(2, 0x9E37_79B9);
        a.addi(3, abi::R_TID, 1);
        a.emit(Insn::new(Op::Mul {
            dest: 2,
            r2: 2,
            r3: 3,
        }));
        a.emit(Insn::new(Op::Add {
            dest: 2,
            r2: 2,
            r3: abi::R_ARG0 + 5,
        }));
        // count (r19) = 0; trip count r20 = hi - lo
        a.movi(19, 0);
        a.emit(Insn::new(Op::Sub {
            dest: 20,
            r2: abi::R_HI,
            r3: abi::R_LO,
        }));
        let done = a.new_label();
        a.emit(Insn::new(Op::CmpI {
            p1: 6,
            p2: 7,
            rel: CmpRel::Ge,
            imm: 0,
            r3: 20,
        }));
        a.br_cond(6, done);
        a.addi(20, 20, -1);
        a.mov_to_lc(20);
        let top = a.new_label();
        a.bind(top);
        // x draw
        a.emit(Insn::new(Op::Mul {
            dest: 2,
            r2: 2,
            r3: abi::R_ARG0 + 1,
        }));
        a.emit(Insn::new(Op::Add {
            dest: 2,
            r2: 2,
            r3: abi::R_ARG0 + 2,
        }));
        a.emit(Insn::new(Op::ShrI {
            dest: 4,
            src: 2,
            count: 34,
        }));
        a.emit(Insn::new(Op::SetfSig { dest: 10, src: 4 }));
        a.emit(Insn::new(Op::FcvtXf { dest: 10, src: 10 }));
        a.emit(Insn::new(Op::FmulD {
            dest: 10,
            f1: 10,
            f2: 7,
        })); // x in [0,1)
             // y draw
        a.emit(Insn::new(Op::Mul {
            dest: 2,
            r2: 2,
            r3: abi::R_ARG0 + 1,
        }));
        a.emit(Insn::new(Op::Add {
            dest: 2,
            r2: 2,
            r3: abi::R_ARG0 + 2,
        }));
        a.emit(Insn::new(Op::ShrI {
            dest: 4,
            src: 2,
            count: 34,
        }));
        a.emit(Insn::new(Op::SetfSig { dest: 11, src: 4 }));
        a.emit(Insn::new(Op::FcvtXf { dest: 11, src: 11 }));
        a.emit(Insn::new(Op::FmulD {
            dest: 11,
            f1: 11,
            f2: 7,
        }));
        // d = (x-1/2)^2 + (y-1/2)^2
        a.emit(Insn::new(Op::FsubD {
            dest: 12,
            f1: 10,
            f2: 8,
        }));
        a.emit(Insn::new(Op::FsubD {
            dest: 13,
            f1: 11,
            f2: 8,
        }));
        a.emit(Insn::new(Op::FmaD {
            dest: 14,
            f1: 12,
            f2: 12,
            f3: 0,
        }));
        a.emit(Insn::new(Op::FmaD {
            dest: 14,
            f1: 13,
            f2: 13,
            f3: 14,
        }));
        a.emit(Insn::new(Op::FcmpD {
            p1: 8,
            p2: 9,
            rel: CmpRel::Le,
            f1: 14,
            f2: 6,
        }));
        a.emit(Insn::pred(
            8,
            Op::AddI {
                dest: 19,
                src: 19,
                imm: 1,
            },
        ));
        a.br_cloop(top);
        a.bind(done);
        // out[tid] (one line apart) = count
        a.emit(Insn::new(Op::ShlI {
            dest: 5,
            src: abi::R_TID,
            count: 7,
        }));
        a.emit(Insn::new(Op::Add {
            dest: 5,
            r2: 5,
            r3: abi::R_ARG0,
        }));
        a.st8(0, 19, 5, 0);
        a.hlt();
        let image = a.finish();
        Ep {
            params,
            image,
            entry,
            out,
        }
    }

    /// Host mirror of one thread's chunk.
    fn host_count(seed: i64, pairs: usize) -> i64 {
        let inv: f64 = (1.0f64) / (1u64 << 30) as f64;
        let mut state = seed;
        let mut count = 0i64;
        for _ in 0..pairs {
            state = state.wrapping_mul(LCG_A).wrapping_add(LCG_C);
            let x = ((state as u64) >> 34) as f64 * inv;
            state = state.wrapping_mul(LCG_A).wrapping_add(LCG_C);
            let y = ((state as u64) >> 34) as f64 * inv;
            let dx = x - 0.5;
            let dy = y - 0.5;
            let d = dy.mul_add(dy, dx.mul_add(dx, 0.0));
            if d <= 0.25 {
                count += 1;
            }
        }
        count
    }
}

const SEED_BASE: i64 = 20070612;

impl Workload for Ep {
    fn name(&self) -> &'static str {
        "ep"
    }

    fn image(&self) -> &CodeImage {
        &self.image
    }

    fn init(&self, mem: &mut DataMem) {
        for t in 0..16 {
            mem.write_u64(self.out + 128 * t, 0);
        }
    }

    fn run(
        &self,
        machine: &mut Machine,
        team: Team,
        rt: &OmpRuntime,
        hook: &mut dyn QuantumHook,
    ) -> WorkloadRun {
        let start = machine.cycle();
        let inv: f64 = 1.0 / (1u64 << 30) as f64;
        let args = [
            self.out as i64,
            LCG_A,
            LCG_C,
            inv.to_bits() as i64,
            0.5f64.to_bits() as i64,
            SEED_BASE,
        ];
        rt.parallel_for(
            machine,
            team,
            self.entry,
            0,
            self.params.pairs as i64,
            &args,
            hook,
        );
        // Remember the team so verify can mirror the chunking.
        machine
            .shared
            .mem
            .write_u64(self.out + 128 * 15 + 8, team.num_threads as u64);
        WorkloadRun {
            cycles: machine.cycle() - start,
        }
    }

    fn verify(&self, mem: &DataMem) -> Result<(), String> {
        let nthreads = mem.read_u64(self.out + 128 * 15 + 8) as usize;
        if nthreads == 0 || nthreads > 15 {
            return Err(format!("bad recorded team size {nthreads}"));
        }
        let team = Team::new(nthreads);
        for (tid, (lo, hi)) in team
            .static_chunks(0, self.params.pairs as i64)
            .into_iter()
            .enumerate()
        {
            let seed = 0x9E37_79B9i64 * (tid as i64 + 1) + SEED_BASE;
            let want = Self::host_count(seed, (hi - lo) as usize);
            let got = mem.read_u64(self.out + 128 * tid as u64) as i64;
            if got != want {
                return Err(format!("tid {tid}: count {got}, expected {want}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::execute_plain;
    use cobra_machine::{Event, MachineConfig};

    #[test]
    fn ep_counts_match_host_lcg_mirror() {
        let cfg = MachineConfig::smp4();
        for threads in [1, 2, 4] {
            let ep = Ep::build(
                EpParams { pairs: 4000 },
                &PrefetchPolicy::aggressive(),
                cfg.mem_bytes,
            );
            execute_plain(&ep, &cfg, Team::new(threads));
        }
    }

    #[test]
    fn ep_tallies_are_plausibly_pi() {
        let cfg = MachineConfig::smp4();
        let ep = Ep::build(
            EpParams { pairs: 20_000 },
            &PrefetchPolicy::aggressive(),
            cfg.mem_bytes,
        );
        let (m, _) = execute_plain(&ep, &cfg, Team::new(4));
        let total: i64 = (0..4)
            .map(|t| m.shared.mem.read_u64(ep.out + 128 * t) as i64)
            .sum();
        let pi = 4.0 * total as f64 / 20_000.0;
        assert!((pi - std::f64::consts::PI).abs() < 0.1, "pi estimate {pi}");
    }

    #[test]
    fn ep_has_near_zero_prefetch_and_coherence() {
        let cfg = MachineConfig::smp4();
        let ep = Ep::build(
            EpParams { pairs: 8_000 },
            &PrefetchPolicy::aggressive(),
            cfg.mem_bytes,
        );
        assert_eq!(
            ep.image().count_matching(|i| i.is_lfetch()),
            0,
            "Table 1: EP has no stream loops"
        );
        let (m, _) = execute_plain(&ep, &cfg, Team::new(4));
        let total = m.total_stats();
        // A handful of events from the result-line writes at most.
        assert!(
            total.get(Event::BusRdHitm) < 20,
            "EP must show no meaningful coherent misses"
        );
    }
}
