//! IS — integer bucket counting (the ranking core of NPB integer sort).
//!
//! Random keys are histogrammed into per-thread private buckets (indirect
//! integer load/increment/store chains), then the private histograms are
//! merged. Like EP, IS shows no long-latency coherent misses and is
//! excluded from Figures 5–7; its Table 1 row has only a handful of
//! prefetches (the sequential key stream).

use cobra_isa::insn::{CmpRel, Insn, Op};
use cobra_isa::{Assembler, CodeAddr, CodeImage, LfetchHint};
use cobra_machine::{DataMem, Machine};
use cobra_omp::{abi, OmpRuntime, QuantumHook, Team};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::minicc::PrefetchPolicy;
use crate::workload::{Arena, Workload, WorkloadRun};

/// IS configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IsParams {
    /// Number of keys.
    pub keys: usize,
    /// Number of buckets (power of two).
    pub buckets: usize,
    /// Ranking repetitions.
    pub reps: usize,
}

impl IsParams {
    /// Class-S-like scale (NPB class S sorts 2^16 keys).
    pub(crate) fn class_s() -> Self {
        IsParams {
            keys: 1 << 15,
            buckets: 512,
            reps: 3,
        }
    }
}

const MAX_THREADS: usize = 16;

/// A built IS workload.
pub(crate) struct Is {
    params: IsParams,
    image: CodeImage,
    count_entry: CodeAddr,
    merge_entry: CodeAddr,
    key_addr: u64,
    priv_addr: u64,
    counts_addr: u64,
    keys: Vec<i64>,
}

impl Is {
    pub(crate) fn build(params: IsParams, policy: &PrefetchPolicy, mem_bytes: usize) -> Self {
        assert!(params.buckets.is_power_of_two());
        let mut rng = SmallRng::seed_from_u64(0x15_15);
        let keys: Vec<i64> = (0..params.keys)
            .map(|_| rng.gen_range(0..params.buckets as i64))
            .collect();

        let mut arena = Arena::new(mem_bytes);
        let key_addr = arena.alloc_i64(params.keys);
        let priv_addr = arena.alloc_i64(MAX_THREADS * params.buckets);
        let counts_addr = arena.alloc_i64(params.buckets);

        let mut a = Assembler::new();
        let count_entry = Self::emit_count(&mut a, &params, policy);
        let merge_entry = Self::emit_merge(&mut a, &params);
        let image = a.finish();

        Is {
            params,
            image,
            count_entry,
            merge_entry,
            key_addr,
            priv_addr,
            counts_addr,
            keys,
        }
    }

    /// Count region: `priv[tid][key[i]] += 1` for `i` in the chunk.
    /// args: r12=key, r13=priv base.
    fn emit_count(a: &mut Assembler, params: &IsParams, policy: &PrefetchPolicy) -> CodeAddr {
        let entry = a.symbol("is_count");
        // r2 = &key[lo]
        a.emit(Insn::new(Op::ShlI {
            dest: 2,
            src: abi::R_LO,
            count: 3,
        }));
        a.emit(Insn::new(Op::Add {
            dest: 2,
            r2: 2,
            r3: abi::R_ARG0,
        }));
        // r3 = priv + tid * buckets * 8
        a.movi(3, (params.buckets * 8) as i64);
        a.emit(Insn::new(Op::Mul {
            dest: 3,
            r2: 3,
            r3: abi::R_TID,
        }));
        a.emit(Insn::new(Op::Add {
            dest: 3,
            r2: 3,
            r3: abi::R_ARG0 + 1,
        }));
        // trip count
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
        if policy.enabled {
            a.addi(27, 2, policy.distance_bytes as i32);
        }
        let top = a.new_label();
        a.bind(top);
        a.ld8(0, 6, 2, 8); // key
        if policy.enabled {
            a.emit(Insn::new(Op::Lfetch {
                base: 27,
                post_inc: 8,
                hint: LfetchHint::Nt1,
                excl: policy.excl,
            }));
        }
        a.emit(Insn::new(Op::ShlI {
            dest: 6,
            src: 6,
            count: 3,
        }));
        a.emit(Insn::new(Op::Add {
            dest: 6,
            r2: 6,
            r3: 3,
        }));
        a.ld8(0, 7, 6, 0);
        a.addi(7, 7, 1);
        a.st8(0, 7, 6, 0);
        a.br_cloop(top);
        a.bind(done);
        a.hlt();
        entry
    }

    /// Merge region: `counts[b] = Σ_t priv[t][b]` for buckets in the chunk.
    /// args: r12=priv base, r13=counts base.
    fn emit_merge(a: &mut Assembler, params: &IsParams) -> CodeAddr {
        let entry = a.symbol("is_merge");
        // r2 = &counts[lo]; bucket cursor r4 = lo (as byte offset r5 = lo*8)
        a.emit(Insn::new(Op::ShlI {
            dest: 5,
            src: abi::R_LO,
            count: 3,
        }));
        a.emit(Insn::new(Op::Add {
            dest: 2,
            r2: 5,
            r3: abi::R_ARG0 + 1,
        }));
        a.emit(Insn::new(Op::Sub {
            dest: 21,
            r2: abi::R_HI,
            r3: abi::R_LO,
        }));
        let done = a.new_label();
        a.emit(Insn::new(Op::CmpI {
            p1: 6,
            p2: 7,
            rel: CmpRel::Ge,
            imm: 0,
            r3: 21,
        }));
        a.br_cond(6, done);
        let outer = a.new_label();
        a.bind(outer);
        // r3 = &priv[0][b] = priv + r5 ; acc r7 = 0
        a.emit(Insn::new(Op::Add {
            dest: 3,
            r2: 5,
            r3: abi::R_ARG0,
        }));
        a.movi(7, 0);
        // inner over threads: LC = nthreads - 1
        a.addi(22, abi::R_NTH, -1);
        a.mov_to_lc(22);
        let inner = a.new_label();
        a.bind(inner);
        a.ld8(0, 6, 3, (params.buckets * 8) as i32);
        a.emit(Insn::new(Op::Add {
            dest: 7,
            r2: 7,
            r3: 6,
        }));
        a.br_cloop(inner);
        a.st8(0, 7, 2, 8);
        a.addi(5, 5, 8);
        a.addi(21, 21, -1);
        a.emit(Insn::new(Op::Cmp {
            p1: 8,
            p2: 9,
            rel: CmpRel::Gt,
            r2: 21,
            r3: 0,
        }));
        // While-style back edge (a `br.wtop` loop, as icc emits for loops
        // with data-dependent trip counts; no rotating state is live here).
        a.br_wtop(8, outer);
        a.bind(done);
        a.hlt();
        entry
    }
}

impl Workload for Is {
    fn name(&self) -> &'static str {
        "is"
    }

    fn image(&self) -> &CodeImage {
        &self.image
    }

    fn init(&self, mem: &mut DataMem) {
        mem.write_i64_slice(self.key_addr, &self.keys);
        mem.write_i64_slice(
            self.priv_addr,
            &vec![0i64; MAX_THREADS * self.params.buckets],
        );
        mem.write_i64_slice(self.counts_addr, &vec![0i64; self.params.buckets]);
    }

    fn run(
        &self,
        machine: &mut Machine,
        team: Team,
        rt: &OmpRuntime,
        hook: &mut dyn QuantumHook,
    ) -> WorkloadRun {
        let start = machine.cycle();
        for _ in 0..self.params.reps {
            rt.parallel_for(
                machine,
                team,
                self.count_entry,
                0,
                self.params.keys as i64,
                &[self.key_addr as i64, self.priv_addr as i64],
                hook,
            );
            rt.parallel_for(
                machine,
                team,
                self.merge_entry,
                0,
                self.params.buckets as i64,
                &[self.priv_addr as i64, self.counts_addr as i64],
                hook,
            );
        }
        WorkloadRun {
            cycles: machine.cycle() - start,
        }
    }

    #[allow(clippy::needless_range_loop)] // b addresses memory and indexes hist
    fn verify(&self, mem: &DataMem) -> Result<(), String> {
        let mut hist = vec![0i64; self.params.buckets];
        for &k in &self.keys {
            hist[k as usize] += 1;
        }
        for b in 0..self.params.buckets {
            let want = hist[b] * self.params.reps as i64;
            let got = mem.read_u64(self.counts_addr + 8 * b as u64) as i64;
            if got != want {
                return Err(format!("counts[{b}] = {got}, expected {want}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::execute_plain;
    use cobra_machine::MachineConfig;

    fn small() -> IsParams {
        IsParams {
            keys: 3000,
            buckets: 64,
            reps: 2,
        }
    }

    #[test]
    fn is_histogram_matches_for_all_team_sizes() {
        let cfg = MachineConfig::smp4();
        for threads in [1, 2, 4] {
            let is = Is::build(small(), &PrefetchPolicy::aggressive(), cfg.mem_bytes);
            execute_plain(&is, &cfg, Team::new(threads));
        }
    }

    #[test]
    fn is_has_few_prefetches() {
        let cfg = MachineConfig::smp4();
        let is = Is::build(small(), &PrefetchPolicy::aggressive(), cfg.mem_bytes);
        let n = is.image().count_matching(|i| i.is_lfetch());
        assert!(n <= 2, "IS prefetches only the key stream, got {n}");
    }
}
