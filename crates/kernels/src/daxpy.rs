//! The OpenMP DAXPY kernel of the paper's Figures 1–3.
//!
//! ```c
//! for (j=0; j < REPS; j++)
//!   #pragma omp parallel for
//!   for (i=0; i < ARRAY_SZ; i++)
//!     y[i] = y[i] + a * x[i];
//! ```
//!
//! The binary is produced by `minicc` in the icc -O3 shape: a 6-line
//! prefetch burst for `y`, then a software-pipelined loop issuing one
//! `lfetch.nt1` per array per iteration about 1200 bytes (9 cache lines)
//! ahead. The *working set* is the two arrays together, as in the paper's
//! §2 (so `ARRAY_SZ = working_set_bytes / 16`).

use cobra_isa::{Assembler, CodeAddr, CodeImage};
use cobra_machine::{DataMem, Machine};
use cobra_omp::{abi, OmpRuntime, QuantumHook, Team};

use crate::minicc::{
    emit_coef, emit_ptr, emit_stream_loop, emit_trip_count, LoopMeta, PrefetchPolicy, Stream,
    StreamLoopSpec, StreamOp,
};
use crate::workload::{Arena, Workload, WorkloadRun};

/// DAXPY configuration.
#[derive(Debug, Clone, Copy)]
pub struct DaxpyParams {
    /// Combined size of `x[]` and `y[]` in bytes (the paper sweeps 128 KB,
    /// 512 KB, 2 MB).
    pub working_set_bytes: usize,
    /// Outer repetitions (the `j` loop; the paper uses 10^6 wall-clock
    /// repetitions — simulated runs converge to steady state much sooner).
    pub reps: usize,
    /// Scalar coefficient.
    pub a: f64,
}

impl DaxpyParams {
    pub fn new(working_set_bytes: usize, reps: usize) -> Self {
        assert!(working_set_bytes.is_multiple_of(16));
        DaxpyParams {
            working_set_bytes,
            reps,
            a: 2.0,
        }
    }

    /// Elements per array.
    pub fn n(&self) -> usize {
        self.working_set_bytes / 16
    }
}

/// A built DAXPY workload.
#[derive(Debug, Clone)]
pub struct Daxpy {
    params: DaxpyParams,
    image: CodeImage,
    entry: CodeAddr,
    x_addr: u64,
    y_addr: u64,
    meta: LoopMeta,
}

impl Daxpy {
    /// Generate the binary under `policy` (minimum data-memory budget is
    /// taken from the working set; the harness passes the machine config's
    /// memory size).
    pub fn build(params: DaxpyParams, policy: &PrefetchPolicy, mem_bytes: usize) -> Self {
        let n = params.n();
        let mut arena = Arena::new(mem_bytes);
        let x_addr = arena.alloc_f64(n);
        let y_addr = arena.alloc_f64(n);

        let mut a = Assembler::new();
        let entry = a.symbol("daxpy_body");
        // args: r12 = x base, r13 = y base, r14 = a bits
        emit_coef(&mut a, 6, abi::R_ARG0 + 2);
        emit_ptr(&mut a, 2, abi::R_ARG0, abi::R_LO, 0, 3); // x load
        emit_ptr(&mut a, 3, abi::R_ARG0 + 1, abi::R_LO, 0, 3); // y load
        emit_ptr(&mut a, 4, abi::R_ARG0 + 1, abi::R_LO, 0, 3); // y store
        emit_trip_count(&mut a, 20, abi::R_LO, abi::R_HI);
        // prefetch pointers run `distance_bytes` ahead of the references
        a.addi(27, 2, policy.distance_bytes as i32);
        a.addi(28, 3, policy.distance_bytes as i32);
        let spec = StreamLoopSpec {
            op: StreamOp::Daxpy,
            x1: Stream { ptr: 2, stride: 8 },
            x2: Some(Stream { ptr: 3, stride: 8 }),
            y: Some(Stream { ptr: 4, stride: 8 }),
            n: 20,
            coef: 6,
            acc: 9,
            prefetch: vec![Stream { ptr: 27, stride: 8 }, Stream { ptr: 28, stride: 8 }],
            burst: vec![4],
        };
        let meta = emit_stream_loop(&mut a, policy, &spec);
        a.hlt();
        let image = a.finish();

        Daxpy {
            params,
            image,
            entry,
            x_addr,
            y_addr,
            meta,
        }
    }

    pub fn params(&self) -> &DaxpyParams {
        &self.params
    }

    /// Loop metadata (test introspection; COBRA never reads this).
    pub fn meta(&self) -> &LoopMeta {
        &self.meta
    }

    /// Byte address of `x[]`.
    pub fn x_addr(&self) -> u64 {
        self.x_addr
    }

    /// Byte address of `y[]`.
    pub fn y_addr(&self) -> u64 {
        self.y_addr
    }

    fn x0(&self, i: usize) -> f64 {
        (i % 16) as f64 * 0.25 + 1.0
    }

    fn y0(&self, i: usize) -> f64 {
        (i % 8) as f64 - 3.5
    }
}

impl Workload for Daxpy {
    fn name(&self) -> &'static str {
        "daxpy"
    }

    fn image(&self) -> &CodeImage {
        &self.image
    }

    fn init(&self, mem: &mut DataMem) {
        for i in 0..self.params.n() {
            mem.write_f64(self.x_addr + 8 * i as u64, self.x0(i));
            mem.write_f64(self.y_addr + 8 * i as u64, self.y0(i));
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
        let args = [
            self.x_addr as i64,
            self.y_addr as i64,
            self.params.a.to_bits() as i64,
        ];
        for _ in 0..self.params.reps {
            rt.parallel_for(
                machine,
                team,
                self.entry,
                0,
                self.params.n() as i64,
                &args,
                hook,
            );
        }
        WorkloadRun {
            cycles: machine.cycle() - start,
        }
    }

    fn verify(&self, mem: &DataMem) -> Result<(), String> {
        let n = self.params.n();
        for i in 0..n {
            let mut want = self.y0(i);
            for _ in 0..self.params.reps {
                want = self.params.a.mul_add(self.x0(i), want);
            }
            let got = mem.read_f64(self.y_addr + 8 * i as u64);
            if got != want {
                return Err(format!("y[{i}] = {got}, expected {want}"));
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
    fn daxpy_verifies_under_every_policy_and_team() {
        let cfg = MachineConfig::smp4();
        for policy in [
            PrefetchPolicy::aggressive(),
            PrefetchPolicy::none(),
            PrefetchPolicy::aggressive_excl(),
        ] {
            for threads in [1, 2, 4] {
                let d = Daxpy::build(DaxpyParams::new(32 * 1024, 3), &policy, cfg.mem_bytes);
                let (_m, run) = execute_plain(&d, &cfg, Team::new(threads));
                assert!(run.cycles > 0);
            }
        }
    }

    #[test]
    fn daxpy_verify_rejects_a_perturbed_result() {
        let cfg = MachineConfig::smp4();
        let d = Daxpy::build(
            DaxpyParams::new(32 * 1024, 3),
            &PrefetchPolicy::aggressive(),
            cfg.mem_bytes,
        );
        let (mut m, _) = execute_plain(&d, &cfg, Team::new(4));
        let at = d.y_addr() + 8 * 7;
        let y = m.shared.mem.read_f64(at);
        m.shared.mem.write_f64(at, f64::from_bits(y.to_bits() ^ 1));
        let err = d.verify(&m.shared.mem).unwrap_err();
        assert!(err.starts_with("y[7] = "), "{err}");
    }

    #[test]
    fn static_lfetch_count_matches_figure2_shape() {
        let cfg = MachineConfig::smp4();
        let d = Daxpy::build(
            DaxpyParams::new(128 * 1024, 1),
            &PrefetchPolicy::aggressive(),
            cfg.mem_bytes,
        );
        // 6-line burst + 2 per-iteration prefetches (x and y streams).
        let count = d.image().count_matching(|i| i.is_lfetch());
        assert_eq!(count, 8);
        assert_eq!(d.meta().lfetch_addrs.len(), 8);
    }

    #[test]
    fn prefetch_crossing_creates_coherent_traffic_at_small_ws() {
        // The §2 pathology: 128 KB working set, 4 threads — the prefetch
        // variant must generate coherent misses the noprefetch variant
        // avoids.
        let cfg = MachineConfig::smp4();
        let run = |policy: PrefetchPolicy| {
            // Enough repetitions to reach the steady state (the paper runs
            // 10^6; the crossover here is ~6).
            let d = Daxpy::build(DaxpyParams::new(128 * 1024, 16), &policy, cfg.mem_bytes);
            let (m, run) = execute_plain(&d, &cfg, Team::new(4));
            (m.total_stats(), run.cycles)
        };
        let (with_stats, with_cycles) = run(PrefetchPolicy::aggressive());
        let (without_stats, without_cycles) = run(PrefetchPolicy::none());
        assert!(
            with_stats.coherent_events() > 2 * without_stats.coherent_events().max(1),
            "prefetch: {} coherent events, noprefetch: {}",
            with_stats.coherent_events(),
            without_stats.coherent_events()
        );
        assert!(
            without_cycles < with_cycles,
            "noprefetch must win at 128K/4t: {without_cycles} vs {with_cycles}"
        );
    }

    #[test]
    fn prefetch_wins_at_large_ws_single_thread() {
        let cfg = MachineConfig::smp4();
        let run = |policy: PrefetchPolicy| {
            let d = Daxpy::build(DaxpyParams::new(2 * 1024 * 1024, 2), &policy, cfg.mem_bytes);
            let (_m, run) = execute_plain(&d, &cfg, Team::new(1));
            run.cycles
        };
        let with = run(PrefetchPolicy::aggressive());
        let without = run(PrefetchPolicy::none());
        assert!(
            without as f64 > with as f64 * 1.3,
            "prefetch must win at 2M/1t: {with} vs {without}"
        );
    }

    #[test]
    fn excl_reduces_upgrades_at_small_ws() {
        let cfg = MachineConfig::smp4();
        let run = |policy: PrefetchPolicy| {
            let d = Daxpy::build(DaxpyParams::new(128 * 1024, 6), &policy, cfg.mem_bytes);
            let (m, run) = execute_plain(&d, &cfg, Team::new(4));
            (m.total_stats().get(Event::BusUpgrade), run.cycles)
        };
        let (upg_plain, _) = run(PrefetchPolicy::aggressive());
        let (upg_excl, _) = run(PrefetchPolicy::aggressive_excl());
        assert!(
            upg_excl < upg_plain,
            "exclusive prefetching must remove store upgrades: {upg_excl} vs {upg_plain}"
        );
    }
}
