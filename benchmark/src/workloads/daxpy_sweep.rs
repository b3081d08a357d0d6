//! `daxpy_sweep`: working set against the modelled caches, no COBRA.
//!
//! Fig. 3's cells: DAXPY at 128 K (fits L2), 512 K and 2 M (exceeds it), on
//! 1, 2 and 4 threads of smp4, under the three static prefetch policies,
//! each run once for twelve repetitions from empty caches. The 2 M working
//! set runs on one thread only — the cell the paper's claims read — because
//! its 2- and 4-thread cells cost as much host time as the rest of the grid
//! together. One-thread cells are private hits and stream misses (the
//! `memsys` MRU filter and miss path); four-thread 128 K cells are coherent
//! ping-pong. `rt` does nothing here, so an `rt` change must not move this
//! workload.

use cobra_harness::fig3::{self, Variant};
use cobra_kernels::{Daxpy, DaxpyParams, PrefetchPolicy, Workload};
use cobra_machine::MachineConfig;

use crate::probes;
use crate::scenario::{Layers, PassOut, Scenario, SimPass};
use crate::sim::{pinned_accel, run_cell};
use crate::span::Tracer;

const VARIANTS: [Variant; 3] = [
    Variant::Prefetch,
    Variant::NoPrefetch,
    Variant::PrefetchExcl,
];

const LARGEST: usize = 2 * 1024 * 1024;

/// Half of Fig. 3's own long run (8 warm-up + 16 measured): the coherence
/// steady state settles within ten, and a pass of 21 cells stays near 2 s,
/// so a run repeats it six to eight times (README.md, Steadiness). Fig. 3
/// itself, differenced against its warm-up run, is measured by the harness
/// in a complete record.
const REPS: usize = 12;

fn policy(v: Variant) -> PrefetchPolicy {
    match v {
        Variant::Prefetch => PrefetchPolicy::aggressive(),
        Variant::NoPrefetch => PrefetchPolicy::none(),
        Variant::PrefetchExcl => PrefetchPolicy::aggressive_excl(),
    }
}

pub struct DaxpySweep {
    cfg: MachineConfig,
    seed: u64,
}

impl DaxpySweep {
    pub fn new(seed: u64) -> DaxpySweep {
        DaxpySweep {
            cfg: pinned_accel(MachineConfig::smp4()),
            seed,
        }
    }
}

impl Scenario for DaxpySweep {
    fn pass(&mut self, tr: &mut Tracer) -> Result<PassOut, String> {
        let root = tr.enter("pass");
        let mut pass = SimPass::default();
        for ws in fig3::WORKING_SETS {
            for threads in fig3::THREADS {
                if ws == LARGEST && threads > 1 {
                    continue;
                }
                for variant in VARIANTS {
                    let build = || -> Box<dyn Workload> {
                        Box::new(Daxpy::build(
                            DaxpyParams::new(ws, REPS),
                            &policy(variant),
                            self.cfg.mem_bytes,
                        ))
                    };
                    pass.push(run_cell(tr, &build, &self.cfg, threads, None));
                }
            }
        }
        tr.exit(root);
        Ok(pass.finish(tr, root))
    }

    fn probes(&mut self, tr: &mut Tracer) -> Result<Layers, String> {
        Ok(probes::memsys(&self.cfg, self.seed, tr))
    }
}
