//! `npb_fixed_smp4` / `npb_fixed_altix8`: the paper's headline experiment.
//!
//! The Fig. 5/6/7 arms on one machine: NPB kernels under the prefetch
//! baseline and the three COBRA arms (noprefetch, prefetch.excl, classic
//! adaptive) at the paper's 20 k-cycle quantum, every run verified against
//! the host mirror. At least 85 % of the host time is the `machine` layer —
//! on smp4 the snooping-bus MESI path, on altix8 the cc-NUMA directory and
//! hop path with twice the cores — and the `rt` hook is a few percent, so
//! this is where a memory-system change must show and a runtime change
//! must not.

use cobra_harness::npbsuite::Arm;
use cobra_kernels::{npb, PrefetchPolicy};
use cobra_machine::MachineConfig;
use cobra_rt::Strategy;

use crate::probes;
use crate::scenario::{converge_tick, speedup_pct, Layers, PassOut, Scenario, SimPass};
use crate::sim::{pinned_accel, run_cell, Attach};
use crate::span::Tracer;

/// The paper's monitoring quantum.
const QUANTUM: u64 = 20_000;

/// Four of the six kernels of Figures 5–7. `ft` and `mg` are the same
/// generated sweeps as `bt`, `sp` and `lu` at four times the size: they are
/// three quarters of the grid's host time and take no path the others do
/// not, and without them a pass is short enough (under 2 s on smp4) for a
/// run to repeat it eight times, which is what steadies the timing
/// (README.md, Steadiness). A complete record runs all six, through the
/// harness, for the paper's shape checks.
const KERNELS: [npb::Benchmark; 4] = [
    npb::Benchmark::Bt,
    npb::Benchmark::Sp,
    npb::Benchmark::Lu,
    npb::Benchmark::Cg,
];

pub struct NpbFixed {
    cfg: MachineConfig,
    threads: usize,
    seed: u64,
}

impl NpbFixed {
    pub fn smp4(seed: u64) -> NpbFixed {
        NpbFixed {
            cfg: pinned_accel(MachineConfig::smp4()),
            threads: 4,
            seed,
        }
    }

    pub fn altix8(seed: u64) -> NpbFixed {
        NpbFixed {
            cfg: pinned_accel(MachineConfig::altix8()),
            threads: 8,
            seed,
        }
    }
}

fn strategy(arm: Arm) -> Option<Strategy> {
    match arm {
        Arm::Baseline => None,
        Arm::NoPrefetch => Some(Strategy::NoPrefetch),
        Arm::Excl => Some(Strategy::ExclHint),
        Arm::Adaptive => Some(Strategy::Adaptive),
    }
}

impl Scenario for NpbFixed {
    fn pass(&mut self, tr: &mut Tracer) -> Result<PassOut, String> {
        let root = tr.enter("pass");
        let mut pass = SimPass::default();
        // Guest cycles of the baseline and the adaptive arm, kernel by
        // kernel, and the adaptive arm's convergence.
        let (mut baseline, mut adaptive) = (Vec::new(), Vec::new());
        let mut converge = 0u64;
        for bench in KERNELS {
            let build = || npb::build(bench, &PrefetchPolicy::aggressive(), self.cfg.mem_bytes);
            for arm in Arm::ALL {
                let attach = strategy(arm).map(|strategy| Attach {
                    strategy,
                    quantum: QUANTUM,
                    candidates: false,
                    store: None,
                });
                let cell = run_cell(tr, &build, &self.cfg, self.threads, attach);
                if let Some(out) = pass.push(cell) {
                    match arm {
                        Arm::Baseline => baseline.push(out.cycles),
                        Arm::Adaptive => {
                            adaptive.push(out.cycles);
                            converge += out.report.as_ref().map_or(0, converge_tick);
                        }
                        Arm::NoPrefetch | Arm::Excl => {}
                    }
                }
            }
        }
        tr.exit(root);

        let mut extra = Layers::new();
        if pass.failed == 0 {
            extra.push(("rt.adaptive_speedup_pct", speedup_pct(&baseline, &adaptive)));
            extra.push(("rt.converge_ticks", converge as f64));
        }
        let mut out = pass.finish(tr, root);
        out.layers.extend(extra);
        Ok(out)
    }

    fn probes(&mut self, tr: &mut Tracer) -> Result<Layers, String> {
        Ok(probes::memsys(&self.cfg, self.seed, tr))
    }
}
