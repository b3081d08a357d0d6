//! `adapt_fine_smp4`: the decision pipeline doing real work.
//!
//! Five coherent kernels on smp4 under `Strategy::Adaptive` with
//! per-loop candidate tournaments and OSR, at a **500-cycle quantum** — 40
//! times finer than the paper's — so the hook (perfmon poll and drain, the
//! monitor/optimizer handshake, verify, OSR arming, store I/O) is a quarter
//! to a half of the host time instead of a few percent. One pass is a
//! round: a cold run of each kernel into a fresh snapshot store, then a
//! warm run of each from it. The convergence metrics live here.

use std::path::PathBuf;

use cobra_kernels::{npb, PrefetchPolicy};
use cobra_machine::MachineConfig;
use cobra_rt::Strategy;
use cobra_store::{Snapshot, Store, StoreKey};

use crate::probes;
use crate::scenario::{converge_tick, speedup_pct, Layers, PassOut, Scenario, SimPass};
use crate::sim::{pinned_accel, run_cell, Attach};
use crate::span::Tracer;

const QUANTUM: u64 = 500;
const THREADS: usize = 4;

/// The kernels of Figures 5–7 without `ft`, the largest: a fifth of the
/// pass's host time for a kernel whose tournament blacklists every
/// candidate and whose warm run deploys nothing. `mg` stays because OSR
/// matters most on it. A pass of ten cells takes about 2.4 s, so a run
/// repeats it five or six times (README.md, Steadiness).
const KERNELS: [npb::Benchmark; 5] = [
    npb::Benchmark::Bt,
    npb::Benchmark::Sp,
    npb::Benchmark::Lu,
    npb::Benchmark::Mg,
    npb::Benchmark::Cg,
];

pub struct AdaptFine {
    cfg: MachineConfig,
    seed: u64,
    /// Parent of the per-round snapshot stores.
    scratch: PathBuf,
    round: u32,
    /// Guest cycles of each kernel's unattached prefetch run: the base of
    /// `rt.adaptive_speedup_pct`. Exact, so measured once, outside timing.
    baseline: Option<Vec<u64>>,
    /// What the latest round left in its store, for the store probes.
    snapshots: Vec<Snapshot>,
}

impl AdaptFine {
    pub fn new(seed: u64, scratch: PathBuf) -> AdaptFine {
        AdaptFine {
            cfg: pinned_accel(MachineConfig::smp4()),
            seed,
            scratch,
            round: 0,
            baseline: None,
            snapshots: Vec::new(),
        }
    }

    fn build(&self, bench: npb::Benchmark) -> Box<dyn cobra_kernels::Workload> {
        npb::build(bench, &PrefetchPolicy::aggressive(), self.cfg.mem_bytes)
    }

    fn baseline(&mut self) -> Result<Vec<u64>, String> {
        if let Some(b) = &self.baseline {
            return Ok(b.clone());
        }
        let mut off = Tracer::new(false);
        let mut cycles = Vec::new();
        for bench in KERNELS {
            let (out, _) = run_cell(&mut off, &|| self.build(bench), &self.cfg, THREADS, None)?;
            cycles.push(out.cycles);
        }
        self.baseline = Some(cycles.clone());
        Ok(cycles)
    }
}

impl Scenario for AdaptFine {
    fn pass(&mut self, tr: &mut Tracer) -> Result<PassOut, String> {
        let baseline = if tr.enabled() {
            Some(self.baseline()?)
        } else {
            None
        };
        self.round += 1;
        let dir = self
            .scratch
            .join(format!("adapt_fine-{}-{}", std::process::id(), self.round));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let attach = Attach {
            strategy: Strategy::Adaptive,
            quantum: QUANTUM,
            candidates: true,
            store: Some(&dir),
        };

        let root = tr.enter("pass");
        let mut pass = SimPass::default();
        let n = KERNELS.len();
        for warm in [false, true] {
            for bench in KERNELS {
                let cell = run_cell(tr, &|| self.build(bench), &self.cfg, THREADS, Some(attach));
                let started_warm = pass
                    .push(cell)
                    .and_then(|o| o.report.as_ref())
                    .is_some_and(|r| r.warm_started);
                if pass.error.is_none() && started_warm != warm {
                    pass.failed += 1;
                    pass.error = Some(format!(
                        "{}: warm_started = {started_warm} on the {} run",
                        bench.name(),
                        if warm { "warm" } else { "cold" }
                    ));
                }
            }
        }
        tr.exit(root);
        if tr.enabled() {
            let store = Store::new(&dir);
            self.snapshots = KERNELS
                .iter()
                .filter_map(|&b| {
                    let key = StoreKey::for_run(self.build(b).image(), &self.cfg);
                    store.load(&key).snapshot
                })
                .collect();
        }
        let _ = std::fs::remove_dir_all(&dir);

        let mut extra = Layers::new();
        if pass.outs.len() == 2 * n {
            let (cold, warm) = pass.outs.split_at(n);
            let converge = |runs: &[crate::sim::SimOut]| -> f64 {
                runs.iter()
                    .filter_map(|o| o.report.as_ref())
                    .map(converge_tick)
                    .sum::<u64>() as f64
            };
            extra.push(("rt.converge_ticks", converge(cold)));
            extra.push(("rt.converge_ticks_warm", converge(warm)));
            if let Some(base) = &baseline {
                let warm_cycles: Vec<u64> = warm.iter().map(|o| o.cycles).collect();
                extra.push(("rt.adaptive_speedup_pct", speedup_pct(base, &warm_cycles)));
            }
        }
        let mut out = pass.finish(tr, root);
        out.layers.extend(extra);
        Ok(out)
    }

    fn probes(&mut self, tr: &mut Tracer) -> Result<Layers, String> {
        let mut l = probes::memsys(&self.cfg, self.seed, tr);
        let cg = self.build(npb::Benchmark::Cg);
        l.extend(probes::isa(cg.image()));
        l.extend(probes::pipeline(&*cg, &self.cfg)?);
        l.extend(probes::store(&self.snapshots, &self.scratch, self.seed)?);
        Ok(l)
    }
}
