//! What the six workloads share: the shape of one pass's result, and the
//! arithmetic that turns a simulator pass's spans and exact outputs into
//! per-layer numbers.

use std::time::Duration;

use cobra_machine::Event;
use cobra_rt::CobraReport;

use crate::sim::{digest_run, CellTime, Fnv, SimOut};
use crate::span::{SpanId, Tracer};
use crate::stats::percentile;

/// Per-layer metric values, by name.
pub type Layers = Vec<(&'static str, f64)>;

/// One complete execution of a workload's list.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Host time of each cell of the list, in list order: its set-up, its
    /// timed section and the host's slowdown beside them. The same cell
    /// does the same work in every pass, which is what lets a run take each
    /// cell's median over its passes.
    pub cells: Vec<CellTime>,
    /// Retired guest instructions, or completed fleet requests.
    pub ops: u64,
    /// Operations checked: verified guest runs, or fleet requests.
    pub attempted: u64,
    pub failed: u64,
    /// `sim_digest` of the pass; 0 for the fleet workload.
    pub digest: u64,
    /// Per-layer numbers of this pass (traced runs; exact ones are filled
    /// in either way so the self-tests can read them).
    pub layers: Layers,
    /// First failed check, for the log.
    pub error: Option<String>,
}

pub trait Scenario {
    /// Run the list once, from scratch.
    fn pass(&mut self, tr: &mut Tracer) -> Result<PassOut, String>;

    /// Traced runs, after the passes: per-layer numbers that do not belong
    /// to one pass (direct-drive probes, percentiles pooled over passes).
    fn probes(&mut self, _tr: &mut Tracer) -> Result<Layers, String> {
        Ok(Layers::new())
    }
}

/// Accumulates the cells of one simulator pass.
#[derive(Default)]
pub struct SimPass {
    pub cells: Vec<CellTime>,
    pub outs: Vec<SimOut>,
    pub failed: u64,
    pub error: Option<String>,
}

impl SimPass {
    pub fn push(&mut self, cell: Result<(SimOut, CellTime), String>) -> Option<&SimOut> {
        match cell {
            Ok((out, t)) => {
                self.cells.push(t);
                self.outs.push(out);
                self.outs.last()
            }
            Err(e) => {
                self.failed += 1;
                self.error.get_or_insert(e);
                None
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.outs.len() as u64 + self.failed
    }

    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for out in &self.outs {
            digest_run(&mut h, out);
        }
        h.0
    }

    pub fn instructions(&self) -> u64 {
        self.sum(Event::InstRetired)
    }

    fn sum(&self, e: Event) -> u64 {
        self.outs.iter().map(|o| o.stats.get(e)).sum()
    }

    pub fn reports(&self) -> impl Iterator<Item = (&SimOut, &CobraReport)> {
        self.outs
            .iter()
            .filter_map(|o| o.report.as_ref().map(|r| (o, r)))
    }

    /// Close the pass: totals, digest, and the per-layer numbers every
    /// simulator workload derives the same way. `root` is the pass's span.
    pub fn finish(self, tr: &Tracer, root: SpanId) -> PassOut {
        let mut layers = self.exact_layers();
        if tr.enabled() {
            layers.extend(self.timed_layers(tr, root));
        }
        PassOut {
            ops: self.instructions(),
            attempted: self.attempted(),
            failed: self.failed,
            digest: self.digest(),
            layers,
            error: self.error,
            cells: self.cells,
        }
    }

    /// Simulated counts and report counters: exact, the same every pass.
    fn exact_layers(&self) -> Layers {
        let cycles: u64 = self.outs.iter().map(|o| o.cycles).sum();
        let core_cycles = self.sum(Event::CpuCycles);
        let mut horizon = 0u64;
        let mut stretches = 0u64;
        let mut fallback = 0u64;
        let mut mem_boundary = 0u64;
        let mut sampling = 0u64;
        let mut builds = 0u64;
        let mut invalidations = 0u64;
        for b in self.outs.iter().map(|o| &o.blocks) {
            horizon += b.horizon_cycles;
            stretches += b.horizon_stretches;
            fallback += b.fallback_cycles();
            mem_boundary += b.fallback_mem_boundary;
            sampling += b.fallback_sampling;
            builds += b.builds;
            invalidations += b.invalidations;
        }
        // Shares are of the cycles the block engine had more than one core
        // to schedule for: lockstep stretches plus per-cycle fallback. A
        // solo core's stretches are neither.
        let engine = horizon + fallback;
        let mut l: Layers = vec![
            ("machine.guest_cycles", cycles as f64),
            ("machine.inst_retired", self.instructions() as f64),
            ("machine.blocks.horizon_cycle_share", share(horizon, engine)),
            ("machine.blocks.mean_horizon", share(horizon, stretches)),
            (
                "machine.blocks.fallback_cycle_share",
                share(fallback, engine),
            ),
            (
                "machine.blocks.fallback_mem_boundary_share",
                share(mem_boundary, engine),
            ),
            (
                "machine.blocks.fallback_sampling_share",
                share(sampling, engine),
            ),
            ("machine.blocks.builds", builds as f64),
            ("machine.blocks.invalidations", invalidations as f64),
            ("machine.memsys.l2_miss", self.sum(Event::L2Miss) as f64),
            ("machine.memsys.l3_miss", self.sum(Event::L3Miss) as f64),
            (
                "machine.memsys.bus_memory",
                self.sum(Event::BusMemory) as f64,
            ),
            (
                "machine.memsys.bus_rd_hitm",
                self.sum(Event::BusRdHitm) as f64,
            ),
            (
                "machine.memsys.bus_upgrade",
                self.sum(Event::BusUpgrade) as f64,
            ),
            (
                "machine.memsys.lfetch_issued",
                self.sum(Event::LfetchIssued) as f64,
            ),
            (
                "machine.memsys.lfetch_dropped",
                self.sum(Event::LfetchDropped) as f64,
            ),
            (
                "machine.stall_cycle_share",
                share(self.sum(Event::StallCycles), core_cycles),
            ),
        ];
        if self.reports().next().is_some() {
            l.extend(report_layers(&self.reports().collect::<Vec<_>>()));
        }
        l
    }

    /// Host time per layer, from the pass's spans.
    fn timed_layers(&self, tr: &Tracer, root: SpanId) -> Layers {
        let totals = tr.totals_under(root);
        let get = |name: &str| {
            totals
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, t)| *t)
                .unwrap_or_default()
        };
        let ms = |ns: u64| ns as f64 / 1e6;
        let run = get("machine.run");
        let hook = get("rt.hook");
        let run_self_s = run.self_ns as f64 / 1e9;
        let cycles: u64 = self.outs.iter().map(|o| o.cycles).sum();
        let mut l: Layers = vec![
            ("kernels.build_ms", ms(get("kernels.build").total_ns)),
            ("machine.new_ms", ms(get("machine.new").total_ns)),
            ("kernels.init_ms", ms(get("kernels.init").total_ns)),
            ("machine.run_self_s", run_self_s),
            (
                "machine.host_ns_per_guest_cycle",
                share(run.self_ns, cycles),
            ),
            (
                "machine.host_ns_per_guest_inst",
                share(run.self_ns, self.instructions()),
            ),
            ("rt.hook_s", hook.total_ns as f64 / 1e9),
            (
                "rt.hook_share",
                share(hook.total_ns, run_time(&self.cells).as_nanos() as u64),
            ),
            ("rt.attach_ms", ms(get("rt.attach").total_ns)),
            ("rt.detach_ms", ms(get("rt.detach").total_ns)),
        ];
        let mut ticks: Vec<u64> = self
            .outs
            .iter()
            .flat_map(|o| o.tick_ns.iter().map(|&n| u64::from(n)))
            .collect();
        ticks.sort_unstable();
        l.push((
            "rt.hook_us_per_tick_p50",
            percentile(&ticks, 50.0) as f64 / 1e3,
        ));
        l.push((
            "rt.hook_us_per_tick_p99",
            percentile(&ticks, 99.0) as f64 / 1e3,
        ));
        l
    }
}

/// Timed sections of a list of cells as they were measured, summed.
pub fn run_time(cells: &[CellTime]) -> Duration {
    cells.iter().map(|c| c.run).sum()
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The tick at which the run's final active deployment set was first fully
/// applied: the tick of the last deployment that was never reverted (0 when
/// nothing stayed deployed).
pub fn converge_tick(r: &CobraReport) -> u64 {
    r.applied
        .iter()
        .filter(|a| !r.reverted.iter().any(|v| v.plan_id == a.plan_id))
        .map(|a| a.tick)
        .max()
        .unwrap_or(0)
}

/// Counters summed over the attached runs of a pass.
fn report_layers(runs: &[(&SimOut, &CobraReport)]) -> Layers {
    let sum = |f: &dyn Fn(&CobraReport) -> u64| runs.iter().map(|(_, r)| f(r)).sum::<u64>() as f64;
    let applied = sum(&|r| r.applied.len() as u64);
    let reverted = sum(&|r| r.reverted.len() as u64);
    let trialed = sum(&|r| r.candidates_trialed);
    let cycles: u64 = runs.iter().map(|(o, _)| o.cycles).sum();
    vec![
        ("rt.ticks", sum(&|r| r.ticks)),
        ("rt.samples_forwarded", sum(&|r| r.samples_forwarded)),
        ("rt.samples_merged", sum(&|r| r.samples_merged)),
        ("rt.applied", applied),
        ("rt.reverted", reverted),
        // Useful outcomes over attempts: deployments that stayed, over
        // every deployment and every candidate trial made to find them.
        (
            "rt.useful_share",
            if trialed + applied == 0.0 {
                0.0
            } else {
                (applied - reverted) / (trialed + applied)
            },
        ),
        ("rt.candidates_trialed", trialed),
        ("rt.tournaments_promoted", sum(&|r| r.tournaments_promoted)),
        ("rt.warm_hits", sum(&|r| r.warm_hits)),
        ("rt.phase_changes", sum(&|r| r.phase_changes)),
        ("rt.osr_migrations", sum(&|r| r.osr_migrations)),
        (
            "rt.osr_reverse_migrations",
            sum(&|r| r.osr_reverse_migrations),
        ),
        ("rt.verify_rejects", sum(&|r| r.verify_rejects)),
        ("rt.deploy_failures", sum(&|r| r.deploy_failures)),
        ("rt.stale_ticks", sum(&|r| r.ticks_to_all_optimized)),
        (
            "rt.overhead_cycle_pct",
            100.0 * share(sum(&|r| r.overhead_cycles) as u64, cycles),
        ),
    ]
}

/// Mean over paired runs of the guest-time speedup of `arm` over
/// `baseline`, in percent (Fig. 5's metric).
pub fn speedup_pct(baseline: &[u64], arm: &[u64]) -> f64 {
    assert_eq!(baseline.len(), arm.len());
    let sum: f64 = baseline
        .iter()
        .zip(arm)
        .map(|(&b, &a)| b as f64 / a as f64 - 1.0)
        .sum();
    100.0 * sum / baseline.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_rt::{AppliedPlan, OptKind, RevertedPlan};

    fn applied(plan_id: u64, tick: u64) -> AppliedPlan {
        AppliedPlan {
            plan_id,
            kind: OptKind::NoPrefetch,
            loop_head: 8 * plan_id as u32,
            description: String::new(),
            tick,
            words_patched: 1,
            trace_entry: None,
            candidate: None,
        }
    }

    #[test]
    fn converge_tick_is_the_last_surviving_deployment() {
        let mut r = CobraReport::default();
        assert_eq!(converge_tick(&r), 0);
        r.applied = vec![applied(1, 20), applied(2, 40), applied(3, 90)];
        r.reverted = vec![RevertedPlan {
            plan_id: 3,
            reason: String::new(),
            tick: 95,
        }];
        assert_eq!(converge_tick(&r), 40);
    }

    #[test]
    fn speedup_is_the_mean_of_per_bench_ratios() {
        assert!((speedup_pct(&[110, 100], &[100, 100]) - 5.0).abs() < 1e-9);
    }
}
