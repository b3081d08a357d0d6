//! One verified guest run, split the way every simulator workload reports
//! it: set-up (kernel build, `Machine::new`, data init), the timed section
//! (attach, `Workload::run`, detach), then the checks (host-mirror verify,
//! final-memory fingerprint), which are not timed.
//!
//! This mirrors `cobra_harness::npbsuite::run_arm` call for call (a
//! self-test holds the two equal on a cell) but returns a verification
//! failure as an error to count, not a panic, and records a span around
//! each call into a layer.

use std::path::Path;
use std::time::{Duration, Instant};

use cobra_kernels::Workload;
use cobra_machine::{BlockStats, CpuStats, DataMem, Event, HostAccel, Machine, MachineConfig};
use cobra_omp::{NullHook, OmpRuntime, QuantumHook, Team};
use cobra_rt::{Cobra, CobraReport, Strategy};

use crate::calib::Inline;
use crate::span::Tracer;

/// `MachineConfig::smp4()` / `altix8()` read host-acceleration overrides
/// from the environment; the benchmark always measures the default engine.
pub fn pinned_accel(cfg: MachineConfig) -> MachineConfig {
    cfg.with_host_accel(HostAccel::fast())
}

/// How COBRA is attached to a run.
#[derive(Debug, Clone, Copy)]
pub struct Attach<'a> {
    pub strategy: Strategy,
    /// Simulation quantum between hook calls, in guest cycles.
    pub quantum: u64,
    /// Per-loop candidate tournaments instead of the one-shot classifier.
    pub candidates: bool,
    /// Snapshot directory: warm-start from it at attach, save at detach.
    pub store: Option<&'a Path>,
}

/// Everything one run produced that must repeat exactly.
#[derive(Debug, Clone)]
pub struct SimOut {
    /// Guest cycles from first fork to last join.
    pub cycles: u64,
    /// `Machine::total_stats()` at the end of the run.
    pub stats: CpuStats,
    pub blocks: BlockStats,
    /// Fingerprint of the final data memory; see [`mem_fingerprint`].
    pub mem_fp: u64,
    pub report: Option<CobraReport>,
    /// Host nanoseconds of each `on_quantum` call (traced attached runs).
    pub tick_ns: Vec<u32>,
}

/// Host time of one run's two measured sections, and how much the host
/// was slowing them down (`calib.rs`): 1 on a quiet host.
#[derive(Debug, Clone, Copy)]
pub struct CellTime {
    pub setup: Duration,
    pub run: Duration,
    pub slowdown: f64,
}

/// Passes every call through to the hook under test and samples the host
/// between quanta, so a long cell's slowdown is measured while it runs and
/// not only at its ends.
struct Beside<'a, H: QuantumHook> {
    inner: &'a mut H,
    inline: Inline<'a>,
}

impl<H: QuantumHook> QuantumHook for Beside<'_, H> {
    fn on_quantum(&mut self, machine: &mut Machine) {
        self.inner.on_quantum(machine);
        self.inline.poll();
    }

    fn on_fork(&mut self, machine: &mut Machine, team: Team) {
        self.inner.on_fork(machine, team);
    }

    fn on_join(&mut self, machine: &mut Machine) {
        self.inner.on_join(machine);
    }
}

/// Times every call into an attached hook: the boundary between the `rt`
/// layer and the `machine` layer underneath `Workload::run`.
pub struct TimedHook<'a, H: QuantumHook> {
    inner: &'a mut H,
    /// Total across `on_quantum`, `on_fork` and `on_join`.
    pub total: Duration,
    pub calls: u64,
    pub tick_ns: Vec<u32>,
}

impl<'a, H: QuantumHook> TimedHook<'a, H> {
    pub fn new(inner: &'a mut H) -> Self {
        TimedHook {
            inner,
            total: Duration::ZERO,
            calls: 0,
            tick_ns: Vec::new(),
        }
    }

    fn timed(&mut self, f: impl FnOnce(&mut H)) -> Duration {
        let t = Instant::now();
        f(self.inner);
        let d = t.elapsed();
        self.total += d;
        self.calls += 1;
        d
    }
}

impl<H: QuantumHook> QuantumHook for TimedHook<'_, H> {
    fn on_quantum(&mut self, machine: &mut Machine) {
        let d = self.timed(|h| h.on_quantum(machine));
        self.tick_ns.push(d.as_nanos().min(u32::MAX as u128) as u32);
    }

    fn on_fork(&mut self, machine: &mut Machine, team: Team) {
        self.timed(|h| h.on_fork(machine, team));
    }

    fn on_join(&mut self, machine: &mut Machine) {
        self.timed(|h| h.on_join(machine));
    }
}

/// Build, run and check one workload. `Err` is a failed host-mirror
/// verification: the run completed but its numerics are wrong.
pub fn run_cell(
    tr: &mut Tracer,
    build: &dyn Fn() -> Box<dyn Workload>,
    cfg: &MachineConfig,
    threads: usize,
    attach: Option<Attach<'_>>,
) -> Result<(SimOut, CellTime), String> {
    let team = Team::new(threads);
    let mark = tr.host.mark();

    let t_setup = Instant::now();
    let s = tr.enter("kernels.build");
    let wl = build();
    tr.exit(s);
    let s = tr.enter("machine.new");
    let mut m = Machine::new(cfg.clone(), wl.image().clone());
    tr.exit(s);
    let s = tr.enter("kernels.init");
    wl.init(&mut m.shared.mem);
    tr.exit(s);
    let setup = t_setup.elapsed();

    let t_run = Instant::now();
    let mut tick_ns = Vec::new();
    // Host sampling inside the timed section, to be taken out of it. A
    // traced run samples at the cell's ends only: its spans stay what the
    // layers cost.
    let mut sampling = Duration::ZERO;
    let (cycles, report) = match attach {
        None => {
            let s = tr.enter("machine.run");
            let rt = OmpRuntime::default();
            let run = if tr.enabled() {
                wl.run(&mut m, team, &rt, &mut NullHook)
            } else {
                let mut hook = Beside {
                    inner: &mut NullHook,
                    inline: Inline::new(&mut tr.host),
                };
                let run = wl.run(&mut m, team, &rt, &mut hook);
                sampling = hook.inline.spent;
                run
            };
            tr.exit(s);
            (run.cycles, None)
        }
        Some(a) => {
            let rt = OmpRuntime {
                quantum: a.quantum,
                ..OmpRuntime::default()
            };
            let s = tr.enter("rt.attach");
            let mut builder = Cobra::builder()
                .strategy(a.strategy)
                .candidates(a.candidates)
                .osr(true);
            if let Some(dir) = a.store {
                builder = builder.store(dir);
            }
            let mut cobra = builder.attach(&mut m);
            tr.exit(s);
            let s = tr.enter("machine.run");
            let run = if tr.enabled() {
                let mut hook = TimedHook::new(&mut cobra);
                let run = wl.run(&mut m, team, &rt, &mut hook);
                tr.aggregate("rt.hook", hook.total.as_nanos() as u64, hook.calls);
                tr.add_clock_reads(2 * hook.calls);
                tick_ns = hook.tick_ns;
                run
            } else {
                let mut hook = Beside {
                    inner: &mut cobra,
                    inline: Inline::new(&mut tr.host),
                };
                let run = wl.run(&mut m, team, &rt, &mut hook);
                sampling = hook.inline.spent;
                run
            };
            tr.exit(s);
            let s = tr.enter("rt.detach");
            let report = cobra.detach(&mut m);
            tr.exit(s);
            (run.cycles, Some(report))
        }
    };
    let run = t_run.elapsed() - sampling;
    let slowdown = tr.host.slowdown_since(mark);

    let s = tr.enter("check.verify");
    let verified = wl.verify(&m.shared.mem);
    let mem_fp = mem_fingerprint(&m.shared.mem);
    tr.exit(s);
    verified.map_err(|e| format!("{} failed verification: {e}", wl.name()))?;
    Ok((
        SimOut {
            cycles,
            stats: m.total_stats(),
            blocks: m.block_stats(),
            mem_fp,
            report,
            tick_ns,
        },
        CellTime {
            setup,
            run,
            slowdown,
        },
    ))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over 64-bit words: the fold behind every digest here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(FNV_PRIME);
    }
}

/// Fingerprint of the guest's final data memory, word by word. Zero words
/// (most of the 64 MB) still advance the hash, so position matters.
pub fn mem_fingerprint(mem: &DataMem) -> u64 {
    let mut h = Fnv::default();
    for addr in (0..(mem.len() & !7) as u64).step_by(8) {
        h.word(mem.read_u64(addr));
    }
    h.0
}

/// Fold one run into a workload's `sim_digest`: guest cycles, retired
/// instructions, L3 misses, bus transactions and the final-memory
/// fingerprint. A change meant only to speed up the simulator must leave
/// the digest as it was.
pub fn digest_run(h: &mut Fnv, out: &SimOut) {
    h.word(out.cycles);
    h.word(out.stats.get(Event::InstRetired));
    h.word(out.stats.get(Event::L3Miss));
    h.word(out.stats.get(Event::BusMemory));
    h.word(out.mem_fp);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_harness::npbsuite::{self, Arm};
    use cobra_kernels::{npb, PrefetchPolicy};

    fn cg() -> Box<dyn Workload> {
        let cfg = MachineConfig::smp4();
        npb::build(
            npb::Benchmark::Cg,
            &PrefetchPolicy::aggressive(),
            cfg.mem_bytes,
        )
    }

    fn adaptive() -> Attach<'static> {
        Attach {
            strategy: Strategy::Adaptive,
            quantum: 20_000,
            candidates: false,
            store: None,
        }
    }

    #[test]
    fn run_cell_equals_the_harness_run_arm_on_one_cell() {
        let cfg = pinned_accel(MachineConfig::smp4());
        let theirs = npbsuite::run_arm(
            npb::Benchmark::Cg,
            Arm::Adaptive,
            &cfg,
            4,
            None,
            None,
            false,
        );
        let (ours, _) =
            run_cell(&mut Tracer::new(false), &cg, &cfg, 4, Some(adaptive())).expect("verifies");
        assert_eq!(ours.cycles, theirs.cycles);
        assert_eq!(ours.stats.get(Event::L3Miss), theirs.l3_misses);
        assert_eq!(ours.stats.get(Event::BusMemory), theirs.bus_transactions);
        let (a, b) = (ours.report.unwrap(), theirs.cobra.unwrap());
        assert_eq!(a.applied.len(), b.applied.len());
        assert_eq!(a.ticks, b.ticks);

        let baseline = npbsuite::run_arm(
            npb::Benchmark::Cg,
            Arm::Baseline,
            &cfg,
            4,
            None,
            None,
            false,
        );
        let (ours, _) = run_cell(&mut Tracer::new(false), &cg, &cfg, 4, None).expect("verifies");
        assert_eq!(ours.cycles, baseline.cycles);
        assert_eq!(ours.stats.get(Event::L3Miss), baseline.l3_misses);
    }

    #[test]
    fn digest_is_stable_across_runs_and_tracing() {
        let cfg = pinned_accel(MachineConfig::smp4());
        let digest = |traced: bool| {
            let mut tr = Tracer::new(traced);
            let (out, _) = run_cell(&mut tr, &cg, &cfg, 4, Some(adaptive())).expect("verifies");
            assert_eq!(out.tick_ns.is_empty(), !traced);
            let mut h = Fnv::default();
            digest_run(&mut h, &out);
            h.0
        };
        let first = digest(false);
        assert_eq!(first, digest(false));
        assert_eq!(
            first,
            digest(true),
            "timing the hook must not change the guest"
        );
    }

    #[test]
    fn fingerprint_depends_on_position() {
        let mut a = DataMem::new(64);
        let mut b = DataMem::new(64);
        a.write_u64(8, 7);
        b.write_u64(16, 7);
        assert_ne!(mem_fingerprint(&a), mem_fingerprint(&b));
        assert_eq!(mem_fingerprint(&a), mem_fingerprint(&a.clone()));
    }
}
