//! Regenerates the results_all.md time-to-optimized table: the phase-heavy
//! NPB runs (ft, mg) on smp4, adaptive arm with candidate tournaments
//! (each trial is a mid-run version transfer: deploy, measure, revert),
//! comparing OSR redirects on (the default) vs off (`.osr(false)`:
//! entry-only version transfer).
//!
//! For each benchmark both runs must land on identical final data memory
//! (the equivalence contract); the table then compares time-to-optimized —
//! per version transfer, how many monitor ticks threads kept executing a
//! stale version before every running thread was on the deployed (or
//! reverted-to) code. Worst transfer and the total across the run are both
//! reported; the per-transfer worst is the paper-relevant latency (how
//! long a phase change leaves slow code running), the total is what
//! `CobraReport::ticks_to_all_optimized` accumulates.
//!
//!     cargo run --release -p cobra-harness --example osr_convergence

use cobra_kernels::npb::{self, Benchmark};
use cobra_kernels::PrefetchPolicy;
use cobra_machine::{DataMem, Machine, MachineConfig};
use cobra_omp::{OmpRuntime, Team};
use cobra_rt::{Cobra, CobraReport, Strategy, TelemetryEvent, TelemetrySink};

/// Monitor quantum for the convergence runs. Finer than the 20k-cycle
/// default so "ticks on a stale version" resolves sub-pass phase changes —
/// at 20k cycles a whole ft pass fits in a couple of ticks and both
/// transfer modes round to the same count.
const QUANTUM: u64 = 500;

/// FNV-1a over every aligned word of data memory (same check as the
/// `osr_equivalence` suite).
fn mem_fingerprint(mem: &DataMem) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut a = 0u64;
    while (a as usize) + 8 <= mem.len() {
        h ^= mem.read_u64(a);
        h = h.wrapping_mul(0x100_0000_01b3);
        a += 8;
    }
    h
}

struct Outcome {
    report: CobraReport,
    /// Slowest single version transfer (ticks until every thread was on
    /// the new version), from the per-watch telemetry records.
    worst_transfer: u64,
    fingerprint: u64,
}

fn run(bench: Benchmark, osr: bool) -> Outcome {
    let mcfg = MachineConfig::smp4();
    let wl = npb::build(bench, &PrefetchPolicy::aggressive(), mcfg.mem_bytes);
    let mut m = Machine::new(mcfg.clone(), wl.image().clone());
    wl.init(&mut m.shared.mem);
    let (sink, log) = TelemetrySink::memory();
    let mut cobra = Cobra::builder()
        .strategy(Strategy::Adaptive)
        .candidates(true)
        .osr(osr)
        .telemetry(sink)
        .attach(&mut m);
    let rt = OmpRuntime { quantum: QUANTUM };
    wl.run(&mut m, Team::new(4), &rt, &mut cobra);
    let report = cobra.detach(&mut m);
    wl.verify(&m.shared.mem)
        .unwrap_or_else(|e| panic!("{} (osr={osr}) failed verification: {e}", bench.name()));
    let worst_transfer = log
        .lock()
        .unwrap()
        .records()
        .iter()
        .filter_map(|r| match r.event {
            TelemetryEvent::OsrMigrate {
                ticks_since_deploy, ..
            } => Some(ticks_since_deploy),
            TelemetryEvent::OsrRevert {
                ticks_since_revert, ..
            } => Some(ticks_since_revert),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    Outcome {
        report,
        worst_transfer,
        fingerprint: mem_fingerprint(&m.shared.mem),
    }
}

fn main() {
    println!(
        "| bench | transfer | worst transfer (ticks) | total stale ticks | migrations | reverse |"
    );
    println!(
        "|-------|----------|-----------------------:|------------------:|-----------:|--------:|"
    );
    for bench in [Benchmark::Ft, Benchmark::Mg] {
        let on = run(bench, true);
        let off = run(bench, false);
        assert_eq!(
            on.fingerprint,
            off.fingerprint,
            "{} final memory diverged between OSR and entry-only",
            bench.name()
        );
        for (label, o) in [("OSR (default)", &on), ("entry-only", &off)] {
            println!(
                "| {} | {} | {} | {} | {} | {} |",
                bench.name(),
                label,
                o.worst_transfer,
                o.report.ticks_to_all_optimized,
                o.report.osr_migrations,
                o.report.osr_reverse_migrations,
            );
        }
        let worst_ratio = off.worst_transfer as f64 / on.worst_transfer.max(1) as f64;
        let total_ratio = off.report.ticks_to_all_optimized as f64
            / on.report.ticks_to_all_optimized.max(1) as f64;
        println!(
            "\n{}: worst transfer {:.1}x faster, total {:.1}x, final memory identical ({:016x})\n",
            bench.name(),
            worst_ratio,
            total_ratio,
            on.fingerprint
        );
    }
}
