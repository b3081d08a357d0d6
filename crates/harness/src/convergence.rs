//! Time-to-optimized: on-stack replacement against entry-only version
//! transfer (`.osr(false)`), on the phase-heavy NPB kernels ft and mg on
//! smp4. The adaptive arm runs with candidate tournaments, so every trial
//! is a mid-run version transfer: deploy, measure, revert.
//!
//! Per transfer, the latency is the monitor ticks until every running
//! thread executes the new version. The table gives the worst single
//! transfer (how long a phase change leaves stale code running) and the
//! run's total, `CobraReport::ticks_to_all_optimized`. Both modes must
//! leave the same final data memory; a difference fails the measurement.

use cobra_kernels::npb::{self, Benchmark};
use cobra_kernels::PrefetchPolicy;
use cobra_machine::{DataMem, Machine, MachineConfig};
use cobra_omp::{OmpRuntime, Team};
use cobra_rt::{Cobra, CobraReport, Strategy, TelemetryEvent, TelemetrySink};

use crate::sweep::parallel_map;
use crate::table::Table;

/// Monitor quantum, finer than the 20k-cycle default so that ticks on a
/// stale version resolve sub-pass phase changes: at 20k cycles a whole ft
/// pass fits in a couple of ticks and both modes round to the same count.
const QUANTUM: u64 = 500;

struct Outcome {
    report: CobraReport,
    /// The slowest single transfer, from the per-watch telemetry records.
    worst_transfer: u64,
    /// FNV-1a over every aligned word of final data memory.
    fingerprint: u64,
}

fn fingerprint(mem: &DataMem) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for a in (0..mem.len() as u64 / 8).map(|w| 8 * w) {
        h = (h ^ mem.read_u64(a)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn run(bench: Benchmark, osr: bool) -> Result<Outcome, String> {
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
    wl.run(&mut m, Team::new(mcfg.num_cpus), &rt, &mut cobra);
    let report = cobra.detach(&mut m);
    wl.verify(&m.shared.mem)
        .map_err(|e| format!("{} (osr {osr}) failed verification: {e}", bench.name()))?;
    let log = log.lock().expect("the run that wrote it has returned");
    let worst_transfer = log.records().iter().filter_map(|r| match r.event {
        TelemetryEvent::OsrMigrate {
            ticks_since_deploy: ticks,
            ..
        }
        | TelemetryEvent::OsrRevert {
            ticks_since_revert: ticks,
            ..
        } => Some(ticks),
        _ => None,
    });
    Ok(Outcome {
        report,
        worst_transfer: worst_transfer.max().unwrap_or(0),
        fingerprint: fingerprint(&m.shared.mem),
    })
}

/// Run ft and mg with OSR and entry-only, and tabulate both.
pub(crate) fn measure(workers: usize) -> Result<Table, String> {
    const BENCHES: [Benchmark; 2] = [Benchmark::Ft, Benchmark::Mg];
    let jobs: Vec<(Benchmark, bool)> = (BENCHES.iter())
        .flat_map(|&bench| [(bench, true), (bench, false)])
        .collect();
    let outcomes = parallel_map(jobs, workers, |&(bench, osr)| run(bench, osr));
    let outcomes = outcomes.into_iter().collect::<Result<Vec<_>, _>>()?;
    let mut t = Table::new(
        "Time-to-optimized: OSR against entry-only transfer — 4 threads on smp4",
        &[
            "bench",
            "transfer",
            "worst transfer (ticks)",
            "total stale ticks",
            "migrations",
            "reverse",
        ],
    );
    for (bench, pair) in BENCHES.iter().zip(outcomes.chunks(2)) {
        let (on, off) = (&pair[0], &pair[1]);
        if on.fingerprint != off.fingerprint {
            return Err(format!(
                "{}: final memory differs between OSR and entry-only transfer",
                bench.name()
            ));
        }
        for (label, o) in [("OSR", on), ("entry-only", off)] {
            let r = &o.report;
            t.row(vec![
                bench.name().to_string(),
                label.to_string(),
                o.worst_transfer.to_string(),
                r.ticks_to_all_optimized.to_string(),
                r.osr_migrations.to_string(),
                r.osr_reverse_migrations.to_string(),
            ]);
        }
    }
    Ok(t)
}
