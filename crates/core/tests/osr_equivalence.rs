//! On-stack replacement equivalence suite.
//!
//! The OSR contract: migrating threads mid-loop at their next back edge
//! (forward into a freshly deployed trace clone, or backward out of a
//! reverted one) must be architecturally invisible — the run lands on the
//! same final data memory, and the workload's numerical verification
//! passes, exactly as with entry-only transfer (`.osr(false)`) or no COBRA
//! at all. Only *when* threads run which version may change; *what* they
//! compute may not.
//!
//! Randomization covers the paper-relevant axes: migration timing (quantum
//! length moves the deployment tick relative to loop progress), both
//! reference machines (smp4 / altix8), and thread counts. A dedicated scenario reverts while threads are deep inside the
//! clone, exercising the reverse map in flight.
//!
//! With `osr_map_mutation.rs` this is the OSR gate; both also run
//! overflow-checked (`scripts/ci.sh overflow-checks`). What the mechanism
//! costs is the last line of the `floors` job.

use cobra_kernels::workload::Workload;
use cobra_kernels::{Daxpy, DaxpyParams, PrefetchPolicy};
use cobra_machine::{DataMem, MachineConfig};
use cobra_omp::{OmpRuntime, QuantumHook, Team};
use cobra_rt::{Cobra, CobraReport, Strategy, TelemetrySink};
use proptest::prelude::*;

/// FNV-1a over every aligned word of data memory: the "byte-identical
/// results" check, covering workload arrays and everything else.
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

struct RunOutcome {
    fingerprint: u64,
    report: CobraReport,
    osr_migrate_events: usize,
    osr_revert_events: usize,
}

/// One small-working-set DAXPY run under COBRA (noprefetch deploys) with
/// OSR on or off; the workload's numerics are verified inside.
fn run_daxpy(
    osr: bool,
    mcfg: &MachineConfig,
    threads: usize,
    quantum: u64,
    reps: usize,
) -> RunOutcome {
    let wl = Daxpy::build(
        DaxpyParams::new(96 * 1024, reps),
        &PrefetchPolicy::aggressive(),
        mcfg.mem_bytes,
    );
    let mut m = cobra_machine::Machine::new(mcfg.clone(), wl.image().clone());
    wl.init(&mut m.shared.mem);
    let (sink, log) = TelemetrySink::memory();
    let mut cobra = Cobra::builder()
        .strategy(Strategy::NoPrefetch)
        .osr(osr)
        .telemetry(sink)
        .attach(&mut m);
    let rt = OmpRuntime {
        quantum,
        ..OmpRuntime::default()
    };
    wl.run(&mut m, Team::new(threads), &rt, &mut cobra);
    let report = cobra.detach(&mut m);
    if let Err(e) = wl.verify(&m.shared.mem) {
        panic!("verification failed (osr={osr}, q={quantum}): {e}");
    }
    let log = log.lock().unwrap();
    RunOutcome {
        fingerprint: mem_fingerprint(&m.shared.mem),
        report,
        osr_migrate_events: log.count("osr_migrate"),
        osr_revert_events: log.count("osr_revert"),
    }
}

/// The revert-in-flight scenario: a long small-slice phase deploys
/// noprefetch, then full-array passes change the working set until the CPI
/// regression reverts — while every thread is deep inside the trace clone.
fn run_two_phase(osr: bool, quantum: u64, threads: usize) -> RunOutcome {
    let mcfg = MachineConfig::smp4();
    let wl = Daxpy::build(
        DaxpyParams::new(2 * 1024 * 1024, 1),
        &PrefetchPolicy::aggressive(),
        mcfg.mem_bytes,
    );
    let mut m = cobra_machine::Machine::new(mcfg.clone(), wl.image().clone());
    wl.init(&mut m.shared.mem);
    let (sink, log) = TelemetrySink::memory();
    let mut cobra = Cobra::builder()
        .strategy(Strategy::NoPrefetch)
        .osr(osr)
        .telemetry(sink)
        .attach(&mut m);
    let rt = OmpRuntime {
        quantum,
        ..OmpRuntime::default()
    };
    let team = Team::new(threads);
    let entry = m.shared.code.symbol("daxpy_body").unwrap();
    let args = [
        wl.x_addr() as i64,
        wl.y_addr() as i64,
        wl.params().a.to_bits() as i64,
    ];
    let hook: &mut dyn QuantumHook = &mut cobra;
    for _ in 0..60 {
        rt.parallel_for(&mut m, team, entry, 0, 8 * 1024, &args, hook);
    }
    for _ in 0..8 {
        rt.parallel_for(&mut m, team, entry, 0, wl.params().n() as i64, &args, hook);
    }
    let report = cobra.detach(&mut m);
    let log = log.lock().unwrap();
    RunOutcome {
        fingerprint: mem_fingerprint(&m.shared.mem),
        report,
        osr_migrate_events: log.count("osr_migrate"),
        osr_revert_events: log.count("osr_revert"),
    }
}

/// Deterministic anchor: trace deployment on smp4 with OSR on vs off lands
/// on identical memory; every trace deployment gets a convergence watch
/// (and so an `osr_migrate` record) under both settings, and no verified
/// map is rejected.
#[test]
fn mid_loop_migration_matches_entry_only_deployment() {
    let mcfg = MachineConfig::smp4();
    let with = run_daxpy(true, &mcfg, 4, 20_000, 40);
    let without = run_daxpy(false, &mcfg, 4, 20_000, 40);
    assert!(
        !with.report.applied.is_empty(),
        "scenario must deploy: {}",
        with.report.summary()
    );
    assert_eq!(
        with.fingerprint, without.fingerprint,
        "final data memory must be identical with OSR on and off"
    );
    assert_eq!(with.report.osr_rejects, 0, "{}", with.report.summary());
    let trace_deploys = with
        .report
        .applied
        .iter()
        .filter(|p| p.trace_entry.is_some())
        .count();
    assert_eq!(
        with.osr_migrate_events + with.osr_revert_events,
        trace_deploys + with.report.reverted.len(),
        "every trace transfer is watched to convergence"
    );
    assert!(
        without.report.osr_migrations == 0 && without.report.osr_reverse_migrations == 0,
        "OSR off must never redirect: {}",
        without.report.summary()
    );
}

/// Reverting while threads are mid-clone: the reverse map drains them at
/// the next back edge (migrations counted), and the final memory is
/// identical to the entry-only run that waits out natural completion.
#[test]
fn revert_in_flight_drains_clone_through_reverse_map() {
    let with = run_two_phase(true, 20_000, 4);
    let without = run_two_phase(false, 20_000, 4);
    assert!(
        !with.report.reverted.is_empty(),
        "scenario must revert: {}",
        with.report.summary()
    );
    assert_eq!(with.fingerprint, without.fingerprint);
    assert!(
        with.report.osr_reverse_migrations > 0,
        "threads deep in the clone must migrate out through the reverse \
         map: {}",
        with.report.summary()
    );
    assert!(with.osr_revert_events > 0);
    // The whole point: redirected drains converge no later than waiting
    // for natural loop completion.
    assert!(
        with.report.ticks_to_all_optimized <= without.report.ticks_to_all_optimized,
        "OSR must not slow convergence: {} vs {} ticks",
        with.report.ticks_to_all_optimized,
        without.report.ticks_to_all_optimized
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random migration timing × machine × thread count: OSR on and off
    /// always land on identical final memory.
    #[test]
    fn osr_is_architecturally_invisible(
        quantum in 6_000u64..36_000,
        altix in any::<bool>(),
        threads in 2usize..=4,
    ) {
        let mcfg = if altix { MachineConfig::altix8() } else { MachineConfig::smp4() };
        let with = run_daxpy(true, &mcfg, threads, quantum, 16);
        let without = run_daxpy(false, &mcfg, threads, quantum, 16);
        prop_assert_eq!(
            with.fingerprint, without.fingerprint,
            "memory diverged: q={} threads={} osr-on [{}] vs osr-off [{}]",
            quantum, threads, with.report.summary(), without.report.summary()
        );
        prop_assert_eq!(with.report.osr_rejects, 0);
    }

    /// Random revert-in-flight timing: the reverse map never changes the
    /// answer.
    #[test]
    fn revert_in_flight_is_architecturally_invisible(
        quantum in 10_000u64..30_000,
        threads in 2usize..=4,
    ) {
        let with = run_two_phase(true, quantum, threads);
        let without = run_two_phase(false, quantum, threads);
        prop_assert_eq!(
            with.fingerprint, without.fingerprint,
            "memory diverged: q={} threads={} [{}] vs [{}]",
            quantum, threads, with.report.summary(), without.report.summary()
        );
    }
}
