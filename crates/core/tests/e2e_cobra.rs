//! End-to-end tests: COBRA attached to real workloads on the simulated
//! 4-way SMP — the full §5 pipeline (sampling → monitors →
//! optimization stage → binary patching) with verified numerics.

use cobra_kernels::workload::{execute, execute_plain, Workload};
use cobra_kernels::{npb, Daxpy, DaxpyParams, PrefetchPolicy};
use cobra_machine::MachineConfig;
use cobra_omp::{OmpRuntime, Team};
use cobra_rt::{Cobra, CobraConfig, OptKind, Strategy, TelemetrySink};

fn cobra_config(strategy: Strategy) -> CobraConfig {
    let mut cfg = CobraConfig::default();
    cfg.optimizer.strategy = strategy;
    cfg
}

/// Run a workload under COBRA; returns (cycles, report). Panics if the
/// workload's numerical verification fails — the paper's premise is that
/// prefetch rewriting never changes semantics.
fn run_with_cobra(
    wl: &dyn Workload,
    machine_cfg: &MachineConfig,
    team: Team,
    cobra_cfg: CobraConfig,
) -> (u64, cobra_rt::CobraReport) {
    let rt = OmpRuntime {
        quantum: 20_000,
        ..OmpRuntime::default()
    };
    let mut machine = cobra_machine::Machine::new(machine_cfg.clone(), wl.image().clone());
    wl.init(&mut machine.shared.mem);
    let mut cobra = Cobra::builder().config(cobra_cfg).attach(&mut machine);
    let run = wl.run(&mut machine, team, &rt, &mut cobra);
    let report = cobra.detach(&mut machine);
    if let Err(e) = wl.verify(&machine.shared.mem) {
        panic!("verification failed under COBRA: {e}");
    }
    (run.cycles, report)
}

#[test]
fn cobra_speeds_up_daxpy_small_working_set() {
    // The §2 scenario: 128 KB working set, 4 threads, prefetch-compiled
    // binary. COBRA should deploy noprefetch and beat the baseline.
    let cfg = MachineConfig::smp4();
    let team = Team::new(4);
    let params = DaxpyParams::new(128 * 1024, 48);

    let baseline = Daxpy::build(params, &PrefetchPolicy::aggressive(), cfg.mem_bytes);
    let (_m, base_run) = execute_plain(&baseline, &cfg, team);

    let wl = Daxpy::build(params, &PrefetchPolicy::aggressive(), cfg.mem_bytes);
    let (cobra_cycles, report) = run_with_cobra(&wl, &cfg, team, cobra_config(Strategy::Adaptive));

    assert!(
        !report.applied.is_empty(),
        "COBRA must deploy: {}",
        report.summary()
    );
    assert!(
        report.applied.iter().any(|p| p.kind == OptKind::NoPrefetch),
        "small working set should choose noprefetch: {}",
        report.summary()
    );
    assert!(
        cobra_cycles < base_run.cycles,
        "COBRA {} vs baseline {} ({})",
        cobra_cycles,
        base_run.cycles,
        report.summary()
    );
}

#[test]
fn cobra_leaves_large_working_set_daxpy_mostly_alone() {
    // 2 MB working set, one thread: prefetching is pure win; COBRA must not
    // destroy it (either no deployment, or any regressing deployment gets
    // reverted and the end-to-end cost stays bounded).
    let cfg = MachineConfig::smp4();
    let team = Team::new(1);
    let params = DaxpyParams::new(2 * 1024 * 1024, 4);

    let baseline = Daxpy::build(params, &PrefetchPolicy::aggressive(), cfg.mem_bytes);
    let (_m, base_run) = execute_plain(&baseline, &cfg, team);

    let wl = Daxpy::build(params, &PrefetchPolicy::aggressive(), cfg.mem_bytes);
    let (cobra_cycles, report) = run_with_cobra(&wl, &cfg, team, cobra_config(Strategy::Adaptive));

    assert!(
        (cobra_cycles as f64) < (base_run.cycles as f64) * 1.10,
        "COBRA overhead/misdecision too costly at 2M/1t: {} vs {} ({})",
        cobra_cycles,
        base_run.cycles,
        report.summary()
    );
}

/// Every deployment is a trace-cache version: each applied plan appended
/// its clone past the main text, and the numerics hold.
#[test]
fn cobra_deploys_every_rewrite_as_a_trace_on_daxpy() {
    let cfg = MachineConfig::smp4();
    let team = Team::new(4);
    let params = DaxpyParams::new(128 * 1024, 40);
    let wl = Daxpy::build(params, &PrefetchPolicy::aggressive(), cfg.mem_bytes);
    let main_len = wl.image().main_len();
    let (_cycles, report) = run_with_cobra(&wl, &cfg, team, cobra_config(Strategy::NoPrefetch));
    assert!(!report.applied.is_empty(), "{}", report.summary());
    for p in &report.applied {
        let entry = p.trace_entry.expect("every deployment appends a trace");
        assert!(entry >= main_len, "trace at {entry} inside the main text");
    }
}

#[test]
fn cobra_improves_npb_bt_on_smp() {
    let cfg = MachineConfig::smp4();
    let team = Team::new(4);

    let baseline = npb::build(
        npb::Benchmark::Bt,
        &PrefetchPolicy::aggressive(),
        cfg.mem_bytes,
    );
    let (_m, base_run) = execute_plain(&*baseline, &cfg, team);

    let wl = npb::build(
        npb::Benchmark::Bt,
        &PrefetchPolicy::aggressive(),
        cfg.mem_bytes,
    );
    let (cobra_cycles, report) =
        run_with_cobra(&*wl, &cfg, team, cobra_config(Strategy::NoPrefetch));

    assert!(
        !report.applied.is_empty(),
        "COBRA found nothing in BT: {}",
        report.summary()
    );
    // Net of monitoring overhead, COBRA should not lose and usually wins.
    assert!(
        (cobra_cycles as f64) < (base_run.cycles as f64) * 1.02,
        "COBRA BT {} vs baseline {} ({})",
        cobra_cycles,
        base_run.cycles,
        report.summary()
    );
}

#[test]
fn cobra_runs_one_monitor_per_working_thread() {
    let cfg = MachineConfig::smp4();
    let team = Team::new(3);
    let wl = Daxpy::build(
        DaxpyParams::new(64 * 1024, 6),
        &PrefetchPolicy::aggressive(),
        cfg.mem_bytes,
    );
    let (_cycles, report) = run_with_cobra(&wl, &cfg, team, cobra_config(Strategy::Adaptive));
    assert_eq!(report.monitors_spawned, 3, "one monitor per working thread");
    assert_eq!(report.forks, 6, "one fork per outer repetition");
    assert!(report.samples_forwarded > 0);
    assert!(report.samples_merged > 0);
}

#[test]
fn execute_helper_works_with_cobra_hook() {
    // The workload::execute path with a Cobra hook and verification inside.
    let cfg = MachineConfig::smp4();
    let wl = Daxpy::build(
        DaxpyParams::new(64 * 1024, 4),
        &PrefetchPolicy::aggressive(),
        cfg.mem_bytes,
    );
    let mut machine = cobra_machine::Machine::new(cfg.clone(), wl.image().clone());
    let mut cobra = Cobra::builder().attach(&mut machine);
    // (Use the library execute() on a fresh machine to keep the comparison
    // honest: here we only check the plumbing doesn't panic.)
    drop(machine);
    let mut machine = cobra_machine::Machine::new(cfg.clone(), wl.image().clone());
    wl.init(&mut machine.shared.mem);
    let rt = OmpRuntime::default();
    let _ = execute(&wl, &cfg, Team::new(2), &rt, &mut cobra);
    let _ = cobra.detach(&mut machine);
}

/// The whole host-acceleration group (block dispatch, stall skip, memory
/// fast path) must be invisible to the full COBRA pipeline: a fast run and
/// a reference run land on the same cycles and the same report, field for
/// field (serialized comparison — `CobraReport` has no `PartialEq`).
#[test]
fn host_accel_is_invisible_to_the_cobra_pipeline() {
    let run = |accel: cobra_machine::HostAccel| {
        let cfg = MachineConfig::smp4().with_host_accel(accel);
        let wl = Daxpy::build(
            DaxpyParams::new(128 * 1024, 24),
            &PrefetchPolicy::aggressive(),
            cfg.mem_bytes,
        );
        let mut m = cobra_machine::Machine::new(cfg, wl.image().clone());
        wl.init(&mut m.shared.mem);
        let mut cobra = Cobra::builder().attach(&mut m);
        let rt = OmpRuntime {
            quantum: 20_000,
            ..OmpRuntime::default()
        };
        let r = wl.run(&mut m, Team::new(4), &rt, &mut cobra);
        let report = cobra.detach(&mut m);
        (
            r.cycles,
            serde_json::to_string(&report).expect("serializes"),
        )
    };
    let (fast_cycles, fast_report) = run(cobra_machine::HostAccel::fast());
    let (ref_cycles, ref_report) = run(cobra_machine::HostAccel::reference());
    assert_eq!(fast_cycles, ref_cycles, "same simulated cycles");
    assert_eq!(fast_report, ref_report, "same report, field for field");
}

/// Telemetry is charged to the simulated machine via `overhead_per_sample`,
/// but its cost must stay negligible: a telemetry-enabled DAXPY run stays
/// within 5% of the telemetry-disabled run in simulated cycles, whether the
/// optimizer picks per loop or always deploys `noprefetch`.
#[test]
fn telemetry_overhead_within_five_percent_on_daxpy() {
    let cfg = MachineConfig::smp4();
    let run = |strategy: Strategy, sink: Option<TelemetrySink>| {
        let wl = Daxpy::build(
            DaxpyParams::new(128 * 1024, 24),
            &PrefetchPolicy::aggressive(),
            cfg.mem_bytes,
        );
        let mut m = cobra_machine::Machine::new(cfg.clone(), wl.image().clone());
        wl.init(&mut m.shared.mem);
        let mut builder = Cobra::builder().strategy(strategy);
        if let Some(s) = sink {
            builder = builder.telemetry(s);
        }
        let mut cobra = builder.attach(&mut m);
        let rt = OmpRuntime {
            quantum: 20_000,
            ..OmpRuntime::default()
        };
        let r = wl.run(&mut m, Team::new(4), &rt, &mut cobra);
        (r.cycles, cobra.detach(&mut m))
    };
    for strategy in [Strategy::Adaptive, Strategy::NoPrefetch] {
        let (plain_cycles, plain_report) = run(strategy, None);
        assert_eq!(plain_report.telemetry_records, 0, "no sink, no records");

        let (sink, log) = TelemetrySink::memory();
        let (telem_cycles, telem_report) = run(strategy, Some(sink));
        assert!(
            telem_report.telemetry_records > 0,
            "sink must capture the pipeline"
        );
        assert_eq!(
            telem_report.telemetry_records as usize,
            log.lock().unwrap().len()
        );
        let ratio = telem_cycles as f64 / plain_cycles as f64;
        assert!(
            ratio <= 1.05,
            "{strategy:?}: telemetry must stay within 5% of disabled: \
             {plain_cycles} vs {telem_cycles} ({ratio:.4}x)"
        );
    }
}

#[test]
fn continuous_re_adaptation_reverts_on_working_set_change() {
    // The scenario COBRA is named for: a 128 KB-slice phase (noprefetch
    // wins) followed by a full-2 MB phase (prefetch is essential). COBRA
    // must deploy during phase 1 and revert after the working set changes.
    use cobra_omp::QuantumHook;
    let cfg = MachineConfig::smp4();
    let wl = Daxpy::build(
        DaxpyParams::new(2 * 1024 * 1024, 1),
        &PrefetchPolicy::aggressive(),
        cfg.mem_bytes,
    );
    let mut m = cobra_machine::Machine::new(cfg.clone(), wl.image().clone());
    wl.init(&mut m.shared.mem);
    let mut cobra = Cobra::builder()
        .strategy(Strategy::NoPrefetch)
        .attach(&mut m);
    let rt = OmpRuntime {
        quantum: 20_000,
        ..OmpRuntime::default()
    };
    let team = Team::new(4);
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
    assert!(
        report.applied.iter().any(|p| p.kind == OptKind::NoPrefetch),
        "phase 1 must trigger a noprefetch deployment: {}",
        report.summary()
    );
    assert!(
        !report.reverted.is_empty(),
        "the working-set change must trigger a revert: {}",
        report.summary()
    );
    assert!(
        report.phase_changes >= 1,
        "phase detector must fire: {}",
        report.summary()
    );
}
