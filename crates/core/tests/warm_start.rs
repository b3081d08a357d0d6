//! Cross-run warm start through `cobra-store`: run A saves a snapshot at
//! detach, run B loads it, seeds the optimizer, and converges on the same
//! deployments strictly earlier. Mismatched binaries/machines and damaged
//! stores degrade to a cold start — counted, never fatal. The same round
//! trip through `cobra-repro profile save` / `profile inspect` is
//! `crates/harness/tests/profile_cli.rs`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use cobra_kernels::workload::Workload;
use cobra_kernels::{npb, Daxpy, DaxpyParams, PrefetchPolicy};
use cobra_machine::{HostAccel, MachineConfig};
use cobra_omp::{OmpRuntime, Team};
use cobra_rt::{Cobra, CobraReport, Strategy, TelemetryEvent, TelemetrySink};

fn tmp_store() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "cobra-warmstart-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    // Process ids come round again: a directory an earlier run left under
    // the same name must not hand this one its files.
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn workload() -> Daxpy {
    // The §2 scenario: 128 KB working set, prefetch-compiled — COBRA
    // deterministically deploys noprefetch on smp4 with 4 threads.
    Daxpy::build(
        DaxpyParams::new(128 * 1024, 48),
        &PrefetchPolicy::aggressive(),
        MachineConfig::smp4().mem_bytes,
    )
}

/// One full attached run against `store`; returns the report and the
/// telemetry log.
fn run(
    wl: &Daxpy,
    machine_cfg: &MachineConfig,
    store: &std::path::Path,
) -> (
    CobraReport,
    std::sync::Arc<std::sync::Mutex<cobra_rt::TelemetryLog>>,
) {
    let mut m = cobra_machine::Machine::new(machine_cfg.clone(), wl.image().clone());
    wl.init(&mut m.shared.mem);
    let (sink, log) = TelemetrySink::memory();
    let mut cobra = Cobra::builder()
        .strategy(Strategy::Adaptive)
        .telemetry(sink)
        .store(store)
        .attach(&mut m);
    let rt = OmpRuntime { quantum: 20_000 };
    let r = wl.run(&mut m, Team::new(4), &rt, &mut cobra);
    let report = cobra.detach(&mut m);
    wl.verify(&m.shared.mem).expect("verification under COBRA");
    assert!(r.cycles > 0);
    (report, log)
}

/// Final active deployment set as comparable (head, kind-name) pairs.
/// The `detail` of every store error a run telemetered, in order.
fn store_errors(log: &cobra_rt::TelemetryLog) -> Vec<&str> {
    log.records()
        .iter()
        .filter_map(|r| match &r.event {
            TelemetryEvent::StoreError { detail, .. } => Some(detail.as_str()),
            _ => None,
        })
        .collect()
}

fn active_set(report: &CobraReport) -> Vec<(u32, &'static str)> {
    let mut v: Vec<_> = report
        .applied
        .iter()
        .filter(|a| !report.reverted.iter().any(|r| r.plan_id == a.plan_id))
        .map(|a| (a.loop_head, a.kind.name()))
        .collect();
    v.sort();
    v.dedup();
    v
}

#[test]
fn warm_start_round_trip_converges_earlier_to_same_deployments() {
    let store = tmp_store();
    let wl = workload();
    let cfg = MachineConfig::smp4();

    let (cold, cold_log) = run(&wl, &cfg, &store);
    assert!(!cold.warm_started, "first run has nothing to warm from");
    assert_eq!(
        cold.store_errors, 0,
        "empty store dir is a clean cold start"
    );
    assert!(
        !cold.applied.is_empty(),
        "scenario must deploy: {}",
        cold.summary()
    );
    assert!(cold.store_saved_records > 0, "detach must persist the run");
    {
        let cold_log = cold_log.lock().unwrap();
        assert!(cold_log.count("store_save") >= 1);
        assert_eq!(cold_log.count("warm_start"), 0);
    }

    let (warm, warm_log) = run(&wl, &cfg, &store);
    assert!(warm.warm_started, "second run must find the snapshot");
    assert!(warm.warm_seeded_decisions > 0);
    assert_eq!(warm.store_skipped_records, 0, "pristine store");
    assert!(
        warm.warm_hits >= 1,
        "seed must be confirmed by the live profile"
    );
    assert_eq!(warm_log.lock().unwrap().count("warm_start"), 1);

    // Same final deployment set, strictly fewer learning quanta before the
    // first deployment.
    assert_eq!(
        active_set(&cold),
        active_set(&warm),
        "warm run must converge on the cold run's deployments\ncold: {}\nwarm: {}",
        cold.summary(),
        warm.summary()
    );
    let cold_first = cold.applied.iter().map(|a| a.tick).min().unwrap();
    let warm_first = warm.applied.iter().map(|a| a.tick).min().unwrap();
    assert!(
        warm_first < cold_first,
        "warm run must deploy strictly earlier: warm tick {warm_first} vs cold tick {cold_first}"
    );

    // The saved snapshot accumulated both runs.
    let key = cobra_store::StoreKey::for_run(wl.image(), &cfg);
    let lr = cobra_store::Store::new(&store).load(&key);
    assert_eq!(lr.snapshot.expect("snapshot after two runs").runs, 2);
}

/// Tournament winners persist across runs: the cold run trials candidates
/// and promotes a winner; the warm run resumes the stored winner directly
/// without re-running a single trial.
#[test]
fn warm_run_resumes_tournament_winner_without_retrialing() {
    let store = tmp_store();
    // A region is shorter than the quantum, so ticks follow repetitions:
    // twice `workload()`'s 48, so the whole tournament (five ticks a
    // candidate) fits well inside the run.
    let wl = Daxpy::build(
        DaxpyParams::new(128 * 1024, 96),
        &PrefetchPolicy::aggressive(),
        MachineConfig::smp4().mem_bytes,
    );
    let cfg = MachineConfig::smp4();
    let run_candidates = |store: &std::path::Path| -> CobraReport {
        let mut m = cobra_machine::Machine::new(cfg.clone(), wl.image().clone());
        wl.init(&mut m.shared.mem);
        let mut cobra = Cobra::builder()
            .strategy(Strategy::Adaptive)
            .candidates(true)
            .store(store)
            .attach(&mut m);
        let rt = OmpRuntime { quantum: 20_000 };
        wl.run(&mut m, Team::new(4), &rt, &mut cobra);
        let report = cobra.detach(&mut m);
        wl.verify(&m.shared.mem).expect("verification under COBRA");
        report
    };
    // Active (non-reverted) deployments that carry a candidate name.
    let winners = |r: &CobraReport| -> Vec<(u32, String)> {
        let mut v: Vec<_> = r
            .applied
            .iter()
            .filter(|a| !r.reverted.iter().any(|rv| rv.plan_id == a.plan_id))
            .filter_map(|a| a.candidate.clone().map(|c| (a.loop_head, c)))
            .collect();
        v.sort();
        v.dedup();
        v
    };

    let cold = run_candidates(&store);
    assert!(
        cold.candidates_trialed >= 3,
        "cold run must trial at least 3 candidates: {}",
        cold.summary()
    );
    assert!(
        cold.tournaments_promoted >= 1,
        "cold run must promote a winner: {}",
        cold.summary()
    );
    let cold_winners = winners(&cold);
    assert!(
        !cold_winners.is_empty(),
        "a promoted winner must stay active: {}",
        cold.summary()
    );

    let warm = run_candidates(&store);
    assert!(warm.warm_started, "second run must find the snapshot");
    assert_eq!(
        warm.candidates_trialed,
        0,
        "warm run must not re-trial: {}",
        warm.summary()
    );
    assert!(
        warm.warm_hits >= 1,
        "stored winner must be confirmed and resumed: {}",
        warm.summary()
    );
    assert_eq!(
        cold_winners,
        winners(&warm),
        "warm run resumes the same winner\ncold: {}\nwarm: {}",
        cold.summary(),
        warm.summary()
    );
}

/// An empty store is a cold start: a fixed arm of one Fig. 5 cell (`mg`
/// on smp4, four threads, the 20 000-cycle quantum) attached to an empty
/// store directory runs the same simulation as with no store at all —
/// guest cycles, final data memory, machine counters and report — and
/// differs only in the store counters. This is the premise on which one
/// run of a fixed arm may serve both a plain grid and a store-backed one.
#[test]
fn an_empty_store_leaves_a_fixed_arm_unchanged() {
    let cfg = MachineConfig::smp4();
    let wl = npb::build(
        npb::Benchmark::Mg,
        &PrefetchPolicy::aggressive(),
        cfg.mem_bytes,
    );
    // Everything the run leaves behind: cycles, a digest of data memory
    // (64-bit FNV-1a over its words), the machine's counters and the report.
    let run = |strategy: Strategy, store: Option<&std::path::Path>| {
        let mut m = cobra_machine::Machine::new(cfg.clone(), wl.image().clone());
        wl.init(&mut m.shared.mem);
        let mut builder = Cobra::builder().strategy(strategy);
        if let Some(dir) = store {
            builder = builder.store(dir);
        }
        let mut cobra = builder.attach(&mut m);
        let rt = OmpRuntime { quantum: 20_000 };
        let cycles = wl.run(&mut m, Team::new(4), &rt, &mut cobra).cycles;
        let report = cobra.detach(&mut m);
        wl.verify(&m.shared.mem).expect("verification under COBRA");
        let mut memory = 0xcbf2_9ce4_8422_2325_u64;
        for addr in (0..(m.shared.mem.len() & !7) as u64).step_by(8) {
            memory = (memory ^ m.shared.mem.read_u64(addr)).wrapping_mul(0x0100_0000_01b3);
        }
        (cycles, memory, m.total_stats(), report)
    };
    for strategy in [Strategy::NoPrefetch, Strategy::ExclHint] {
        let store = tmp_store();
        let (cycles, memory, stats, mut report) = run(strategy, Some(&store));
        let (bare_cycles, bare_memory, bare_stats, bare) = run(strategy, None);
        assert!(
            !report.applied.is_empty(),
            "{strategy:?}: {}",
            report.summary()
        );
        assert!(report.store_saved_records > 0, "the store-backed run saved");
        assert_eq!(bare.store_saved_records, 0);
        assert_eq!((cycles, memory), (bare_cycles, bare_memory), "{strategy:?}");
        assert_eq!(stats, bare_stats, "{strategy:?}: machine counters");
        report.store_saved_records = 0;
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&bare).unwrap(),
            "{strategy:?}: the report, store counters aside"
        );
        let _ = std::fs::remove_dir_all(&store);
    }
}

#[test]
fn host_fast_path_toggles_do_not_orphan_snapshots() {
    // The host_accel group changes host simulation speed, not guest
    // behaviour — a snapshot saved with it fast must warm a run with it
    // in full reference mode (the machine fingerprint masks the group).
    let store = tmp_store();
    let wl = workload();
    let fast = MachineConfig::smp4().with_host_accel(HostAccel::fast());
    let (cold, _) = run(&wl, &fast, &store);
    assert!(!cold.warm_started);
    let reference = MachineConfig::smp4().with_host_accel(HostAccel::reference());
    let (warm, _) = run(&wl, &reference, &store);
    assert!(
        warm.warm_started,
        "host-accel flags must not change the key"
    );
}

#[test]
fn mismatched_machine_rejects_snapshot_and_is_telemetered() {
    let store = tmp_store();
    let wl = workload();
    let (cold, _) = run(&wl, &MachineConfig::smp4(), &store);
    assert!(cold.store_saved_records > 0);

    // Same binary, different topology: stale decisions must not apply.
    let (other, log) = run(&wl, &MachineConfig::altix8(), &store);
    assert!(
        !other.warm_started,
        "altix8 must not warm from an smp4 profile"
    );
    assert!(other.store_errors >= 1, "the rejection must be counted");
    let log = log.lock().unwrap();
    let errors = store_errors(&log);
    assert!(!errors.is_empty(), "the rejection must be telemetered");
    assert!(
        errors[0].contains("rejected"),
        "reason names the cause: {}",
        errors[0]
    );
}

#[test]
fn mismatched_image_rejects_snapshot() {
    let store = tmp_store();
    let cfg = MachineConfig::smp4();
    let (cold, _) = run(&workload(), &cfg, &store);
    assert!(cold.store_saved_records > 0);

    // A different binary (prefetch-free compile ⇒ different text) on the
    // same machine: cold start, counted.
    let other_wl = Daxpy::build(
        DaxpyParams::new(128 * 1024, 48),
        &PrefetchPolicy::none(),
        cfg.mem_bytes,
    );
    let (other, _) = run(&other_wl, &cfg, &store);
    assert!(!other.warm_started, "different text must not warm-start");
    assert!(other.store_errors >= 1);
}

#[test]
fn damaged_snapshot_degrades_to_cold_start_without_panicking() {
    let store = tmp_store();
    let wl = workload();
    let cfg = MachineConfig::smp4();
    let (cold, _) = run(&wl, &cfg, &store);
    assert!(cold.store_saved_records > 0);

    // Smash every line after the header with garbage.
    let key = cobra_store::StoreKey::for_run(wl.image(), &cfg);
    let path = cobra_store::Store::new(&store).path_for(&key);
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    assert!(lines.len() > 2, "snapshot has records to damage");
    for line in lines.iter_mut().skip(1) {
        *line = "{\"crc\":0,\"body\":garbage".into();
    }
    std::fs::write(&path, lines.join("\n")).unwrap();

    let (after, _) = run(&wl, &cfg, &store);
    assert!(
        after.store_skipped_records > 0,
        "damaged records must be counted: {} skipped, {} errors",
        after.store_skipped_records,
        after.store_errors
    );
    // Header survived, every record after it was dropped: a warm start with
    // nothing seeded, or a rejected snapshot — either way the run completes
    // and re-deploys from the live profile.
    assert!(!after.applied.is_empty(), "{}", after.summary());
}

/// A prior snapshot whose counters cannot take one more run's sums (a
/// valid file near the top of the range — hand-edited, or decades of runs)
/// is not merged: detach says so with a `StoreError`, saves this run's own
/// snapshot in its place, and the next run warm-starts from that.
#[test]
fn prior_snapshot_that_would_overflow_is_reported_and_replaced() {
    let store = tmp_store();
    let wl = workload();
    let cfg = MachineConfig::smp4();
    let (cold, _) = run(&wl, &cfg, &store);
    assert_eq!(cold.store_errors, 0);

    let handle = cobra_store::Store::new(&store);
    let key = cobra_store::StoreKey::for_run(wl.image(), &cfg);
    let mut prior = handle.load(&key).snapshot.expect("the cold run saved");
    prior.runs = u64::MAX;
    handle.save(&prior).unwrap();

    let (second, log) = run(&wl, &cfg, &store);
    assert!(second.warm_started, "the snapshot itself loads fine");
    assert_eq!(second.store_errors, 1, "{}", second.summary());
    let log = log.lock().unwrap();
    let errors = store_errors(&log);
    assert_eq!(errors.len(), 1);
    assert!(errors[0].contains("would overflow"), "{}", errors[0]);
    let saved = handle
        .load(&key)
        .snapshot
        .expect("the fresh snapshot saved");
    assert_eq!(saved.runs, 1, "this run's own history, not the prior's");
    assert_eq!(second.store_saved_records, saved.record_count() as u64);
}

/// A store file as every build before the single fold wrote it — several
/// runs in the header, no age lines — still loads, seeds the next run and
/// folds: its heads count as confirmed by each of its runs.
#[test]
fn store_file_without_age_lines_still_loads_seeds_and_folds() {
    let store = tmp_store();
    let wl = workload();
    let cfg = MachineConfig::smp4();
    let (cold, _) = run(&wl, &cfg, &store);

    let handle = cobra_store::Store::new(&store);
    let key = cobra_store::StoreKey::for_run(wl.image(), &cfg);
    let mut old = handle.load(&key).snapshot.expect("the cold run saved");
    assert!(!old.decisions.is_empty());
    old.runs = 2;
    old.ages.clear();
    let path = handle.save(&old).unwrap();
    assert!(!std::fs::read_to_string(path).unwrap().contains("\"Age\""));

    let (warm, _) = run(&wl, &cfg, &store);
    assert!(warm.warm_started);
    assert_eq!((warm.store_errors, warm.store_skipped_records), (0, 0));
    assert_eq!(warm.warm_seeded_decisions, old.decisions.len());
    assert_eq!(active_set(&cold), active_set(&warm));
    let saved = handle.load(&key).snapshot.expect("the warm run saved");
    assert_eq!(saved.runs, 3);
    let seen = saved.confirmations();
    for d in &saved.decisions {
        assert_eq!(seen[&d.loop_head], 3);
    }
}
