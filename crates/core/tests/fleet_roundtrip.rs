//! Pooled learning through `cobra-fleet`: a run uploads its detach
//! snapshot to an in-process aggregation server, the next run fetches a
//! fleet warm seed and converges strictly earlier. Every fleet failure
//! degrades down the ladder (fleet -> local store -> cold) — counted and
//! telemetered, never fatal.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use cobra_fleet::{FleetConfig, FleetServer};
use cobra_kernels::workload::Workload;
use cobra_kernels::{Daxpy, DaxpyParams, PrefetchPolicy};
use cobra_machine::MachineConfig;
use cobra_omp::{OmpRuntime, Team};
use cobra_rt::{Cobra, CobraReport, Strategy, TelemetrySink};

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "cobra-fleetrt-{tag}-{}-{}",
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
    Daxpy::build(
        DaxpyParams::new(128 * 1024, 48),
        &PrefetchPolicy::aggressive(),
        MachineConfig::smp4().mem_bytes,
    )
}

/// One full attached run; `fleet`/`store` configure the ladder rungs.
fn run(
    wl: &Daxpy,
    fleet: Option<&str>,
    store: Option<&std::path::Path>,
) -> (
    CobraReport,
    std::sync::Arc<std::sync::Mutex<cobra_rt::TelemetryLog>>,
) {
    let cfg = MachineConfig::smp4();
    let mut m = cobra_machine::Machine::new(cfg, wl.image().clone());
    wl.init(&mut m.shared.mem);
    let (sink, log) = TelemetrySink::memory();
    let mut b = Cobra::builder()
        .strategy(Strategy::Adaptive)
        .telemetry(sink);
    if let Some(addr) = fleet {
        b = b.fleet(addr);
    }
    if let Some(dir) = store {
        b = b.store(dir);
    }
    let mut cobra = b.attach(&mut m);
    let rt = OmpRuntime {
        quantum: 20_000,
        ..OmpRuntime::default()
    };
    wl.run(&mut m, Team::new(4), &rt, &mut cobra);
    let report = cobra.detach(&mut m);
    wl.verify(&m.shared.mem).expect("verification under COBRA");
    (report, log)
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
fn fleet_round_trip_converges_earlier_to_same_deployments() {
    let server = FleetServer::start("127.0.0.1:0", FleetConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let wl = workload();

    let (cold, cold_log) = run(&wl, Some(&addr), None);
    assert!(!cold.warm_started, "empty fleet cannot warm the first run");
    assert_eq!(cold.fleet_errors, 0, "live server, no degradation");
    assert_eq!(cold.fleet_uploads, 1, "detach must upload");
    assert!(!cold.applied.is_empty(), "{}", cold.summary());
    assert_eq!(cold_log.lock().unwrap().count("fleet_upload"), 1);

    let (warm, warm_log) = run(&wl, Some(&addr), None);
    assert_eq!(warm.fleet_seeds, 1, "second run must get a fleet seed");
    assert!(warm.warm_started);
    assert!(warm.warm_seeded_decisions > 0);
    {
        let warm_log = warm_log.lock().unwrap();
        assert_eq!(warm_log.count("fleet_seed"), 1);
        assert_eq!(warm_log.count("fleet_upload"), 1);
    }

    assert_eq!(
        active_set(&cold),
        active_set(&warm),
        "fleet-warm run must converge on the cold run's deployments\ncold: {}\nwarm: {}",
        cold.summary(),
        warm.summary()
    );
    let cold_first = cold.applied.iter().map(|a| a.tick).min().unwrap();
    let warm_first = warm.applied.iter().map(|a| a.tick).min().unwrap();
    assert!(
        warm_first < cold_first,
        "fleet-warm run must deploy strictly earlier: warm tick {warm_first} vs cold tick {cold_first}"
    );

    let stats = server.stats();
    assert_eq!(stats.uploads, 2);
    assert_eq!(stats.seed_hits, 1);
    assert_eq!(stats.upload_rejects, 0, "image words must match the key");
    server.shutdown();
}

#[test]
fn unreachable_fleet_degrades_to_local_store_then_cold() {
    // Nothing listens here: every fleet call fails fast.
    let dead = "127.0.0.1:1";
    let store = tmp_dir("ladder");
    let wl = workload();

    // Rung 3 (cold): fleet down, store empty.
    let (cold, log) = run(&wl, Some(dead), Some(&store));
    assert!(!cold.warm_started);
    assert_eq!(
        cold.fleet_errors,
        2,
        "fetch and upload must both fail and be counted: {}",
        cold.summary()
    );
    assert_eq!(cold.fleet_seeds, 0);
    assert_eq!(cold.fleet_uploads, 0);
    assert!(!cold.applied.is_empty(), "the run itself must be unharmed");
    assert!(
        cold.store_saved_records > 0,
        "local persistence still works"
    );
    assert_eq!(log.lock().unwrap().count("fleet_error"), 2);

    // Rung 2 (local store): fleet still down, but the snapshot is local now.
    let (warm, _) = run(&wl, Some(dead), Some(&store));
    assert!(
        warm.warm_started,
        "local store must warm despite a dead fleet"
    );
    assert_eq!(warm.fleet_seeds, 0);
    assert_eq!(warm.fleet_errors, 2);
}

#[test]
fn fleet_seed_outranks_local_store_snapshot() {
    let server = FleetServer::start("127.0.0.1:0", FleetConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let store = tmp_dir("rank");
    let wl = workload();

    let (cold, _) = run(&wl, Some(&addr), Some(&store));
    assert_eq!(cold.fleet_uploads, 1);
    assert!(cold.store_saved_records > 0);

    // Both rungs can serve; the fleet one must win (one seed, no
    // double-seeding from the local snapshot).
    let (warm, log) = run(&wl, Some(&addr), Some(&store));
    assert_eq!(warm.fleet_seeds, 1);
    assert!(warm.warm_started);
    let log = log.lock().unwrap();
    assert_eq!(log.count("fleet_seed"), 1);
    assert_eq!(
        log.count("warm_start"),
        0,
        "local-store seeding must stand down when the fleet seed lands"
    );
    server.shutdown();
}

/// A store directory is a fleet of one: two real runs that save locally
/// and upload leave the same bytes in the store's file as the server
/// persists for the key — one fold, from empty, of the same two runs.
#[test]
fn local_store_file_equals_the_fleet_shard_file() {
    let fdir = tmp_dir("shard");
    let server = FleetServer::start(
        "127.0.0.1:0",
        FleetConfig {
            dir: Some(fdir.clone()),
            ..FleetConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let dir = tmp_dir("local");
    let wl = workload();

    for runs in 1..=2 {
        let (report, _) = run(&wl, Some(&addr), Some(&dir));
        assert_eq!((report.fleet_uploads, report.store_errors), (1, 0));
        let local = cobra_store::Store::new(&dir).snapshot_paths();
        assert_eq!(local.len(), 1, "one key, one file");
        let shard = fdir.join(local[0].file_name().unwrap());
        let bytes = std::fs::read(&local[0]).unwrap();
        assert!(
            bytes == std::fs::read(&shard).unwrap(),
            "after {runs} run(s) {} and {} differ",
            local[0].display(),
            shard.display()
        );
        let held = cobra_store::read_snapshot_file(&shard, None).snapshot;
        assert_eq!(held.map(|s| s.runs), Some(runs));
    }
    server.shutdown();
}
