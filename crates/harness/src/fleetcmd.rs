//! `cobra-repro fleet` — operate and exercise the `cobra-fleet`
//! profile-aggregation server:
//!
//! * `fleet serve` runs a server in the foreground (prints the bound
//!   address, then blocks);
//! * `fleet upload` pushes snapshot files at a server;
//! * `fleet fetch` pulls one key's aggregated warm seed;
//! * `fleet stats` prints the server's counters;
//! * `fleet bench` self-hosts a loopback server and drives it with a
//!   concurrent client fleet: ingest throughput, seed-fetch latency
//!   percentiles, and an end-to-end proof that a fleet warm seed converges
//!   strictly earlier than the run's own partial history.

use std::path::Path;
use std::time::Instant;

use cobra_fleet::{FleetClient, FleetConfig, FleetServer, FleetStats};
use cobra_kernels::npb::{self, Benchmark};
use cobra_kernels::PrefetchPolicy;
use cobra_machine::MachineConfig;
use cobra_omp::{OmpRuntime, Team};
use cobra_rt::{Cobra, CobraReport};
use cobra_store::{read_snapshot_file, DecisionRecord, ProfileRecord, Snapshot, Store, StoreKey};

use crate::profilecmd::snapshot_files;
use crate::runner::run_trials;

/// Parse a key in `file_stem` form: `<image_hash hex>-<machine_fp hex>`.
pub fn parse_key(stem: &str) -> Result<StoreKey, String> {
    let err = || format!("bad key {stem:?}; expected IMAGEHEX-MACHINEHEX (snapshot file stem)");
    let (img, fp) = stem.split_once('-').ok_or_else(err)?;
    Ok(StoreKey {
        image_hash: u64::from_str_radix(img, 16).map_err(|_| err())?,
        machine_fp: u64::from_str_radix(fp, 16).map_err(|_| err())?,
    })
}

/// `fleet serve`: run a server in the foreground until killed. The bound
/// address goes to stdout first (and is flushed), so scripts can scrape an
/// ephemeral port from `--addr 127.0.0.1:0`.
pub fn serve(
    addr: &str,
    dir: Option<&Path>,
    shards: usize,
    max_age_runs: Option<u64>,
) -> Result<std::convert::Infallible, String> {
    let server = FleetServer::start(
        addr,
        FleetConfig {
            shards,
            dir: dir.map(Path::to_path_buf),
            max_age_runs,
        },
    )?;
    let stats = server.stats();
    println!("fleet server listening on {}", server.local_addr());
    println!(
        "  {} shard(s), {} key(s) / {} run(s) restored{}{}",
        stats.shards,
        stats.keys,
        stats.runs_total,
        match dir {
            Some(d) => format!(", persisting to {}", d.display()),
            None => ", in-memory only".into(),
        },
        match max_age_runs {
            Some(n) => format!(", aging after {n} unconfirmed run(s)"),
            None => String::new(),
        },
    );
    use std::io::Write;
    let _ = std::io::stdout().flush();
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// `fleet upload`: push every snapshot in `path` (file or directory).
pub fn upload(addr: &str, path: &Path) -> Result<String, String> {
    let mut client = FleetClient::connect(addr)?;
    let mut out = String::new();
    for file in snapshot_files(path)? {
        let lr = read_snapshot_file(&file, None);
        let snap = lr.snapshot.ok_or_else(|| {
            format!(
                "{}: {}",
                file.display(),
                lr.error.unwrap_or_else(|| "no valid records".into())
            )
        })?;
        if lr.skipped_records > 0 {
            eprintln!(
                "warning: {} damaged record(s) skipped in {}",
                lr.skipped_records,
                file.display()
            );
        }
        let (runs_total, records) = client.upload(&snap, None)?;
        out.push_str(&format!(
            "{}: uploaded {} record(s); fleet now holds {} run(s) / {} record(s) of {}\n",
            file.display(),
            snap.record_count(),
            runs_total,
            records,
            snap.key.file_stem(),
        ));
    }
    Ok(out)
}

/// `fleet fetch`: pull one key's aggregated seed; optionally save it as a
/// local snapshot file for `profile inspect` / offline warm starts.
pub fn fetch(addr: &str, key: &StoreKey, out: Option<&Path>) -> Result<String, String> {
    let mut client = FleetClient::connect(addr)?;
    match client.fetch_seed(key)? {
        Some(snap) => {
            let mut msg = format!("{}: {}\n", key.file_stem(), snap.summary());
            if let Some(path) = out {
                cobra_store::write_snapshot_file(path, &snap)?;
                msg.push_str(&format!("  written to {}\n", path.display()));
            }
            Ok(msg)
        }
        None => Err(format!("fleet has no profile for key {}", key.file_stem())),
    }
}

/// `fleet stats`: human-readable server counters.
pub fn stats(addr: &str) -> Result<String, String> {
    let st = FleetClient::connect(addr)?.stats()?;
    Ok(render_stats(&st))
}

fn render_stats(st: &FleetStats) -> String {
    format!(
        "fleet stats —\n  \
         {} key(s), {} run(s) total, {} shard(s)\n  \
         uploads: {} accepted, {} rejected\n  \
         seeds: {} request(s), {} hit(s), {} served unverified\n  \
         aging: {} decision(s), {} winner(s) withheld\n  \
         verification: {} seed record(s) dropped\n  \
         frames rejected: {}\n  \
         persist errors: {}\n",
        st.keys,
        st.runs_total,
        st.shards,
        st.uploads,
        st.upload_rejects,
        st.seed_requests,
        st.seed_hits,
        st.served_unverified,
        st.aged_decisions,
        st.aged_winners,
        st.verify_dropped,
        st.frames_rejected,
        st.persist_errors,
    )
}

/// Latency percentile over an unsorted sample set (nearest-rank).
fn percentile(sorted_micros: &[u64], p: f64) -> u64 {
    if sorted_micros.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted_micros.len() as f64).ceil() as usize;
    sorted_micros[rank.saturating_sub(1).min(sorted_micros.len() - 1)]
}

/// A small synthetic upload for the load-generator phases.
fn load_snapshot(key: StoreKey, variant: u32) -> Snapshot {
    let mut s = Snapshot::empty(key);
    s.runs = 1;
    s.profile = ProfileRecord {
        instructions: 10_000 + variant as u64,
        cycles: 20_000,
        samples: 100,
        ..ProfileRecord::default()
    };
    for head in 0..=(variant % 4) {
        s.decisions.push(DecisionRecord {
            loop_head: 8 + 16 * head,
            kind: if (variant + head).is_multiple_of(2) {
                "noprefetch".into()
            } else {
                "prefetch.excl".into()
            },
            reverted: false,
            baseline_cpi: 1.5,
            post_cpi: if variant.is_multiple_of(3) {
                Some(1.2)
            } else {
                None
            },
        });
    }
    s
}

/// One adaptive cg run on smp4, warm-started from `store` and/or `fleet`.
fn cg_run(fleet: Option<&str>, store: Option<&Path>) -> CobraReport {
    let cfg = MachineConfig::smp4();
    let wl = npb::build(Benchmark::Cg, &PrefetchPolicy::aggressive(), cfg.mem_bytes);
    let mut m = cobra_machine::Machine::new(cfg, wl.image().clone());
    wl.init(&mut m.shared.mem);
    let mut builder = Cobra::builder().strategy(cobra_rt::Strategy::Adaptive);
    if let Some(addr) = fleet {
        builder = builder.fleet(addr);
    }
    if let Some(dir) = store {
        builder = builder.store(dir);
    }
    let mut cobra = builder.attach(&mut m);
    let rt = OmpRuntime {
        quantum: 20_000,
        ..OmpRuntime::default()
    };
    wl.run(&mut m, Team::new(4), &rt, &mut cobra);
    let report = cobra.detach(&mut m);
    wl.verify(&m.shared.mem)
        .expect("cg verification under COBRA");
    report
}

/// Final active deployment heads of a run.
fn active_heads(report: &CobraReport) -> Vec<u32> {
    let mut v: Vec<u32> = report
        .applied
        .iter()
        .filter(|a| !report.reverted.iter().any(|r| r.plan_id == a.plan_id))
        .map(|a| a.loop_head)
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// Tick at which the run's applied set first covers every head in `goal`
/// (the cold run's final deployments) — the convergence point.
fn converge_tick(report: &CobraReport, goal: &[u32]) -> Option<u64> {
    goal.iter()
        .map(|h| {
            report
                .applied
                .iter()
                .filter(|a| a.loop_head == *h)
                .map(|a| a.tick)
                .min()
        })
        .collect::<Option<Vec<u64>>>()
        .map(|firsts| firsts.into_iter().max().unwrap_or(0))
}

pub struct BenchOutcome {
    pub text: String,
    pub failures: usize,
}

/// `fleet bench`: the load-generator harness. Three phases against one
/// self-hosted loopback server:
///
/// 1. **ingest** — `clients` concurrent connections each upload
///    `per_client` snapshots; reports folds/sec (floor: 1000/sec);
/// 2. **fetch** — the same fleet pulls seeds; reports p50/p90/p99 latency;
/// 3. **convergence** — a cold cg run's history is split into partial
///    per-client snapshots; a run warm-started from the fleet fold of all
///    partials must converge strictly earlier than a run warm-started from
///    one client's own partial history alone.
pub fn bench(clients: usize, per_client: usize, tmp: &Path) -> Result<BenchOutcome, String> {
    let clients = clients.max(1);
    let per_client = per_client.max(1);
    let mut text = String::new();
    let mut failures = 0usize;
    let mut check = |text: &mut String, ok: bool, line: String| {
        text.push_str(&format!("  [{}] {line}\n", if ok { "ok" } else { "FAIL" }));
        if !ok {
            failures += 1;
        }
    };

    let server = FleetServer::start("127.0.0.1:0", FleetConfig::default())?;
    let addr = server.local_addr().to_string();
    text.push_str(&format!(
        "fleet bench — server on {addr}, {clients} client(s) x {per_client} upload(s)\n"
    ));

    // Phase 1: ingest throughput. Each client drives its own connection;
    // uploads spread over 32 keys so every shard works.
    let ids: Vec<usize> = (0..clients).collect();
    let t0 = Instant::now();
    let results = run_trials(&ids, clients, |&c| {
        let mut cl = FleetClient::connect(&addr)?;
        for u in 0..per_client {
            let n = (c * per_client + u) as u64;
            let key = StoreKey {
                image_hash: 0x1000 + n % 32,
                machine_fp: 0x2000,
            };
            cl.upload(&load_snapshot(key, n as u32), None)?;
        }
        Ok::<(), String>(())
    });
    let ingest_secs = t0.elapsed().as_secs_f64();
    for r in results {
        r.map_err(|p| p.to_string())??;
    }
    let total = (clients * per_client) as u64;
    let rate = total as f64 / ingest_secs.max(1e-9);
    let st = server.stats();
    check(
        &mut text,
        st.uploads == total,
        format!("all {total} uploads folded (server counted {})", st.uploads),
    );
    check(
        &mut text,
        rate >= 1000.0,
        format!("ingest throughput {rate:.0} folds/sec (floor 1000)"),
    );

    // Phase 2: seed-fetch latency percentiles across the same fleet.
    let mut lat: Vec<u64> = Vec::new();
    let fetch_results = run_trials(&ids, clients, |&c| {
        let mut cl = FleetClient::connect(&addr)?;
        let mut mine = Vec::with_capacity(per_client);
        for u in 0..per_client {
            let key = StoreKey {
                image_hash: 0x1000 + ((c * per_client + u) as u64 % 32),
                machine_fp: 0x2000,
            };
            let t = Instant::now();
            let seed = cl.fetch_seed(&key)?;
            mine.push(t.elapsed().as_micros() as u64);
            if seed.is_none() {
                return Err(format!("no seed for ingested key {}", key.file_stem()));
            }
        }
        Ok::<Vec<u64>, String>(mine)
    });
    for r in fetch_results {
        lat.extend(r.map_err(|p| p.to_string())??);
    }
    lat.sort_unstable();
    check(
        &mut text,
        lat.len() == clients * per_client,
        format!(
            "fetched {} seed(s): p50 {}us, p90 {}us, p99 {}us",
            lat.len(),
            percentile(&lat, 50.0),
            percentile(&lat, 90.0),
            percentile(&lat, 99.0),
        ),
    );

    // Phase 3: fleet-warm vs self-history-warm convergence on cg/smp4.
    // A cold run learns the full deployment set; its history is split into
    // per-client partials (each client saw only some heads). One client's
    // own partial history misses the held-out head; the fleet, folding
    // every partial, does not.
    // The synthetic phase-1 keys carry no image, so their fetches are
    // (correctly) unverified; only the cg phase below must verify.
    let pre_e2e = server.stats();
    let cold_dir = tmp.join("cold");
    std::fs::create_dir_all(&cold_dir).map_err(|e| e.to_string())?;
    let cold = cg_run(None, Some(&cold_dir));
    let goal = active_heads(&cold);
    check(
        &mut text,
        goal.len() >= 2,
        format!(
            "cold cg run deployed {} distinct head(s): {goal:?}",
            goal.len()
        ),
    );
    let full = {
        let store = Store::new(&cold_dir);
        let key = store
            .snapshot_paths()
            .first()
            .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
            .ok_or("cold run persisted no snapshot")?;
        let key = parse_key(&key)?;
        Store::new(&cold_dir)
            .load(&key)
            .snapshot
            .ok_or("cold snapshot unreadable")?
    };
    // Hold out the head the cold run learned last.
    let held_out = cold
        .applied
        .iter()
        .filter(|a| goal.contains(&a.loop_head))
        .max_by_key(|a| a.tick)
        .map(|a| a.loop_head)
        .ok_or("cold run applied nothing")?;
    let strip = |snap: &Snapshot, drop_head: Option<u32>| -> Snapshot {
        let mut s = snap.clone();
        if let Some(h) = drop_head {
            s.decisions.retain(|d| d.loop_head != h);
            s.winners.retain(|w| w.loop_head != h);
        }
        s
    };
    // Client A's own history misses the held-out head; client B's partial
    // covers it. The fleet folds both — with the image words attached so
    // every cg seed it serves goes through `check_seed`.
    let self_partial = strip(&full, Some(held_out));
    let other_partial = strip(&full, goal.iter().find(|h| **h != held_out).copied());
    let words = {
        let cfg = MachineConfig::smp4();
        let wl = npb::build(Benchmark::Cg, &PrefetchPolicy::aggressive(), cfg.mem_bytes);
        let image = wl.image().clone();
        image.words()[..image.main_len() as usize].to_vec()
    };
    let mut cl = FleetClient::connect(&addr)?;
    cl.upload(&self_partial, Some(&words))?;
    cl.upload(&other_partial, Some(&words))?;
    drop(cl);

    let self_dir = tmp.join("self");
    std::fs::create_dir_all(&self_dir).map_err(|e| e.to_string())?;
    Store::new(&self_dir).save(&self_partial)?;
    let self_warm = cg_run(None, Some(&self_dir));
    let fleet_warm = cg_run(Some(&addr), None);

    // The self-history run may not even finish re-learning the held-out
    // head inside one run — "never converged" is the strongest form of
    // "later". It must still stay inside the cold set (no rogue deploys).
    check(
        &mut text,
        active_heads(&fleet_warm) == goal
            && active_heads(&self_warm)
                .iter()
                .all(|h| goal.contains(h)),
        format!(
            "fleet-warm reaches the cold deployment set, self-history stays within it (self {:?}, fleet {:?})",
            active_heads(&self_warm),
            active_heads(&fleet_warm),
        ),
    );
    check(
        &mut text,
        fleet_warm.fleet_seeds == 1 && fleet_warm.fleet_errors == 0,
        format!(
            "fleet run seeded from the server ({} seed(s), {} error(s))",
            fleet_warm.fleet_seeds, fleet_warm.fleet_errors
        ),
    );
    let self_tick = converge_tick(&self_warm, &goal);
    let fleet_tick = converge_tick(&fleet_warm, &goal);
    check(
        &mut text,
        matches!(fleet_tick, Some(f) if self_tick.is_none_or(|s| f < s)),
        format!(
            "fleet-warm converges strictly earlier: tick {fleet_tick:?} vs self-history tick {} ",
            match self_tick {
                Some(s) => format!("{s}"),
                None => "never (run ended first)".into(),
            }
        ),
    );

    let st = server.stats();
    check(
        &mut text,
        st.served_unverified == pre_e2e.served_unverified,
        format!(
            "every cg seed was image-verified before serving ({} unverified)",
            st.served_unverified - pre_e2e.served_unverified
        ),
    );
    server.shutdown();
    text.push_str(if failures == 0 { "PASS\n" } else { "FAIL\n" });
    Ok(BenchOutcome { text, failures })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_parsing_round_trips_and_rejects_garbage() {
        let k = StoreKey {
            image_hash: 0xdead_beef,
            machine_fp: 0x77,
        };
        assert_eq!(parse_key(&k.file_stem()).unwrap(), k);
        assert!(parse_key("nodash").is_err());
        assert!(parse_key("xyz-77").is_err());
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&[], 99.0), 0);
        assert_eq!(percentile(&[7], 50.0), 7);
    }

    #[test]
    fn cli_upload_fetch_stats_round_trip() {
        let dir = std::env::temp_dir().join(format!("cobra-fleetcmd-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let server = FleetServer::start("127.0.0.1:0", FleetConfig::default()).unwrap();
        let addr = server.local_addr().to_string();

        let snap = load_snapshot(
            StoreKey {
                image_hash: 0xabc,
                machine_fp: 0xdef,
            },
            3,
        );
        let file = dir.join("up.jsonl");
        cobra_store::write_snapshot_file(&file, &snap).unwrap();

        let msg = upload(&addr, &file).unwrap();
        assert!(msg.contains("uploaded"), "{msg}");
        let out = dir.join("seed.jsonl");
        let msg = fetch(&addr, &snap.key, Some(&out)).unwrap();
        assert!(msg.contains("1 run(s)"), "{msg}");
        let fetched = read_snapshot_file(&out, None).snapshot.unwrap();
        assert_eq!(fetched.key, snap.key);
        let msg = stats(&addr).unwrap();
        assert!(msg.contains("1 key(s)"), "{msg}");
        assert!(
            fetch(&addr, &parse_key("1-2").unwrap(), None)
                .unwrap_err()
                .contains("no profile"),
            "unknown key is a clean error"
        );
        server.shutdown();
    }
}
