//! End-to-end fleet coverage: fleet-warm vs self-history-warm convergence
//! on cg against a loopback server, and the `cobra-repro fleet`
//! serve/upload/fetch/stats round trip against a real child-process server
//! with a scraped ephemeral port. The server is the one process under test;
//! the client commands run in-process through `cli::invoke`.
//!
//! The rest of the fleet round trip, by suite: the server's ingest
//! determinism proptests are `cobra-fleet`'s own (any interleaving or
//! order of the same upload multiset must persist byte-identical state); the framework's cold -> upload -> fleet-warm convergence against
//! a loopback server is `crates/core/tests/fleet_roundtrip.rs`;
//! `tests/one_fold.rs` holds the store, `profile merge` and the server to
//! one rule (the same runs leave the same bytes in all three); what the
//! server costs is `benchmark/`'s `fleet_mixed` workload. Every byte of all
//! of it goes through the `compat/serde*` codec, whose own tests (hostile
//! input, number and string edges, the nesting cap) and golden corpus
//! (`tests/golden.rs`) matter most overflow-checked — the tokenizer does
//! arithmetic on offsets and digits a peer chooses — which is
//! `scripts/ci.sh overflow-checks`.

mod common;

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};

use cobra_fleet::{FleetClient, FleetConfig, FleetServer};
use cobra_kernels::npb::{self, Benchmark};
use cobra_kernels::PrefetchPolicy;
use cobra_machine::MachineConfig;
use cobra_omp::{OmpRuntime, Team};
use cobra_rt::{Cobra, CobraReport};
use cobra_store::{read_snapshot_file, write_snapshot_file, Snapshot, Store};
use common::{repro, repro_ok, snap, tmp_dir};

fn cg() -> Box<dyn cobra_kernels::Workload> {
    let mem_bytes = MachineConfig::smp4().mem_bytes;
    npb::build(Benchmark::Cg, &PrefetchPolicy::aggressive(), mem_bytes)
}

/// One adaptive cg run on smp4, warm-started from `store` and/or `fleet`.
fn cg_run(fleet: Option<&str>, store: Option<&Path>) -> CobraReport {
    let wl = cg();
    let mut m = cobra_machine::Machine::new(MachineConfig::smp4(), wl.image().clone());
    wl.init(&mut m.shared.mem);
    let mut builder = Cobra::builder().strategy(cobra_rt::Strategy::Adaptive);
    if let Some(addr) = fleet {
        builder = builder.fleet(addr);
    }
    if let Some(dir) = store {
        builder = builder.store(dir);
    }
    let mut cobra = builder.attach(&mut m);
    let rt = OmpRuntime { quantum: 20_000 };
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

/// A cold cg run's history is split into two partial per-client snapshots
/// (each client saw only some heads). A run warm-started from the fleet's
/// fold of both must reach the cold deployment set strictly earlier than a
/// run warm-started from one client's own partial history, which misses
/// the held-out head; and every seed served went through `check_seed`.
#[test]
fn fleet_fold_of_partial_histories_converges_before_own_history() {
    let server = FleetServer::start("127.0.0.1:0", FleetConfig::default()).unwrap();
    let addr = server.local_addr().to_string();

    let cold_dir = tmp_dir("cold");
    let cold = cg_run(None, Some(&cold_dir));
    let goal = active_heads(&cold);
    assert!(goal.len() >= 2, "cold cg run deployed {goal:?}");
    let saved = Store::new(&cold_dir).snapshot_paths();
    let full = read_snapshot_file(&saved[0], None)
        .snapshot
        .expect("cold run persisted a snapshot");
    // Hold out the head the cold run learned last.
    let held_out = cold
        .applied
        .iter()
        .filter(|a| goal.contains(&a.loop_head))
        .max_by_key(|a| a.tick)
        .map(|a| a.loop_head)
        .expect("cold run applied something");
    let strip = |drop_head: Option<u32>| -> Snapshot {
        let mut s = full.clone();
        if let Some(h) = drop_head {
            s.decisions.retain(|d| d.loop_head != h);
            s.winners.retain(|w| w.loop_head != h);
        }
        s
    };
    // Client A's own history misses the held-out head; client B's partial
    // covers it. The fleet folds both — with the image words attached so
    // every seed it serves goes through `check_seed`.
    let self_partial = strip(Some(held_out));
    let other_partial = strip(goal.iter().find(|h| **h != held_out).copied());
    let image = cg().image().clone();
    let words = &image.words()[..image.main_len() as usize];
    let mut cl = FleetClient::connect(&addr).unwrap();
    cl.upload(&self_partial, Some(words)).unwrap();
    cl.upload(&other_partial, Some(words)).unwrap();
    drop(cl);

    let self_dir = tmp_dir("self");
    Store::new(&self_dir).save(&self_partial).unwrap();
    let self_warm = cg_run(None, Some(&self_dir));
    let fleet_warm = cg_run(Some(&addr), None);

    // The self-history run may not even finish re-learning the held-out
    // head inside one run — "never converged" is the strongest form of
    // "later". It must still stay inside the cold set (no rogue deploys).
    assert_eq!(active_heads(&fleet_warm), goal);
    let self_heads = active_heads(&self_warm);
    assert!(
        self_heads.iter().all(|h| goal.contains(h)),
        "self-history run left the cold set {goal:?}: {self_heads:?}"
    );
    assert_eq!(
        (fleet_warm.fleet_seeds, fleet_warm.fleet_errors),
        (1, 0),
        "fleet run seeded from the server"
    );
    let self_tick = converge_tick(&self_warm, &goal);
    let fleet_tick = converge_tick(&fleet_warm, &goal);
    assert!(
        matches!(fleet_tick, Some(f) if self_tick.is_none_or(|s| f < s)),
        "fleet-warm converges strictly earlier: tick {fleet_tick:?} vs self-history {self_tick:?}"
    );
    assert_eq!(
        server.stats().served_unverified,
        0,
        "every cg seed was image-verified before serving"
    );
    server.shutdown();
}

/// A serve child on an ephemeral port, killed on drop even when an
/// assertion fails first.
struct ServeGuard(Child);
impl Drop for ServeGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn cli_serve_upload_fetch_stats_round_trip() {
    let dir = tmp_dir("serve");
    let mut child = Command::new(env!("CARGO_BIN_EXE_cobra-repro"))
        .args(["fleet", "serve", "--addr", "127.0.0.1:0", "--dir"])
        .arg(&dir)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn fleet serve");
    // Scrape the bound address from the first stdout line. The reader must
    // outlive the whole test: dropping it closes the pipe and the child
    // would die on its next print.
    let stdout = child.stdout.take().expect("piped stdout");
    let guard = ServeGuard(child);
    let mut reader = BufReader::new(stdout);
    let mut first = String::new();
    reader
        .read_line(&mut first)
        .expect("serve prints its address");
    let addr = first
        .trim()
        .rsplit(' ')
        .next()
        .expect("address on the first line")
        .to_string();
    assert!(
        addr.starts_with("127.0.0.1:"),
        "scraped {addr:?} from {first:?}"
    );

    let upfile = tmp_dir("up").join("run.jsonl");
    write_snapshot_file(&upfile, &snap()).unwrap();
    let msg = repro_ok(&["fleet", "upload", "--addr", &addr, upfile.to_str().unwrap()]);
    assert!(msg.contains("fleet now holds 1 run(s)"), "{msg}");

    let msg = repro_ok(&["fleet", "stats", "--addr", &addr]);
    assert!(msg.contains("1 key(s)"), "{msg}");
    assert!(msg.contains("uploads: 1 accepted"), "{msg}");

    let seedfile = tmp_dir("seed").join("seed.jsonl");
    repro_ok(&[
        "fleet",
        "fetch",
        "--addr",
        &addr,
        "--key",
        &snap().key.file_stem(),
        "--out",
        seedfile.to_str().unwrap(),
    ]);
    let fetched = cobra_store::read_snapshot_file(&seedfile, None)
        .snapshot
        .expect("fetched seed parses");
    assert_eq!(fetched.runs, 1);
    assert_eq!(fetched.decisions.len(), 1);

    // Unknown key: clean exit 1, not a crash.
    let out = repro(&["fleet", "fetch", "--addr", &addr, "--key", "1-2"]);
    assert_eq!(out.code, 1);
    assert!(out.stderr.contains("no profile"), "{}", out.stderr);

    // The server persisted the key's state for warm restart.
    drop(guard);
    drop(reader);
    let files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "jsonl"))
        .collect();
    assert_eq!(files.len(), 1, "one persisted key snapshot");
}

#[test]
fn cli_bad_arguments_exit_2() {
    assert_eq!(repro(&["fleet"]).code, 2);
    // `bench` was a command once; it is an unknown one now, like `bogus`.
    for action in ["bogus", "bench"] {
        let out = repro(&["fleet", action]);
        assert_eq!(out.code, 2);
        assert!(
            out.stderr.contains("unknown fleet command"),
            "{}",
            out.stderr
        );
        assert_eq!(out.stderr.lines().count(), 1, "one line: {}", out.stderr);
    }
    assert_eq!(repro(&["fleet", "stats"]).code, 2, "missing --addr");
    let out = repro(&["fleet", "fetch", "--addr", "127.0.0.1:9", "--key", "zz"]);
    assert_eq!(out.code, 1, "malformed key is an operation error");
    let out = repro(&[
        "fleet",
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--max-age-runs",
        "0",
    ]);
    assert_eq!(out.code, 2, "zero horizon rejected");
}
