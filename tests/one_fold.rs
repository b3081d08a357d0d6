//! One fold: the same runs of one binary on one machine leave the same
//! bytes wherever they meet — in a local store that loads, folds and saves
//! run by run (what `Cobra::detach` does), in `cobra-repro profile merge`
//! over the per-run files in any order, in `merge_unordered`, and in the
//! file a fleet server persists after taking the uploads in yet another
//! order. A store directory is a fleet of one.

use std::path::{Path, PathBuf};

use cobra::harness::profilecmd;
use cobra_fleet::{FleetClient, FleetConfig, FleetServer};
use cobra_store::{
    merge_unordered, write_snapshot_file, BranchPairRecord, DecisionRecord, DelinquentRecord,
    Snapshot, Store, StoreKey, WinnerRecord,
};

const KEY: StoreKey = StoreKey {
    image_hash: 0x0f01d,
    machine_fp: 0x5eed,
};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let d = std::env::temp_dir().join(format!("cobra-one-fold-{tag}-{}", std::process::id()));
        // Process ids come round again: a directory an earlier run left
        // under the same name must not hand this one its files.
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("temp dir");
        TempDir(d)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn decision(loop_head: u32, kind: &str, post_cpi: Option<f64>) -> DecisionRecord {
    DecisionRecord {
        loop_head,
        kind: kind.into(),
        reverted: false,
        baseline_cpi: 1.5,
        post_cpi,
    }
}

fn winner(loop_head: u32, candidate: &str, cpi: f64) -> WinnerRecord {
    WinnerRecord {
        loop_head,
        candidate: candidate.into(),
        kind: "combined".into(),
        trials: vec![("noprefetch.all".into(), 1.4), (candidate.into(), cpi)],
    }
}

/// What four runs of one binary each learned, as `detach` derives it: one
/// run apiece, no ages. Head 16 is decided differently by runs 0 and 1 (and
/// won by different candidates in runs 0 and 3); head 48 is measured by
/// run 0 and left unmeasured by run 2; head 112 is seen by run 3 alone.
fn runs() -> Vec<Snapshot> {
    let mut runs = Vec::new();
    for i in 0..4u64 {
        let mut s = Snapshot::empty(KEY);
        s.runs = 1;
        s.profile.instructions = 1_000_000 + i;
        s.profile.cycles = 1_500_000 + 7 * i;
        s.profile.samples = 600 + i;
        s.profile.delinquent = vec![DelinquentRecord {
            pc: 20 + 4 * (i as u32 % 2),
            coherent: 30 + i,
            memory: 4,
            total_latency: 6_000,
        }];
        s.profile.branch_pairs = vec![BranchPairRecord {
            src: 31,
            target: 16,
            count: 250 + i,
        }];
        runs.push(s);
    }
    runs[0].decisions = vec![
        decision(16, "noprefetch", Some(1.2)),
        decision(48, "prefetch.excl", Some(1.3)),
    ];
    runs[0].winners = vec![winner(16, "combined.split", 1.2)];
    runs[0].blacklist = vec![80];
    runs[1].decisions = vec![decision(16, "prefetch.excl", Some(1.1))];
    runs[2].decisions = vec![decision(48, "prefetch.excl", None)];
    runs[2].blacklist = vec![96, 80];
    runs[3].decisions = vec![
        decision(16, "noprefetch", Some(1.2)),
        decision(112, "noprefetch", None),
    ];
    runs[3].winners = vec![winner(16, "combined.tail", 1.25)];
    runs
}

fn merged_by_cli(inputs: &[&Path], out: &Path, max_age_runs: Option<u64>) -> Vec<u8> {
    let inputs: Vec<PathBuf> = inputs.iter().map(|p| p.to_path_buf()).collect();
    profilecmd::merge(&inputs, out, max_age_runs).expect("profile merge");
    std::fs::read(out).expect("merge wrote its output")
}

#[test]
fn a_store_a_merge_in_any_order_and_a_fleet_shard_hold_the_same_bytes() {
    let tmp = TempDir::new("bytes");
    let runs = runs();

    // A local store, run by run: load what is there, fold the run in, save.
    let store = Store::new(tmp.0.join("store"));
    for run in &runs {
        let mut held = store
            .load(&KEY)
            .snapshot
            .unwrap_or_else(|| Snapshot::empty(KEY));
        held.fold_unordered(run).expect("same key, small sums");
        store.save(&held).expect("store saves");
    }
    let local = std::fs::read(store.path_for(&KEY)).expect("store file");

    // The library fold of all four, written as a file.
    let folded = merge_unordered(&runs).expect("same key, small sums");
    let lib_file = tmp.0.join("lib.jsonl");
    write_snapshot_file(&lib_file, &folded).expect("write");
    assert!(
        local == std::fs::read(&lib_file).unwrap(),
        "store file differs from merge_unordered's"
    );
    // The disagreements were real, and resolved by content, not position.
    assert_eq!((folded.runs, folded.decisions.len()), (4, 3));
    assert_eq!(folded.decisions[1].post_cpi, Some(1.3), "measured stays");
    assert_eq!(folded.winners.len(), 1);
    assert_eq!(folded.blacklist, vec![80, 96]);
    assert_eq!(folded.confirmations()[&16], 3);

    // `profile merge` over the per-run files, in two different orders.
    let files: Vec<PathBuf> = (0..runs.len())
        .map(|i| tmp.0.join(format!("run{i}.jsonl")))
        .collect();
    for (file, run) in files.iter().zip(&runs) {
        write_snapshot_file(file, run).expect("write");
    }
    let f = |i: usize| files[i].as_path();
    let out = tmp.0.join("merged.jsonl");
    for order in [[0, 1, 2, 3], [3, 1, 0, 2]] {
        assert!(
            local == merged_by_cli(&order.map(f), &out, None),
            "profile merge in order {order:?} differs from the store file"
        );
    }

    // A fleet server persisting to a directory, uploads in a third order.
    let shard_dir = tmp.0.join("fleet");
    let server = FleetServer::start(
        "127.0.0.1:0",
        FleetConfig {
            dir: Some(shard_dir.clone()),
            ..FleetConfig::default()
        },
    )
    .expect("loopback server");
    let mut client = FleetClient::connect(&server.local_addr().to_string()).expect("connect");
    for i in [2, 0, 3, 1] {
        client.upload(&runs[i], None).expect("upload");
    }
    drop(client);
    server.shutdown();
    let shard = std::fs::read(Store::new(&shard_dir).path_for(&KEY)).expect("shard file");
    assert!(
        local == shard,
        "fleet shard file differs from the store file"
    );

    // Aging is a filter over that one fold.
    let (aged, aged_decisions, _) = folded.age_filtered(3);
    assert_eq!(aged_decisions, 1, "head 112: seen by 1 of 4 runs");
    write_snapshot_file(&lib_file, &aged).expect("write");
    assert!(
        merged_by_cli(&[3, 2, 1, 0].map(f), &out, Some(3)) == std::fs::read(&lib_file).unwrap(),
        "profile merge --max-age-runs 3 differs from merge_unordered + age_filtered"
    );
}
