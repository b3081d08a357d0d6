//! End-to-end `cobra-repro fleet` coverage: the full load-generator bench
//! (ingest throughput, fetch latency, fleet-warm vs self-history-warm
//! convergence on cg) and the CLI serve/upload/fetch/stats round trip
//! against a real child-process server with a scraped ephemeral port.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

use cobra_store::{write_snapshot_file, DecisionRecord, Snapshot, StoreKey};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cobra-repro"))
        .args(args)
        .output()
        .expect("spawn cobra-repro")
}

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "cobra-fleet-e2e-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    // Process ids come round again: a directory an earlier run left under
    // the same name must not hand this one its files.
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn snap() -> Snapshot {
    let mut s = Snapshot::empty(StoreKey {
        image_hash: 0xaaaa,
        machine_fp: 0xbbbb,
    });
    s.runs = 1;
    s.decisions.push(DecisionRecord {
        loop_head: 40,
        kind: "noprefetch".into(),
        reverted: false,
        baseline_cpi: 1.4,
        post_cpi: Some(1.1),
    });
    s
}

/// The whole bench harness: every check must hold. Debug builds are slow,
/// so the client fleet is scaled down; the throughput floor still applies.
#[test]
fn bench_checks_all_pass() {
    let tmp = tmp_dir("bench");
    let out = cobra_harness::fleetcmd::bench(8, 8, &tmp).expect("bench runs");
    assert_eq!(out.failures, 0, "every bench check passes:\n{}", out.text);
    assert!(out.text.ends_with("PASS\n"), "{}", out.text);
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
        .args([
            "fleet",
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--shards",
            "2",
            "--dir",
        ])
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
    let out = repro(&["fleet", "upload", "--addr", &addr, upfile.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let msg = String::from_utf8_lossy(&out.stdout);
    assert!(msg.contains("fleet now holds 1 run(s)"), "{msg}");

    let out = repro(&["fleet", "stats", "--addr", &addr]);
    assert_eq!(out.status.code(), Some(0));
    let msg = String::from_utf8_lossy(&out.stdout);
    assert!(msg.contains("1 key(s)"), "{msg}");
    assert!(msg.contains("uploads: 1 accepted"), "{msg}");

    let seedfile = tmp_dir("seed").join("seed.jsonl");
    let out = repro(&[
        "fleet",
        "fetch",
        "--addr",
        &addr,
        "--key",
        &snap().key.file_stem(),
        "--out",
        seedfile.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let fetched = cobra_store::read_snapshot_file(&seedfile, None)
        .snapshot
        .expect("fetched seed parses");
    assert_eq!(fetched.runs, 1);
    assert_eq!(fetched.decisions.len(), 1);

    // Unknown key: clean exit 1, not a crash.
    let out = repro(&["fleet", "fetch", "--addr", &addr, "--key", "1-2"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no profile"));

    // The server persisted the shard for warm restart.
    drop(guard);
    drop(reader);
    let files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "jsonl"))
        .collect();
    assert_eq!(files.len(), 1, "one persisted shard snapshot");
}

#[test]
fn cli_bad_arguments_exit_2() {
    let out = repro(&["fleet"]);
    assert_eq!(out.status.code(), Some(2));
    let out = repro(&["fleet", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let out = repro(&["fleet", "stats"]); // missing --addr
    assert_eq!(out.status.code(), Some(2));
    let out = repro(&["fleet", "fetch", "--addr", "127.0.0.1:9", "--key", "zz"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "malformed key is an operation error"
    );
    let out = repro(&[
        "fleet",
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--max-age-runs",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2), "zero horizon rejected");
}
