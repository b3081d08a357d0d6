//! Exit-code contract of `cobra-repro verify` (the PR-4 CLI convention):
//! bad arguments and unreadable paths are a one-line error + exit 2;
//! verification findings are exit 1; a clean lint is exit 0.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};

use cobra_store::{write_snapshot_file, DecisionRecord, Snapshot, StoreKey};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cobra-repro"))
        .args(args)
        .output()
        .expect("spawn cobra-repro")
}

fn tmp_dir() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "cobra-verify-cli-{}-{}",
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

#[test]
fn bad_arguments_exit_2_with_one_line_error() {
    // No action at all.
    let out = repro(&["verify"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(!out.stderr.is_empty());

    // Unknown action.
    let out = repro(&["verify", "bogus"]);
    assert_eq!(out.status.code(), Some(2));

    // Unknown benchmark / machine are usage errors, not findings.
    let out = repro(&["verify", "image", "--bench", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown benchmark"), "{err}");
    let out = repro(&["verify", "image", "--machine", "bogus"]);
    assert_eq!(out.status.code(), Some(2));

    // Unreadable snapshot path.
    let out = repro(&["verify", "snapshot", "/nonexistent/cobra-snapshots"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("does not exist"), "{err}");
    assert_eq!(err.lines().count(), 1, "one-line error: {err}");

    // The same convention on the figure commands' flag values: a worker
    // count no trial runner can use is refused before anything runs.
    let out = repro(&["static", "--workers", "0"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--workers must be at least 1"), "{err}");
    assert_eq!(err.lines().count(), 1, "one-line error: {err}");
}

#[test]
fn clean_kernel_image_exits_0() {
    let out = repro(&["verify", "image", "--bench", "cg"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("cg: ok"), "{text}");
}

#[test]
fn snapshot_verification_failure_exits_1() {
    let dir = tmp_dir();
    let file = dir.join("a.jsonl");
    write_snapshot_file(&file, &snap()).unwrap();

    // Clean snapshot: exit 0.
    let out = repro(&["verify", "snapshot", file.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Damage it: distinct exit 1 (verification failure, not a usage error).
    let mut bytes = std::fs::read(&file).unwrap();
    bytes.extend_from_slice(b"{\"crc\":1,\"body\":{}}\n");
    std::fs::write(&file, bytes).unwrap();
    let out = repro(&["verify", "snapshot", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("violation"), "{err}");
}
