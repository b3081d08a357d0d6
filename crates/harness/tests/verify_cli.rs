//! Exit-code contract of `cobra-repro verify` (the PR-4 CLI convention):
//! bad arguments and unreadable paths are a one-line error + exit 2;
//! verification findings are exit 1; a clean lint is exit 0. Called
//! in-process through `cli::invoke`, which is all `main` does.

mod common;

use std::io::Write;

use cobra_store::write_snapshot_file;
use common::{repro, repro_ok, snap, tmp_dir};

#[test]
fn bad_arguments_exit_2_with_one_line_error() {
    // No action at all.
    let out = repro(&["verify"]);
    assert_eq!(out.code, 2);
    assert!(!out.stderr.is_empty());

    // Unknown action.
    assert_eq!(repro(&["verify", "bogus"]).code, 2);

    // Unknown benchmark / machine are usage errors, not findings.
    let out = repro(&["verify", "image", "--bench", "bogus"]);
    assert_eq!(out.code, 2);
    assert!(out.stderr.contains("unknown benchmark"), "{}", out.stderr);
    assert_eq!(repro(&["verify", "image", "--machine", "bogus"]).code, 2);

    // Unreadable snapshot path.
    let out = repro(&["verify", "snapshot", "/nonexistent/cobra-snapshots"]);
    assert_eq!(out.code, 2);
    assert!(out.stderr.contains("does not exist"), "{}", out.stderr);
    assert_eq!(out.stderr.lines().count(), 1, "one line: {}", out.stderr);

    // The same convention on the figure commands' flag values: a worker
    // count no trial runner can use is refused before anything runs.
    let out = repro(&["static", "--workers", "0"]);
    assert_eq!(out.code, 2);
    assert!(
        out.stderr.contains("--workers must be at least 1"),
        "{}",
        out.stderr
    );
    assert_eq!(out.stderr.lines().count(), 1, "one line: {}", out.stderr);
}

#[test]
fn clean_kernel_image_exits_0() {
    let text = repro_ok(&["verify", "image", "--bench", "cg"]);
    assert!(text.contains("cg: ok"), "{text}");
}

#[test]
fn snapshot_verification_failure_exits_1() {
    let dir = tmp_dir("verify");
    let file = dir.join("a.jsonl");
    write_snapshot_file(&file, &snap()).unwrap();

    // Clean snapshot: exit 0.
    repro_ok(&["verify", "snapshot", file.to_str().unwrap()]);

    // Damage it: distinct exit 1 (verification failure, not a usage error).
    let mut bytes = std::fs::read(&file).unwrap();
    bytes.extend_from_slice(b"{\"crc\":1,\"body\":{}}\n");
    std::fs::write(&file, bytes).unwrap();
    let out = repro(&["verify", "snapshot", file.to_str().unwrap()]);
    assert_eq!(out.code, 1);
    assert!(out.stderr.contains("violation"), "{}", out.stderr);
}

/// The patch-safety gate's lint: every NPB kernel image on both machines is
/// clean, and so is the snapshot a real run just saved — until a line of
/// it is damaged, which is a finding (exit 1), not a usage error.
#[test]
fn every_kernel_image_and_a_fresh_snapshot_lint_clean() {
    for machine in ["smp4", "altix8"] {
        let text = repro_ok(&["verify", "image", "--machine", machine]);
        assert_eq!(text.lines().count(), 8, "one line per NPB kernel: {text}");
        assert!(text.lines().all(|l| l.contains(": ok")), "{text}");
    }

    let store = tmp_dir("verify-gate");
    repro_ok(&[
        "profile",
        "save",
        "--store",
        store.to_str().unwrap(),
        "--bench",
        "cg",
    ]);
    let saved = store.join("adaptive");
    let text = repro_ok(&["verify", "snapshot", saved.to_str().unwrap()]);
    assert!(text.contains(": ok"), "{text}");

    for entry in std::fs::read_dir(&saved).unwrap() {
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(entry.unwrap().path())
            .unwrap();
        file.write_all(b"{\"crc\":1,\"body\":{}}\n").unwrap();
    }
    let out = repro(&["verify", "snapshot", saved.to_str().unwrap()]);
    assert_eq!(out.code, 1, "{}", out.stderr);
    assert!(out.stdout.contains("FAIL"), "{}", out.stdout);
}
