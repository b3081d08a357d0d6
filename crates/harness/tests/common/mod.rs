//! What the CLI tests share: `cobra-repro` called in-process through its
//! one front door, and scratch directories.
#![allow(dead_code)] // each test binary uses its own part of this

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use cobra_harness::cli;
use cobra_store::{DecisionRecord, Snapshot, StoreKey};

/// What one `cobra-repro ARGS...` did: the exit status `main` would set,
/// everything it wrote to stdout, and the error line it would print.
pub struct Outcome {
    pub code: i32,
    pub stdout: String,
    pub stderr: String,
}

pub fn repro(args: &[&str]) -> Outcome {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    let mut stdout = Vec::new();
    let result = cli::invoke(&args, &mut stdout);
    Outcome {
        code: result.as_ref().map_or_else(cli::Failure::exit_code, |()| 0),
        stdout: String::from_utf8(stdout).expect("cobra-repro prints UTF-8"),
        stderr: result.map_or_else(|failure| failure.to_string(), |()| String::new()),
    }
}

/// `repro`, for a command that must succeed: its stdout.
pub fn repro_ok(args: &[&str]) -> String {
    let out = repro(args);
    assert_eq!(out.code, 0, "cobra-repro {args:?}: {}", out.stderr);
    out.stdout
}

pub fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "cobra-cli-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    // Process ids come round again: a directory an earlier run left under
    // the same name must not hand this one its files.
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

pub fn snap() -> Snapshot {
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
