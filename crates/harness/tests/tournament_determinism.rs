//! The `tournament-determinism` gate: two whole-grid properties of
//! `fig5 --candidates`, `#[ignore]`d because they are only quick in release
//! and run by target name, like `decisions_pinned`:
//!
//! ```text
//! cargo test --release -p cobra-harness --test tournament_determinism -- --ignored
//! ```

mod common;

use std::collections::BTreeMap;

use cobra_harness::npbsuite::{Arm, SuiteData};
use common::{repro_ok, tmp_dir};

/// Candidate selection must not depend on host parallelism, and neither
/// must the trace: every arm records into a sink of its own and the arms
/// are written in grid order, so the file is the same bytes however many
/// workers ran them. The baseline and the two fixed-strategy arms are cells
/// of the same grid, so this also holds `parallel_map` to its one-worker
/// output on them. A traced run is charged for its records, so its text is
/// not the untraced text: both are compared.
#[test]
#[ignore = "four fig5 grids: run in release, by target"]
fn fig5_candidates_text_and_trace_are_the_same_for_one_worker_and_four() {
    let untraced = |workers| repro_ok(&["fig5", "--candidates", "--workers", workers]);
    let (one, four) = (untraced("1"), untraced("4"));
    assert!(one == four, "--workers 1:\n{one}\n--workers 4:\n{four}");

    let dir = tmp_dir("trace");
    let run = |workers: &str| {
        let file = dir.join(format!("w{workers}.jsonl"));
        let file = file.to_str().unwrap();
        let text = repro_ok(&[
            "fig5",
            "--candidates",
            "--workers",
            workers,
            "--trace-out",
            file,
        ]);
        (
            text,
            std::fs::read(file).unwrap(),
            repro_ok(&["trace", file]),
        )
    };
    let ((text1, trace1, shown), (text4, trace4, _)) = (run("1"), run("4"));
    assert!(
        text1 == text4,
        "traced, --workers 1:\n{text1}\n--workers 4:\n{text4}"
    );
    assert!(trace1 == trace4, "the trace file depends on --workers");
    // `trace` prints one report per run: six kernels under three COBRA arms
    // (the baseline arm attaches nothing).
    let runs: Vec<&str> = (shown.lines().filter(|l| l.starts_with("run "))).collect();
    assert_eq!(runs.len(), 18, "{runs:#?}");
    assert!(runs[17].starts_with("run 17: Attach {"), "{}", runs[17]);
    assert!(
        runs[17].contains("strategy: Adaptive, candidates: true"),
        "{}",
        runs[17]
    );
}

/// Per benchmark, the adaptive arm's active tournament winners (loop head
/// and candidate name of every applied, never reverted, candidate plan).
fn winners(suite: &SuiteData) -> BTreeMap<String, Vec<(u32, String)>> {
    let per_bench = suite.results.iter().map(|r| {
        let report = r.arm(Arm::Adaptive).cobra.as_ref().expect("COBRA arm");
        let mut active: Vec<(u32, String)> = report
            .applied
            .iter()
            .filter(|a| !report.reverted.iter().any(|rv| rv.plan_id == a.plan_id))
            .filter_map(|a| Some((a.loop_head, a.candidate.clone()?)))
            .collect();
        active.sort();
        (r.bench.clone(), active)
    });
    per_bench.collect()
}

fn trials(suite: &SuiteData) -> u64 {
    let reports = suite.results.iter().map(|r| &r.arm(Arm::Adaptive).cobra);
    reports.flatten().map(|c| c.candidates_trialed).sum()
}

/// A cold tournament run, then two warm runs over the same store. Every
/// cold-run winner is resumed by the warm run (a subset: warm seeding can
/// shift the profile timeline and surface a new hot loop, which
/// legitimately gets its own tournament), and by the second warm run the
/// winner set is a fixed point reached with zero trials.
#[test]
#[ignore = "three fig5 grids: run in release, by target"]
fn fig5_candidates_cold_winners_are_resumed_warm_with_no_trials() {
    let store = tmp_dir("tournament");
    let run = || -> SuiteData {
        let json = repro_ok(&[
            "fig5",
            "--candidates",
            "--json",
            "--store",
            store.to_str().unwrap(),
        ]);
        serde_json::from_str(&json).expect("fig5 --json prints a SuiteData")
    };
    let (cold, warm, warm2) = (run(), run(), run());

    let (cold_winners, warm_winners) = (winners(&cold), winners(&warm));
    assert!(
        cold_winners.values().any(|won| !won.is_empty()),
        "the cold run promoted no winner at all: {cold_winners:?}"
    );
    for (bench, won) in &cold_winners {
        let resumed = &warm_winners[bench];
        assert!(
            won.iter().all(|w| resumed.contains(w)),
            "{bench}: cold winners {won:?} not all among warm winners {resumed:?}"
        );
    }
    assert_eq!(
        warm_winners,
        winners(&warm2),
        "warm winner set is a fixed point"
    );

    let (cold, warm, warm2) = (trials(&cold), trials(&warm), trials(&warm2));
    assert!(cold > 0 && warm < cold, "trials cold {cold}, warm {warm}");
    assert_eq!(warm2, 0, "second warm run trials nothing");
}
