//! `cobra-repro profile` — manage `cobra-store` snapshot repositories from
//! the command line:
//!
//! * `profile save` runs one coherent NPB benchmark under adaptive COBRA
//!   against a store directory, leaving a warm-startable snapshot behind;
//! * `profile inspect` summarizes one snapshot file or every snapshot in a
//!   directory (damage is reported, never fatal);
//! * `profile merge` folds several same-key snapshot files into one.

use std::path::{Path, PathBuf};

use cobra_machine::MachineConfig;
use cobra_store::{merge_unordered, read_snapshot_file, write_snapshot_file, Snapshot};

use crate::npbsuite::{self, Arm};

/// Resolve a benchmark by name among the coherent suite.
fn bench_by_name(name: &str) -> Result<cobra_kernels::npb::Benchmark, String> {
    cobra_kernels::npb::Benchmark::COHERENT
        .iter()
        .copied()
        .find(|b| b.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let known: Vec<&str> = cobra_kernels::npb::Benchmark::COHERENT
                .iter()
                .map(|b| b.name())
                .collect();
            format!(
                "unknown benchmark {name}; expected one of {}",
                known.join("|")
            )
        })
}

/// `profile save`: one adaptive run of `bench` against `dir`, so the next
/// run (or `--store` figure sweep) warm-starts. Returns a human summary.
pub fn save(
    bench: &str,
    machine_cfg: &MachineConfig,
    threads: usize,
    dir: &Path,
) -> Result<String, String> {
    let bench = bench_by_name(bench)?;
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let result = npbsuite::run_arm(
        bench,
        Arm::Adaptive,
        machine_cfg,
        threads,
        None,
        Some(dir),
        false,
    );
    let report = result.cobra.as_ref().expect("adaptive arm runs COBRA");
    if report.store_errors > 0 && report.store_saved_records == 0 {
        return Err(format!(
            "run completed but the snapshot was not saved ({} store error(s))",
            report.store_errors
        ));
    }
    Ok(format!(
        "{} on {} ({} threads): {}\n{} — saved {} record(s){}",
        bench.name(),
        machine_cfg.name,
        threads,
        report.summary(),
        if report.warm_started {
            "warm-started from prior snapshot"
        } else {
            "cold start"
        },
        report.store_saved_records,
        if report.store_skipped_records > 0 {
            format!(
                " ({} damaged record(s) skipped)",
                report.store_skipped_records
            )
        } else {
            String::new()
        },
    ))
}

/// Snapshot files under `path`: itself if a file, else every `*.jsonl`
/// directly inside it, sorted for deterministic output. Shared with
/// `cobra-repro verify snapshot`.
pub(crate) fn snapshot_files(path: &Path) -> Result<Vec<PathBuf>, String> {
    if path.is_file() {
        return Ok(vec![path.to_path_buf()]);
    }
    if !path.is_dir() {
        return Err(format!("{} does not exist", path.display()));
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_file() && p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no snapshot files (*.jsonl) in {}", path.display()));
    }
    Ok(files)
}

/// `profile inspect`: one line per snapshot (plus damage notes).
pub fn inspect(path: &Path) -> Result<String, String> {
    let mut out = String::new();
    for file in snapshot_files(path)? {
        let lr = read_snapshot_file(&file, None);
        out.push_str(&format!("{}:\n", file.display()));
        match &lr.snapshot {
            Some(snap) => {
                out.push_str(&format!("  {}\n", snap.summary()));
                // The summary only counts tournament winners; list what was
                // actually promoted per loop head so a warm-start seed can
                // be audited without a JSON tool.
                for w in &snap.winners {
                    out.push_str(&format!(
                        "  winner @ loop {}: {} ({}), {} trial(s)\n",
                        w.loop_head,
                        w.candidate,
                        w.kind,
                        w.trials.len()
                    ));
                }
            }
            None => out.push_str(&format!(
                "  rejected: {}\n",
                lr.error.as_deref().unwrap_or("no valid records")
            )),
        }
        if lr.skipped_records > 0 {
            out.push_str(&format!(
                "  {} damaged record(s) skipped\n",
                lr.skipped_records
            ));
        }
    }
    Ok(out)
}

/// `profile merge`: fold same-key snapshot files into `out` — the fold a
/// store directory and a fleet server apply, so the inputs' order does not
/// matter and the file is the one either would hold for the same runs.
/// Each input may be a file or a directory (expanded to every `*.jsonl`
/// directly inside). With `max_age_runs`, decisions/winners that went
/// that many runs without being re-confirmed are aged out of the result.
pub fn merge(inputs: &[PathBuf], out: &Path, max_age_runs: Option<u64>) -> Result<String, String> {
    if max_age_runs == Some(0) {
        return Err("--max-age-runs must be at least 1".into());
    }
    let mut files: Vec<PathBuf> = Vec::new();
    for input in inputs {
        files.extend(snapshot_files(input)?);
    }
    if files.len() < 2 && max_age_runs.is_none() {
        return Err("merge needs at least two input snapshot files".into());
    }
    if files.is_empty() {
        return Err("merge needs at least one input snapshot file".into());
    }
    let mut snaps: Vec<Snapshot> = Vec::with_capacity(files.len());
    for file in &files {
        let lr = read_snapshot_file(file, None);
        match lr.snapshot {
            Some(s) => {
                if lr.skipped_records > 0 {
                    eprintln!(
                        "warning: {} damaged record(s) skipped in {}",
                        lr.skipped_records,
                        file.display()
                    );
                }
                snaps.push(s);
            }
            None => {
                return Err(format!(
                    "{}: {}",
                    file.display(),
                    lr.error.unwrap_or_else(|| "no valid records".into())
                ))
            }
        }
    }
    let merged = merge_unordered(&snaps)?;
    let (merged, aged) = match max_age_runs {
        Some(n) => {
            let (kept, decisions, winners) = merged.age_filtered(n);
            (kept, Some((decisions, winners)))
        }
        None => (merged, None),
    };
    write_snapshot_file(out, &merged)?;
    let mut msg = format!(
        "merged {} snapshot(s) into {}\n  {}\n",
        snaps.len(),
        out.display(),
        merged.summary()
    );
    if let Some((decisions, winners)) = aged {
        msg.push_str(&format!(
            "  aged out {decisions} decision(s), {winners} winner(s)\n"
        ));
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_store::{DecisionRecord, StoreKey};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir() -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "cobra-profilecmd-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn snap(runs: u64) -> Snapshot {
        let mut s = Snapshot::empty(StoreKey {
            image_hash: 0xaaaa,
            machine_fp: 0xbbbb,
        });
        s.runs = runs;
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
    fn bench_lookup_is_case_insensitive_and_rejects_unknown() {
        assert!(bench_by_name("bt").is_ok());
        assert!(bench_by_name("BT").is_ok());
        let err = bench_by_name("ep").unwrap_err();
        assert!(err.contains("unknown benchmark"), "{err}");
    }

    #[test]
    fn inspect_reports_missing_and_empty_paths() {
        let dir = tmp_dir();
        assert!(inspect(&dir.join("nope"))
            .unwrap_err()
            .contains("does not exist"));
        assert!(inspect(&dir).unwrap_err().contains("no snapshot files"));
    }

    #[test]
    fn inspect_summarizes_files_and_directories() {
        let dir = tmp_dir();
        let file = dir.join("a.jsonl");
        write_snapshot_file(&file, &snap(2)).unwrap();
        let by_file = inspect(&file).unwrap();
        assert!(by_file.contains("2 run(s)"), "{by_file}");
        let by_dir = inspect(&dir).unwrap();
        assert!(by_dir.contains("a.jsonl"), "{by_dir}");
    }

    #[test]
    fn inspect_lists_stored_tournament_winners_per_loop_head() {
        let dir = tmp_dir();
        let mut s = snap(1);
        s.winners.push(cobra_store::WinnerRecord {
            loop_head: 40,
            candidate: "combined.split".into(),
            kind: "combined".into(),
            trials: vec![
                ("noprefetch.all".into(), 1.3),
                ("combined.split".into(), 1.1),
            ],
        });
        s.winners.push(cobra_store::WinnerRecord {
            loop_head: 96,
            candidate: "excl.all".into(),
            kind: "prefetch.excl".into(),
            trials: vec![],
        });
        let file = dir.join("winners.jsonl");
        write_snapshot_file(&file, &s).unwrap();
        let out = inspect(&file).unwrap();
        assert!(out.contains("2 tournament winner(s)"), "{out}");
        assert!(
            out.contains("winner @ loop 40: combined.split (combined), 2 trial(s)"),
            "{out}"
        );
        assert!(
            out.contains("winner @ loop 96: excl.all (prefetch.excl), 0 trial(s)"),
            "{out}"
        );
    }

    #[test]
    fn merge_sums_runs_and_rejects_damage() {
        let dir = tmp_dir();
        let a = dir.join("a.jsonl");
        let b = dir.join("b.jsonl");
        write_snapshot_file(&a, &snap(1)).unwrap();
        write_snapshot_file(&b, &snap(3)).unwrap();
        let out = dir.join("merged.jsonl");
        let msg = merge(&[a.clone(), b.clone()], &out, None).unwrap();
        assert!(msg.contains("4 run(s)"), "{msg}");
        let lr = read_snapshot_file(&out, None);
        assert_eq!(lr.snapshot.unwrap().runs, 4);

        std::fs::write(&b, "not a snapshot").unwrap();
        assert!(merge(&[a, b], &out, None).is_err());
        assert!(
            merge(std::slice::from_ref(&out), &dir.join("x.jsonl"), None).is_err(),
            "single input rejected"
        );
    }

    #[test]
    fn merge_accepts_directories_deterministically() {
        let dir = tmp_dir();
        write_snapshot_file(&dir.join("b.jsonl"), &snap(3)).unwrap();
        write_snapshot_file(&dir.join("a.jsonl"), &snap(1)).unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let out =
            std::env::temp_dir().join(format!("cobra-merge-dir-{}.jsonl", std::process::id()));
        let msg = merge(std::slice::from_ref(&dir), &out, None).unwrap();
        assert!(msg.contains("merged 2 snapshot(s)"), "{msg}");
        let first = std::fs::read(&out).unwrap();
        merge(std::slice::from_ref(&dir), &out, None).unwrap();
        assert_eq!(
            std::fs::read(&out).unwrap(),
            first,
            "directory expansion is path-sorted, so re-merging is byte-identical"
        );
    }

    #[test]
    fn merge_aging_policy_drops_stale_records_and_rejects_zero() {
        let dir = tmp_dir();
        // One old run confirmed head 40; five later runs did not.
        let a = dir.join("a.jsonl");
        write_snapshot_file(&a, &snap(1)).unwrap();
        let mut quiet = Snapshot::empty(StoreKey {
            image_hash: 0xaaaa,
            machine_fp: 0xbbbb,
        });
        quiet.runs = 5;
        let b = dir.join("b.jsonl");
        write_snapshot_file(&b, &quiet).unwrap();

        let out = dir.join("aged.jsonl");
        let msg = merge(&[a.clone(), b.clone()], &out, Some(3)).unwrap();
        assert!(msg.contains("aged out 1 decision(s)"), "{msg}");
        let merged = read_snapshot_file(&out, None).snapshot.unwrap();
        assert!(merged.decisions.is_empty(), "stale decision dropped");
        assert_eq!(merged.runs, 6);

        // A generous horizon keeps it; zero is rejected outright.
        let msg = merge(&[a.clone(), b], &out, Some(100)).unwrap();
        assert!(msg.contains("aged out 0 decision(s)"), "{msg}");
        let err = merge(std::slice::from_ref(&a), &out, Some(0)).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");

        // With a policy, even a single input is meaningful (pure aging).
        assert!(merge(std::slice::from_ref(&a), &out, Some(2)).is_ok());
    }
}
