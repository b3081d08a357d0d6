//! `cobra-repro verify` — offline lint front-end for the `cobra-verify`
//! subsystem:
//!
//! * `verify image` runs the whole-image invariants (every reachable word
//!   decodes, branch targets in bounds, no fall-through past the end) over
//!   NPB kernel images as the machine would load them;
//! * `verify snapshot` lints a `cobra-store` snapshot file or directory:
//!   damaged records, load errors, and nonsensical decision CPIs are
//!   violations.
//!
//! Both return a [`VerifyOutcome`] the CLI maps to exit codes: unreadable
//! paths / bad arguments are exit 2, verification findings are exit 1.

use std::path::Path;

use cobra_kernels::minicc::PrefetchPolicy;
use cobra_kernels::npb::{self, Benchmark};
use cobra_machine::MachineConfig;
use cobra_store::read_snapshot_file;

use crate::profilecmd::{bench_by_name, snapshot_files};

/// Lint result: a human report plus the violation count (exit 1 when > 0).
#[derive(Debug)]
pub(crate) struct VerifyOutcome {
    pub text: String,
    pub violations: usize,
}

/// `verify image`: whole-image invariants over one benchmark (or the whole
/// suite when `bench` is `None`) as built for `machine_cfg`.
pub(crate) fn image(
    bench: Option<&str>,
    machine_cfg: &MachineConfig,
) -> Result<VerifyOutcome, String> {
    let benches: Vec<Benchmark> = match bench {
        Some(name) => vec![bench_by_name(name, &Benchmark::ALL)?],
        None => Benchmark::ALL.to_vec(),
    };
    let mut text = String::new();
    let mut violations = 0;
    for b in benches {
        let workload = npb::build(b, &PrefetchPolicy::aggressive(), machine_cfg.mem_bytes);
        let img = workload.image();
        match cobra_verify::check_image(img) {
            Ok(()) => text.push_str(&format!(
                "{}/{}: ok ({} slots, {} lfetch)\n",
                machine_cfg.name,
                b.name(),
                img.len(),
                img.count_matching(|i| i.is_lfetch()),
            )),
            Err(e) => {
                violations += e.violations.len();
                text.push_str(&format!("{}/{}: FAIL {e}\n", machine_cfg.name, b.name()));
            }
        }
    }
    Ok(VerifyOutcome { text, violations })
}

/// `verify snapshot`: structural lint of a snapshot file or every `*.jsonl`
/// in a directory. Unlike `profile inspect` (which tolerates damage and
/// summarizes), every defect here counts as a violation.
pub(crate) fn snapshot(path: &Path) -> Result<VerifyOutcome, String> {
    let mut text = String::new();
    let mut violations = 0;
    for file in snapshot_files(path)? {
        let lr = read_snapshot_file(&file, None);
        let mut defects: Vec<String> = Vec::new();
        if let Some(err) = &lr.error {
            defects.push(err.clone());
        }
        if lr.skipped_records > 0 {
            defects.push(format!("{} damaged record(s)", lr.skipped_records));
        }
        if let Some(snap) = &lr.snapshot {
            for d in &snap.decisions {
                let bad_cpi = |c: f64| !c.is_finite() || c < 0.0;
                // post_cpi is optional (None before the first post-deploy
                // window closes); only a present value can be invalid.
                if bad_cpi(d.baseline_cpi) || d.post_cpi.is_some_and(bad_cpi) {
                    defects.push(format!(
                        "decision at loop {} has invalid CPI ({}, {:?})",
                        d.loop_head, d.baseline_cpi, d.post_cpi
                    ));
                }
            }
        } else if lr.error.is_none() {
            defects.push("no valid records".into());
        }
        if defects.is_empty() {
            let snap = lr
                .snapshot
                .as_ref()
                .expect("defect-free load has a snapshot");
            text.push_str(&format!("{}: ok — {}\n", file.display(), snap.summary()));
        } else {
            violations += defects.len();
            text.push_str(&format!("{}: FAIL\n", file.display()));
            for d in &defects {
                text.push_str(&format!("  {d}\n"));
            }
        }
    }
    Ok(VerifyOutcome { text, violations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_store::{write_snapshot_file, DecisionRecord, Snapshot, StoreKey};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir() -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "cobra-verifycmd-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
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
    fn verify_image_accepts_every_npb_kernel() {
        for cfg in [MachineConfig::smp4(), MachineConfig::altix8()] {
            let out = image(None, &cfg).unwrap();
            assert_eq!(out.violations, 0, "{}", out.text);
        }
    }

    #[test]
    fn verify_image_resolves_benchmarks_by_name() {
        let out = image(Some("CG"), &MachineConfig::smp4()).unwrap();
        assert_eq!(out.violations, 0);
        assert!(out.text.contains("cg"), "{}", out.text);
        let err = image(Some("bogus"), &MachineConfig::smp4()).unwrap_err();
        assert!(err.contains("unknown benchmark"), "{err}");
    }

    #[test]
    fn verify_snapshot_passes_clean_and_flags_damage() {
        let dir = tmp_dir();
        let file = dir.join("a.jsonl");
        write_snapshot_file(&file, &snap()).unwrap();
        let out = snapshot(&file).unwrap();
        assert_eq!(out.violations, 0, "{}", out.text);
        assert!(out.text.contains("ok"), "{}", out.text);

        // Append a garbage line: damaged record → violation.
        let mut bytes = std::fs::read(&file).unwrap();
        bytes.extend_from_slice(b"{\"crc\":1,\"body\":{}}\n");
        std::fs::write(&file, bytes).unwrap();
        let out = snapshot(&file).unwrap();
        assert!(out.violations > 0, "{}", out.text);
        assert!(out.text.contains("FAIL"), "{}", out.text);
    }

    #[test]
    fn verify_snapshot_flags_invalid_cpi() {
        let dir = tmp_dir();
        let file = dir.join("a.jsonl");
        let mut s = snap();
        // Negative is the invalid value that survives JSON (NaN serializes
        // as null, which loads back as a legitimate None).
        s.decisions[0].post_cpi = Some(-1.0);
        write_snapshot_file(&file, &s).unwrap();
        let out = snapshot(&file).unwrap();
        assert!(out.violations > 0, "{}", out.text);
        assert!(out.text.contains("invalid CPI"), "{}", out.text);
    }

    #[test]
    fn verify_snapshot_propagates_path_errors() {
        let dir = tmp_dir();
        assert!(snapshot(&dir.join("nope"))
            .unwrap_err()
            .contains("does not exist"));
    }
}
