//! A complete record: every workload in a child process of its own,
//! untraced for the end-to-end metrics and then traced for the per-layer
//! ones, joined with the paper's shape checks into `results/latest.json`.

use std::path::{Path, PathBuf};
use std::process::Command;

use cobra_harness::npbsuite::{self, SuiteData};
use cobra_harness::{fig3, table1};
use cobra_machine::MachineConfig;

use crate::metrics;
use crate::record::{Checks, Record, Run, WorkloadRecord, SCHEMA};
use crate::sim::pinned_accel;

/// Tracing may cost at most this share of a traced run's timed sections
/// before the per-layer numbers stop describing the untraced system.
pub const MAX_TRACE_OVERHEAD_PCT: f64 = 2.0;

pub struct FullOpts {
    pub seed: u64,
    pub seconds: u64,
    pub scratch: PathBuf,
    /// Directory the record is written to, as `latest.json`.
    pub out: PathBuf,
    pub pinned_cpu: Option<u64>,
    /// CPUs the process could use before it pinned itself.
    pub nproc: u64,
}

/// Run one workload in a child process and read back the record it wrote.
fn child(opts: &FullOpts, workload: &str, traced: bool, seed: u64) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let record = opts.scratch.join(format!(
        "{workload}.{}.json",
        if traced { "traced" } else { "untraced" }
    ));
    let status = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--scratch")
        .arg(&opts.scratch)
        .arg("--record")
        .arg(&record)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    if !status.success() {
        return Err(format!("the {workload} run ended with {status}"));
    }
    let text = std::fs::read_to_string(&record)
        .map_err(|e| format!("cannot read {}: {e}", record.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", record.display()))
}

/// The paper's 18 shape checks. The timed lists are cut for steadiness
/// (four or five kernels, one DAXPY run per cell), so the figures' own
/// grids are measured here, once, through the harness and untimed: the six
/// kernels under four arms on both machines, Fig. 3 differenced against its
/// warm-up run, and Table 1's static counts.
fn shape_checks() -> Checks {
    let suite = |cfg: MachineConfig, threads: usize| -> SuiteData {
        npbsuite::measure(&pinned_accel(cfg), threads, 1, None, None, false)
    };
    let mut all = fig3::measure(fig3::DEFAULT_REPS, 1).shape_checks();
    all.extend(table1::shape_checks(&table1::measure()));
    all.extend(npbsuite::shape_checks(
        &suite(MachineConfig::smp4(), 4),
        &suite(MachineConfig::altix8(), 8),
    ));
    let passed = all.iter().filter(|(_, ok)| *ok).count();
    Checks {
        shape_checks: format!("{passed}/{}", all.len()),
        lines: all
            .into_iter()
            .map(|(claim, ok)| format!("[{}] {claim}", if ok { "ok" } else { "MISS" }))
            .collect(),
    }
}

fn command_line(program: &str, args: &[&str], cwd: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Run everything and write the record. `Ok(false)` means the record was
/// written but does not stand: outputs wrong, a shape check missed, or
/// tracing cost more than its allowance.
pub fn full(opts: &FullOpts) -> Result<bool, String> {
    std::fs::create_dir_all(&opts.scratch)
        .map_err(|e| format!("cannot create {}: {e}", opts.scratch.display()))?;
    let loadavg_start = std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());

    let mut untraced = Vec::new();
    for w in metrics::WORKLOADS {
        eprintln!("== {w}: untraced");
        untraced.push(child(opts, w, false, opts.seed)?);
    }
    let mut traced = Vec::new();
    for w in metrics::WORKLOADS {
        eprintln!("== {w}: traced");
        traced.push(child(opts, w, true, opts.seed)?);
    }

    let mut stands = true;
    let mut workloads = Vec::new();
    for (u, t) in untraced.iter().zip(&traced) {
        if t.trace_overhead_pct > MAX_TRACE_OVERHEAD_PCT {
            stands = false;
            eprintln!(
                "{}: tracing cost {:.2} % of the timed sections, over the {MAX_TRACE_OVERHEAD_PCT} % allowance",
                u.workload, t.trace_overhead_pct
            );
        }
        if u.sim_digest != t.sim_digest {
            stands = false;
            eprintln!("{}: traced and untraced sim_digest differ", u.workload);
        }
        stands &= u.correct && t.correct;
        workloads.push(WorkloadRecord {
            name: u.workload.clone(),
            passes: u.passes,
            correct: u.correct && t.correct,
            attempted: u.attempted,
            failed: u.failed + t.failed,
            sim_digest: u.sim_digest.clone(),
            host_slowdown: u.host_slowdown,
            trace_overhead_pct: t.trace_overhead_pct,
            traced_wall_delta_pct: 100.0 * (t.wall_s - u.wall_s) / u.wall_s,
            end_to_end: u.metrics.clone(),
            per_layer: t.metrics.clone(),
        });
    }

    eprintln!("== the paper's shape checks");
    let checks = shape_checks();
    let all_pass = checks
        .shape_checks
        .split_once('/')
        .is_some_and(|(p, n)| p == n);
    stands &= all_pass;

    let record = Record {
        schema: SCHEMA.into(),
        commit: command_line("git", &["rev-parse", "HEAD"], &opts.out),
        rustc: command_line("rustc", &["--version"], &opts.out),
        nproc: opts.nproc,
        pinned_cpu: opts.pinned_cpu,
        comparable: opts.pinned_cpu.is_some(),
        loadavg_start,
        seed: opts.seed,
        seconds: opts.seconds,
        workloads,
        checks,
    };
    let path = opts.out.join("latest.json");
    std::fs::write(&path, record.to_json()? + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    print_summary(&record, &path);
    Ok(stands)
}

fn print_summary(r: &Record, path: &Path) {
    println!(
        "commit {}  {}  nproc {}  pinned to cpu {}  load {}  seed {}",
        r.commit,
        r.rustc,
        r.nproc,
        r.pinned_cpu
            .map_or("NONE (not comparable)".into(), |c| c.to_string()),
        r.loadavg_start,
        r.seed,
    );
    for w in &r.workloads {
        println!(
            "\n{}  ({} passes, {} of {} operations failed, sim_digest {}, host slowdown {:.3}, tracing cost {:.3} %, traced wall_s {:+.1} % of untraced)",
            w.name,
            w.passes,
            w.failed,
            w.attempted,
            w.sim_digest,
            w.host_slowdown,
            w.trace_overhead_pct,
            w.traced_wall_delta_pct
        );
        for m in w.end_to_end.iter().chain(&w.per_layer) {
            if m.samples > 0 {
                println!(
                    "  {:<44} {:>16.4} {:<7} [{:.4} .. {:.4}] n={}",
                    m.name, m.value, m.unit, m.min, m.max, m.samples
                );
            }
        }
    }
    println!("\nchecks.shape_checks = {}", r.checks.shape_checks);
    for line in &r.checks.lines {
        println!("  {line}");
    }
    println!("\nrecord written to {}", path.display());
}

/// The steadiness check a benchmark must pass before its numbers are used:
/// `runs` untraced runs of each workload, each with another seed, and for
/// every end-to-end metric the distance between the first and third
/// quartile of those runs as a share of their median. `Ok(false)` when any
/// spread, set-up time aside, exceeds a third of the metric's bound.
pub fn spread(opts: &FullOpts, runs: u64, bounds: &[(String, f64)]) -> Result<bool, String> {
    if runs < 2 {
        return Err("--spread needs at least two runs".into());
    }
    std::fs::create_dir_all(&opts.scratch)
        .map_err(|e| format!("cannot create {}: {e}", opts.scratch.display()))?;
    let mut steady = true;
    println!(
        "{:<18} {:<12} {:>14} {:>14} {:>14} {:>8} {:>8}",
        "workload", "metric", "q1", "median", "q3", "spread", "bound/3"
    );
    for w in metrics::WORKLOADS {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); metrics::END_TO_END.len()];
        for seed in opts.seed..opts.seed + runs {
            let run = child(opts, w, false, seed)?;
            if !run.correct {
                return Err(format!("{w} seed {seed}: outputs wrong: {:?}", run.error));
            }
            for (slot, m) in samples.iter_mut().zip(&run.metrics) {
                slot.push(m.value);
            }
        }
        for (def, values) in metrics::END_TO_END.iter().zip(&samples) {
            let [q1, q2, q3] = crate::stats::quartiles(values);
            let spread = crate::stats::spread(values);
            let third = bounds
                .iter()
                .find(|(n, _)| n == def.0)
                .map_or(0.0, |(_, b)| b / 3.0);
            let ok = def.0 == "setup_s" || spread <= third;
            steady &= ok;
            println!(
                "{:<18} {:<12} {:>14.4} {:>14.4} {:>14.4} {:>7.2}% {:>7.2}%{}",
                w,
                def.0,
                q1,
                q2,
                q3,
                100.0 * spread,
                100.0 * third,
                if ok { "" } else { "  UNSTEADY" }
            );
        }
    }
    Ok(steady)
}
