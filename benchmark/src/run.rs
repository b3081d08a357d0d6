//! One run of one workload: passes until the measuring time is used, then
//! (traced runs) the probes, then the record.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::metrics::{self, Def};
use crate::record::{Metric, Run};
use crate::scenario::Scenario;
use crate::sim::CellTime;
use crate::span::Tracer;
use crate::workloads::{
    adapt_fine::AdaptFine, compute_dense::ComputeDense, daxpy_sweep::DaxpySweep,
    fleet_mixed::FleetMixed, npb_fixed::NpbFixed,
};

/// Passes a run makes even when the second does not fit the time budget,
/// unless the first alone used all of it.
const MIN_PASSES: usize = 2;

pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Where temporary stores and the trace file go.
    pub scratch: PathBuf,
    pub pinned_cpu: Option<u64>,
}

fn scenario(opts: &RunOpts) -> Result<Box<dyn Scenario>, String> {
    Ok(match opts.workload.as_str() {
        "npb_fixed_smp4" => Box::new(NpbFixed::smp4(opts.seed)),
        "npb_fixed_altix8" => Box::new(NpbFixed::altix8(opts.seed)),
        "adapt_fine_smp4" => Box::new(AdaptFine::new(opts.seed, opts.scratch.clone())),
        "daxpy_sweep" => Box::new(DaxpySweep::new(opts.seed)),
        "compute_dense" => Box::new(ComputeDense::new()),
        "fleet_mixed" => Box::new(FleetMixed::new(opts.seed)),
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {}",
                metrics::WORKLOADS.join(", ")
            ))
        }
    })
}

/// Peak resident set of this process, from the kernel's own high-water
/// mark.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

pub fn run(opts: &RunOpts) -> Result<Run, String> {
    let mut sc = scenario(opts)?;
    std::fs::create_dir_all(&opts.scratch)
        .map_err(|e| format!("cannot create {}: {e}", opts.scratch.display()))?;
    let mut tr = Tracer::new(opts.traced);
    let budget = Duration::from_secs(opts.seconds);

    // Every pass's cells as they came.
    let mut passes: Vec<Vec<CellTime>> = Vec::new();
    let mut ops;
    let mut layer_samples: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut digest = None;
    let mut error = None;

    let start = Instant::now();
    loop {
        let pass_start = Instant::now();
        let out = sc.pass(&mut tr)?;
        ops = out.ops;
        attempted += out.attempted;
        failed += out.failed;
        if let Some(e) = out.error {
            eprintln!("{}: pass {}: {e}", opts.workload, passes.len() + 1);
            error.get_or_insert(e);
        }
        passes.push(out.cells);
        // Every pass runs the same guest programs: the digests must agree.
        if *digest.get_or_insert(out.digest) != out.digest {
            failed += 1;
            error.get_or_insert(format!(
                "pass {} produced sim_digest {:016x}, the first {:016x}",
                passes.len(),
                out.digest,
                digest.unwrap_or_default()
            ));
        }
        for (name, v) in out.layers {
            match layer_samples.iter_mut().find(|(n, _)| *n == name) {
                Some((_, vs)) => vs.push(v),
                None => layer_samples.push((name, vec![v])),
            }
        }
        // A second pass whenever the first left any of the budget, so every
        // cell has two timings; after that, another only if at least half
        // of it fits.
        let elapsed = start.elapsed();
        let fits = elapsed + pass_start.elapsed() / 2 <= budget;
        if !fits && (passes.len() >= MIN_PASSES || elapsed >= budget) {
            break;
        }
    }
    let quiet = quiet_pass(&passes);
    let (setup, wall) = (quiet.setup, quiet.run);
    let (setup_s, wall_s) = (&quiet.setup_passes, &quiet.run_passes);

    let mut trace_overhead_pct = 0.0;
    let metrics = if opts.traced {
        let traced_ns: f64 = passes
            .iter()
            .flatten()
            .map(|c| c.run.as_nanos() as f64)
            .sum();
        trace_overhead_pct = 100.0 * tr.clock_reads() as f64 * clock_read_ns() / traced_ns;
        for (name, v) in sc.probes(&mut tr)? {
            layer_samples.push((name, vec![v]));
        }
        write_trace(opts, &tr)?;
        per_layer(&layer_samples)?
    } else {
        let ops_per_s: Vec<f64> = wall_s.iter().map(|w| ops as f64 / w).collect();
        let [setup_def, wall_def, ops_def, rss_def] = metrics::END_TO_END else {
            unreachable!("four end-to-end metrics")
        };
        vec![
            Metric::with_value(setup_def, setup, setup_s),
            Metric::with_value(wall_def, wall, wall_s),
            Metric::with_value(ops_def, ops as f64 / wall, &ops_per_s),
            Metric::of(rss_def, &[peak_rss_mb()?]),
        ]
    };

    Ok(Run {
        workload: opts.workload.clone(),
        seed: opts.seed,
        traced: opts.traced,
        seconds: opts.seconds,
        pinned_cpu: opts.pinned_cpu,
        passes: passes.len() as u64,
        wall_s: wall,
        host_slowdown: tr.host.mean_slowdown(),
        trace_overhead_pct,
        correct: failed == 0,
        attempted,
        failed,
        sim_digest: match digest {
            Some(0) | None => "-".into(),
            Some(d) => format!("{d:016x}"),
        },
        metrics,
        error,
    })
}

/// Cost of one clock read as the tracer makes it, in nanoseconds.
fn clock_read_ns() -> f64 {
    const READS: u32 = 1_000_000;
    let origin = Instant::now();
    let t = Instant::now();
    for _ in 0..READS {
        std::hint::black_box(origin.elapsed());
    }
    t.elapsed().as_nanos() as f64 / f64::from(READS)
}

/// What one pass of the list costs on a quiet host, as a run estimates it.
struct QuietPass {
    setup: f64,
    run: f64,
    /// Whole passes, for the record's ranges: set-up as it came, timed
    /// sections cell by cell off the host's slowdown.
    setup_passes: Vec<f64>,
    run_passes: Vec<f64>,
}

/// Every cell at its fastest over the run's passes — the host's
/// disturbances only ever add time, so that is the pass it disturbed least
/// — and that timing divided by the host's slowdown beside it (`calib.rs`),
/// which takes out what disturbance was left; summed over the cells. A
/// cell's set-up is a millisecond just ahead of the section its slowdown
/// was measured over, too short for that figure to describe it, so set-up
/// is the fastest as it came. README.md, "Why each cell's fastest timing,
/// and why divided by the host's slowdown", has the measurements. A pass
/// that lost a cell to a failed check has a different list and is left out;
/// the run is already marked incorrect.
fn quiet_pass(passes: &[Vec<CellTime>]) -> QuietPass {
    let cells = passes.first().map_or(0, Vec::len);
    let whole: Vec<&Vec<CellTime>> = passes.iter().filter(|p| p.len() == cells).collect();
    let (mut setup, mut run) = (0.0, 0.0);
    for i in 0..cells {
        let of_cell = whole.iter().map(|p| &p[i]);
        setup += of_cell
            .clone()
            .map(|c| c.setup)
            .min()
            .unwrap_or_default()
            .as_secs_f64();
        run += of_cell
            .min_by_key(|c| c.run)
            .map_or(0.0, |c| c.run.as_secs_f64() / c.slowdown);
    }
    let sums = |of: fn(&CellTime) -> f64| -> Vec<f64> {
        whole.iter().map(|p| p.iter().map(of).sum()).collect()
    };
    QuietPass {
        setup,
        run,
        setup_passes: sums(|c| c.setup.as_secs_f64()),
        run_passes: sums(|c| c.run.as_secs_f64() / c.slowdown),
    }
}

/// Every per-layer metric in table order; 0 where the workload never
/// reported it. A name outside the table is a bug in the benchmark.
fn per_layer(samples: &[(&'static str, Vec<f64>)]) -> Result<Vec<Metric>, String> {
    if let Some((stray, _)) = samples
        .iter()
        .find(|(n, _)| !metrics::PER_LAYER.iter().any(|d| d.0 == *n))
    {
        return Err(format!(
            "per-layer metric {stray} is not in the metric table"
        ));
    }
    Ok(metrics::PER_LAYER
        .iter()
        .map(|def: &Def| {
            let vs = samples
                .iter()
                .find(|(n, _)| *n == def.0)
                .map_or(&[][..], |(_, v)| v.as_slice());
            Metric::of(def, vs)
        })
        .collect())
}

fn write_trace(opts: &RunOpts, tr: &Tracer) -> Result<(), String> {
    let field = |k: &str, v: Result<Value, serde_json::Error>| {
        v.map(|v| (k.to_string(), v)).map_err(|e| e.to_string())
    };
    let file = Value::Object(vec![
        field("workload", serde_json::to_value(&opts.workload))?,
        field("seed", serde_json::to_value(&opts.seed))?,
        field("spans", serde_json::to_value(tr.spans()))?,
        field("probes", serde_json::to_value(tr.notes()))?,
    ]);
    let text = serde_json::to_string(&file).map_err(|e| e.to_string())?;
    let path = opts.scratch.join(format!("trace_{}.json", opts.workload));
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The line the driver reads: the last line of standard output.
pub fn result_line(run: &Run) -> String {
    let metrics: Vec<String> = run
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{:?}: {{\"value\": {}, \"unit\": {:?}}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.correct,
        run.attempted,
        run.failed,
        metrics.join(", ")
    )
}

/// A float with all its digits, in a form JSON accepts.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Every metric by name, with its unit, for a person to read.
pub fn print_table(run: &Run) {
    eprintln!(
        "{} (seed {}, {} pass(es), {}): {}",
        run.workload,
        run.seed,
        run.passes,
        if run.traced { "traced" } else { "untraced" },
        if run.correct {
            "outputs correct"
        } else {
            "OUTPUTS WRONG"
        },
    );
    for m in &run.metrics {
        if m.samples == 0 {
            continue;
        }
        eprintln!(
            "  {:<44} {:>16.4} {:<7} [{:.4} .. {:.4}] n={}",
            m.name, m.value, m.unit, m.min, m.max, m.samples
        );
    }
    eprintln!(
        "  sim_digest {}  attempted {}  failed {}  host slowdown {:.3}",
        run.sim_digest, run.attempted, run.failed, run.host_slowdown
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let run = Run {
            workload: "w".into(),
            seed: 1,
            traced: false,
            seconds: 1,
            pinned_cpu: None,
            passes: 2,
            wall_s: 1.0,
            host_slowdown: 1.0,
            trace_overhead_pct: 0.0,
            correct: true,
            attempted: 10,
            failed: 0,
            sim_digest: "-".into(),
            metrics: vec![Metric::of(&metrics::END_TO_END[0], &[0.25, 0.75])],
            error: None,
        };
        let line = result_line(&run);
        assert!(!line.contains('\n'));
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(0.5));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    fn quiet_pass_takes_each_cells_fastest_timing_off_the_hosts_slowdown() {
        let cell = |setup, run, slowdown| CellTime {
            setup: Duration::from_millis(setup),
            run: Duration::from_millis(run),
            slowdown,
        };
        let q = quiet_pass(&[
            vec![cell(5, 100, 1.0), cell(7, 330, 1.1)],
            vec![cell(6, 120, 1.5), cell(4, 400, 1.3)],
            // A pass with a cell missing is not comparable cell by cell.
            vec![cell(1, 1, 1.0)],
        ]);
        assert!((q.setup - 0.009).abs() < 1e-12);
        // 100 ms on a quiet host, and 330 ms on one 1.1 times slower.
        assert!((q.run - 0.400).abs() < 1e-12);
        assert!((q.run_passes[0] - 0.400).abs() < 1e-12);
        assert!((q.run_passes[1] - (0.080 + 0.4 / 1.3)).abs() < 1e-12);
        assert_eq!(q.setup_passes.len(), 2);
        assert!((q.setup_passes[0] - 0.012).abs() < 1e-12);
    }

    #[test]
    fn per_layer_fills_the_table_and_rejects_strays() {
        let got = per_layer(&[("rt.ticks", vec![4.0, 6.0])]).unwrap();
        assert_eq!(got.len(), metrics::PER_LAYER.len());
        let ticks = got.iter().find(|m| m.name == "rt.ticks").unwrap();
        assert_eq!((ticks.value, ticks.samples), (5.0, 2));
        assert!(got
            .iter()
            .filter(|m| m.samples == 0)
            .all(|m| m.value == 0.0));
        assert!(per_layer(&[("rt.tocks", vec![1.0])]).is_err());
    }
}
