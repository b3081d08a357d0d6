//! The repo's performance record: six named workloads, end-to-end and
//! per-layer metrics, one pinned command. README.md beside this package
//! says what is measured and why; `run.sh` is the command.
//!
//! Three ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload; the last line of standard output is the result object.
//! * no `--workload` — a complete record: every workload, untraced then
//!   traced, each in its own child process, written to
//!   `results/latest.json`.
//! * `--compare A.json B.json` — two complete records, row by row.
//! * `--spread RUNS` — the steadiness check: that many untraced runs of each
//!   workload, each with another seed, and every metric's quartile spread.

mod calib;
mod compare;
mod full;
mod metrics;
mod pin;
mod probes;
mod record;
mod run;
mod scenario;
mod sim;
mod span;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use record::Record;

const USAGE: &str = "usage:
  run.sh --workload NAME --seed N --seconds S --trace 0|1
  run.sh [--seed N] [--seconds S] [--out DIR]
  run.sh --compare A.json B.json
  run.sh --spread RUNS [--seed N] [--seconds S]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    /// The benchmark's own directory: scratch space, results and the path
    /// to `BENCHMARK.json` are found from it.
    root: PathBuf,
    out: Option<PathBuf>,
    /// How a complete record's parent tells a child where to work and where
    /// to leave its full record; not for the command line.
    scratch: Option<PathBuf>,
    record: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    spread: Option<u64>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 20,
        traced: false,
        root: PathBuf::from(env!("CARGO_MANIFEST_DIR")),
        scratch: None,
        out: None,
        record: None,
        compare: None,
        spread: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} {v:?} is not a whole number\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = number(value()?)?,
            "--seconds" => a.seconds = number(value()?)?,
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?} is neither 0 nor 1\n{USAGE}")),
                }
            }
            "--root" => a.root = PathBuf::from(value()?),
            "--scratch" => a.scratch = Some(PathBuf::from(value()?)),
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--record" => a.record = Some(PathBuf::from(value()?)),
            "--spread" => a.spread = Some(number(value()?)?),
            "--compare" => a.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(a)
}

fn read_record(path: &Path) -> Result<Record, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Record::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The regression bounds live in one place: `BENCHMARK.json`.
fn bounds(root: &Path) -> Result<Vec<(String, f64)>, String> {
    let path = root.join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    compare::bounds(&text)
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main_inner() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&argv)?;

    if let Some((a, b)) = &args.compare {
        let out = compare::compare(&read_record(a)?, &read_record(b)?, &bounds(&args.root)?)?;
        print!("{}", out.text);
        return Ok(exit_code(!out.regressed));
    }

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    // Before any thread exists, so every thread inherits the mask.
    let pinned_cpu = pin::pin_to_one_cpu();
    if pinned_cpu.is_none() {
        eprintln!("warning: the host refused sched_setaffinity; running UNPINNED, timings are not comparable");
    }
    let scratch = args
        .scratch
        .clone()
        .unwrap_or_else(|| args.root.join("out"));

    match &args.workload {
        Some(workload) => {
            let run = run::run(&run::RunOpts {
                workload: workload.clone(),
                seed: args.seed,
                seconds: args.seconds,
                traced: args.traced,
                scratch,
                pinned_cpu,
            })?;
            run::print_table(&run);
            if let Some(path) = &args.record {
                let text = serde_json::to_string(&run).map_err(|e| e.to_string())?;
                std::fs::write(path, text)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            }
            println!("{}", run::result_line(&run));
            Ok(ExitCode::SUCCESS)
        }
        None => {
            let opts = full::FullOpts {
                seed: args.seed,
                seconds: args.seconds,
                scratch,
                out: args
                    .out
                    .clone()
                    .unwrap_or_else(|| args.root.join("results")),
                pinned_cpu,
                nproc,
            };
            Ok(exit_code(match args.spread {
                Some(runs) => full::spread(&opts, runs, &bounds(&args.root)?)?,
                None => full::full(&opts)?,
            }))
        }
    }
}

fn main() -> ExitCode {
    main_inner().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}
