//! `cobra-repro` — regenerate the COBRA paper's tables and figures.
//!
//! ```text
//! cobra-repro fig2                     # Figure 2: DAXPY disassembly
//! cobra-repro fig3  [--reps N]         # Figure 3(a)+(b): DAXPY strategies
//! cobra-repro table1                   # Table 1: static counts
//! cobra-repro fig5  [--machine M]      # Figures 5/6/7 for one machine
//! cobra-repro trace FILE               # summarize a --trace-out JSONL
//! cobra-repro profile save --store DIR [--bench B] [--machine M]
//! cobra-repro profile inspect PATH     # summarize snapshot file or dir
//! cobra-repro profile merge --out FILE [--max-age-runs N] IN...
//! cobra-repro verify image [--bench B] [--machine M]   # lint kernel images
//! cobra-repro verify snapshot PATH     # lint a store snapshot file or dir
//! cobra-repro fleet serve --addr A [--dir D] [--shards N] [--max-age-runs N]
//! cobra-repro fleet upload --addr A PATH   # push snapshot file or dir
//! cobra-repro fleet fetch --addr A --key K [--out FILE]
//! cobra-repro fleet stats --addr A
//! cobra-repro all   [--md] [--json]    # everything (EXPERIMENTS.md source)
//! ```
//!
//! Options: `--machine smp4|altix8`, `--md` (Markdown), `--json` (raw data),
//! `--reps N` (DAXPY outer repetitions), `--workers N` (host threads),
//! `--trace-out FILE` (fig5/fig6/fig7 only: write the COBRA telemetry
//! stream as JSONL, one record per line), `--store DIR` (fig5/fig6/fig7
//! only: persist profiles/decisions and warm-start from prior runs).

use std::path::PathBuf;

use cobra_harness::{
    default_workers, fig2, fig3, fleetcmd, npbsuite, profilecmd, table1, verifycmd,
};
use cobra_machine::MachineConfig;
use cobra_rt::{read_jsonl, TelemetrySink, TraceSummary};

/// What the user asked `cobra-repro` to do, fully parsed and validated.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Command {
    Fig2,
    Fig3,
    Ablate,
    Static,
    Table1,
    Fig5,
    Fig6,
    Fig7,
    All,
    Trace(PathBuf),
}

impl Command {
    /// Figures that run the NPB suite and therefore accept `--trace-out`.
    fn accepts_trace_out(&self) -> bool {
        matches!(self, Command::Fig5 | Command::Fig6 | Command::Fig7)
    }
}

struct Opts {
    markdown: bool,
    json: bool,
    reps: usize,
    workers: usize,
    machine: String,
    trace_out: Option<PathBuf>,
    store: Option<PathBuf>,
    candidates: bool,
}

/// Next flag value, or a one-line usage error and exit 2 (never a panic).
fn flag_value<'a>(it: &mut impl Iterator<Item = &'a String>, usage: &str) -> &'a String {
    it.next().unwrap_or_else(|| {
        eprintln!("{usage}");
        std::process::exit(2);
    })
}

/// Parse a numeric flag value; malformed input is a one-line error, exit 2.
fn numeric_flag<'a>(it: &mut impl Iterator<Item = &'a String>, usage: &str) -> usize {
    let raw = flag_value(it, usage);
    raw.parse().unwrap_or_else(|_| {
        eprintln!("{usage}: {raw:?} is not a number");
        std::process::exit(2);
    })
}

fn parse(args: &[String]) -> (Command, Opts) {
    let mut opts = Opts {
        markdown: false,
        json: false,
        reps: fig3::DEFAULT_REPS,
        workers: default_workers(),
        machine: "smp4".into(),
        trace_out: None,
        store: None,
        candidates: false,
    };
    let mut it = args.iter();
    let name = it.next().cloned().unwrap_or_else(|| "all".into());
    let mut trace_file: Option<PathBuf> = None;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--md" => opts.markdown = true,
            "--json" => opts.json = true,
            "--reps" => {
                opts.reps = numeric_flag(&mut it, "--reps N");
            }
            "--workers" => {
                opts.workers = numeric_flag(&mut it, "--workers N");
            }
            "--machine" => {
                opts.machine = flag_value(&mut it, "--machine NAME").clone();
            }
            "--trace-out" => {
                opts.trace_out = Some(PathBuf::from(flag_value(&mut it, "--trace-out FILE")));
            }
            "--store" => {
                opts.store = Some(PathBuf::from(flag_value(&mut it, "--store DIR")));
            }
            "--candidates" => opts.candidates = true,
            other => {
                // `trace` takes one positional FILE; everything else is an error.
                if name == "trace" && !other.starts_with('-') && trace_file.is_none() {
                    trace_file = Some(PathBuf::from(other));
                } else {
                    eprintln!("unknown option {other}");
                    std::process::exit(2);
                }
            }
        }
    }
    let cmd = match name.as_str() {
        "fig2" => Command::Fig2,
        "fig3" | "fig3a" | "fig3b" => Command::Fig3,
        "ablate" => Command::Ablate,
        "static" => Command::Static,
        "table1" => Command::Table1,
        "fig5" => Command::Fig5,
        "fig6" => Command::Fig6,
        "fig7" => Command::Fig7,
        "all" => Command::All,
        "trace" => match trace_file {
            Some(file) => Command::Trace(file),
            None => {
                eprintln!("trace requires a FILE argument (a JSONL written by --trace-out)");
                std::process::exit(2);
            }
        },
        other => {
            eprintln!(
                "unknown command {other}; try fig2|fig3|table1|fig5|fig6|fig7|static|ablate|profile|verify|fleet|all"
            );
            std::process::exit(2);
        }
    };
    validate(&cmd, &opts);
    (cmd, opts)
}

/// Per-subcommand option validation: flags that only make sense for some
/// commands are rejected (exit 2) instead of silently ignored.
fn validate(cmd: &Command, opts: &Opts) {
    if opts.trace_out.is_some() && !cmd.accepts_trace_out() {
        eprintln!("--trace-out is only supported with fig5|fig6|fig7");
        std::process::exit(2);
    }
    if opts.store.is_some() && !cmd.accepts_trace_out() {
        eprintln!("--store is only supported with fig5|fig6|fig7 (see also `profile save`)");
        std::process::exit(2);
    }
    if opts.candidates && !cmd.accepts_trace_out() {
        eprintln!("--candidates is only supported with fig5|fig6|fig7");
        std::process::exit(2);
    }
    if opts.workers == 0 {
        eprintln!("--workers must be at least 1");
        std::process::exit(2);
    }
    if matches!(cmd, Command::Trace(_)) && (opts.json || opts.markdown) {
        eprintln!("trace does not take --json/--md; it prints a plain summary");
        std::process::exit(2);
    }
}

fn machine_by_name(name: &str) -> (MachineConfig, usize) {
    match name {
        "smp4" => (MachineConfig::smp4(), 4),
        "altix8" => (MachineConfig::altix8(), 8),
        other => {
            eprintln!("unknown machine {other} (expected smp4 or altix8)");
            std::process::exit(2);
        }
    }
}

/// Run the NPB suite for one of Figures 5/6/7, optionally streaming
/// telemetry to `--trace-out`.
fn run_npb_figure(cmd: &Command, opts: &Opts) {
    let (cfg, threads) = machine_by_name(&opts.machine);
    let sink = opts.trace_out.as_ref().map(|path| {
        TelemetrySink::jsonl_file(path).unwrap_or_else(|e| {
            eprintln!("cannot create {}: {e}", path.display());
            std::process::exit(2);
        })
    });
    if let Some(dir) = &opts.store {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create store directory {}: {e}", dir.display());
            std::process::exit(2);
        }
    }
    let data = npbsuite::measure(
        &cfg,
        threads,
        opts.workers,
        sink.as_ref(),
        opts.store.as_deref(),
        opts.candidates,
    );
    if opts.json {
        println!("{}", serde_json::to_string_pretty(&data).unwrap());
    } else {
        let t = match cmd {
            Command::Fig5 => data.fig5(),
            Command::Fig6 => data.fig6(),
            _ => data.fig7(),
        };
        print!(
            "{}",
            if opts.markdown {
                t.to_markdown()
            } else {
                t.to_text()
            }
        );
        print!(
            "{}",
            if opts.markdown {
                data.deployments().to_markdown()
            } else {
                data.deployments().to_text()
            }
        );
    }
    if let Some(path) = &opts.trace_out {
        eprintln!("telemetry trace written to {}", path.display());
    }
    if let Some(dir) = &opts.store {
        eprintln!(
            "profiles persisted to {} (rerun with the same --store to warm-start)",
            dir.display()
        );
    }
}

/// `cobra-repro profile save|inspect|merge` — its own tiny arg grammar.
fn run_profile(args: &[String]) -> ! {
    let usage = || -> ! {
        eprintln!(
            "usage:\n  profile save --store DIR [--bench B] [--machine M] [--workers N]\n  \
             profile inspect PATH\n  profile merge --out FILE [--max-age-runs N] IN...\n  \
             (merge inputs may be files or directories of *.jsonl)"
        );
        std::process::exit(2);
    };
    let Some(action) = args.first() else { usage() };
    let mut it = args[1..].iter();
    match action.as_str() {
        "save" => {
            let mut store: Option<PathBuf> = None;
            let mut bench = "bt".to_string();
            let mut machine = "smp4".to_string();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--store" => store = Some(PathBuf::from(flag_value(&mut it, "--store DIR"))),
                    "--bench" => bench = flag_value(&mut it, "--bench NAME").clone(),
                    "--machine" => machine = flag_value(&mut it, "--machine NAME").clone(),
                    // Accepted for interface symmetry; save runs one arm.
                    "--workers" => {
                        let _ = numeric_flag(&mut it, "--workers N");
                    }
                    _ => usage(),
                }
            }
            let Some(store) = store else {
                eprintln!("profile save requires --store DIR");
                std::process::exit(2);
            };
            let (cfg, threads) = machine_by_name(&machine);
            match profilecmd::save(&bench, &cfg, threads, &store) {
                Ok(msg) => {
                    println!("{msg}");
                    std::process::exit(0);
                }
                Err(e) => {
                    eprintln!("profile save failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        "inspect" => {
            let (Some(path), None) = (it.next(), it.next()) else {
                usage()
            };
            match profilecmd::inspect(&PathBuf::from(path)) {
                Ok(text) => {
                    print!("{text}");
                    std::process::exit(0);
                }
                Err(e) => {
                    eprintln!("profile inspect: {e}");
                    std::process::exit(2);
                }
            }
        }
        "merge" => {
            let mut out: Option<PathBuf> = None;
            let mut inputs: Vec<PathBuf> = Vec::new();
            let mut max_age_runs: Option<u64> = None;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--out" => out = Some(PathBuf::from(flag_value(&mut it, "--out FILE"))),
                    "--max-age-runs" => {
                        max_age_runs = Some(numeric_flag(&mut it, "--max-age-runs N") as u64)
                    }
                    other if !other.starts_with('-') => inputs.push(PathBuf::from(other)),
                    _ => usage(),
                }
            }
            let Some(out) = out else {
                eprintln!("profile merge requires --out FILE");
                std::process::exit(2);
            };
            match profilecmd::merge(&inputs, &out, max_age_runs) {
                Ok(msg) => {
                    print!("{msg}");
                    std::process::exit(0);
                }
                Err(e) => {
                    eprintln!("profile merge: {e}");
                    std::process::exit(1);
                }
            }
        }
        _ => usage(),
    }
}

/// `cobra-repro fleet serve|upload|fetch|stats` — its own tiny arg
/// grammar. Exit 2 on bad arguments, exit 1 on a failed operation, exit 0
/// on success.
fn run_fleet(args: &[String]) -> ! {
    let usage = || -> ! {
        eprintln!(
            "usage:\n  fleet serve --addr A [--dir D] [--shards N] [--max-age-runs N]\n  \
             fleet upload --addr A PATH\n  \
             fleet fetch --addr A --key IMAGEHEX-MACHINEHEX [--out FILE]\n  \
             fleet stats --addr A"
        );
        std::process::exit(2);
    };
    let Some(action) = args.first() else { usage() };
    let mut it = args[1..].iter();
    let mut addr: Option<String> = None;
    let mut dir: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut key: Option<String> = None;
    let mut shards = 4usize;
    let mut max_age_runs: Option<u64> = None;
    let mut path: Option<PathBuf> = None;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = Some(flag_value(&mut it, "--addr HOST:PORT").clone()),
            "--dir" => dir = Some(PathBuf::from(flag_value(&mut it, "--dir DIR"))),
            "--out" => out = Some(PathBuf::from(flag_value(&mut it, "--out FILE"))),
            "--key" => key = Some(flag_value(&mut it, "--key IMAGEHEX-MACHINEHEX").clone()),
            "--shards" => shards = numeric_flag(&mut it, "--shards N"),
            "--max-age-runs" => {
                max_age_runs = Some(numeric_flag(&mut it, "--max-age-runs N") as u64)
            }
            other if !other.starts_with('-') && path.is_none() => path = Some(PathBuf::from(other)),
            _ => usage(),
        }
    }
    let need_addr = || -> String {
        addr.clone().unwrap_or_else(|| {
            eprintln!("fleet {action} requires --addr HOST:PORT");
            std::process::exit(2);
        })
    };
    let outcome = match action.as_str() {
        "serve" => {
            if max_age_runs == Some(0) {
                eprintln!("--max-age-runs must be at least 1");
                std::process::exit(2);
            }
            match fleetcmd::serve(&need_addr(), dir.as_deref(), shards, max_age_runs) {
                Err(e) => Err(e),
                Ok(never) => match never {},
            }
        }
        "upload" => {
            let Some(path) = path else {
                eprintln!("fleet upload requires a snapshot PATH");
                std::process::exit(2);
            };
            fleetcmd::upload(&need_addr(), &path)
        }
        "fetch" => {
            let Some(key) = key else {
                eprintln!("fleet fetch requires --key IMAGEHEX-MACHINEHEX");
                std::process::exit(2);
            };
            fleetcmd::parse_key(&key)
                .and_then(|k| fleetcmd::fetch(&need_addr(), &k, out.as_deref()))
        }
        "stats" => fleetcmd::stats(&need_addr()),
        other => {
            eprintln!("unknown fleet command {other}; try serve|upload|fetch|stats");
            std::process::exit(2);
        }
    };
    match outcome {
        Ok(text) => {
            print!("{text}");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("fleet {action}: {e}");
            std::process::exit(1);
        }
    }
}

/// `cobra-repro verify image|snapshot` — its own tiny arg grammar. Exit 2
/// on bad arguments or unreadable paths, exit 1 when verification finds
/// violations, exit 0 when everything checks out.
fn run_verify(args: &[String]) -> ! {
    let usage = || -> ! {
        eprintln!(
            "usage:\n  verify image [--bench B] [--machine M]   # whole suite without --bench\n  \
             verify snapshot PATH"
        );
        std::process::exit(2);
    };
    let Some(action) = args.first() else { usage() };
    let mut it = args[1..].iter();
    let outcome = match action.as_str() {
        "image" => {
            let mut bench: Option<String> = None;
            let mut machine = "smp4".to_string();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--bench" => bench = Some(flag_value(&mut it, "--bench NAME").clone()),
                    "--machine" => machine = flag_value(&mut it, "--machine NAME").clone(),
                    _ => usage(),
                }
            }
            let (cfg, _threads) = machine_by_name(&machine);
            verifycmd::image(bench.as_deref(), &cfg)
        }
        "snapshot" => {
            let (Some(path), None) = (it.next(), it.next()) else {
                usage()
            };
            verifycmd::snapshot(&PathBuf::from(path))
        }
        _ => usage(),
    };
    match outcome {
        Ok(out) => {
            print!("{}", out.text);
            if out.violations > 0 {
                eprintln!("verify: {} violation(s)", out.violations);
                std::process::exit(1);
            }
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("verify {action}: {e}");
            std::process::exit(2);
        }
    }
}

fn summarize_trace(file: &PathBuf) {
    let f = std::fs::File::open(file).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {e}", file.display());
        std::process::exit(2);
    });
    match read_jsonl(f) {
        Ok(records) => {
            println!("trace {} —", file.display());
            println!("{}", TraceSummary::from_records(&records));
        }
        Err(e) => {
            eprintln!("malformed trace {}: {e}", file.display());
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("profile") {
        run_profile(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("verify") {
        run_verify(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("fleet") {
        run_fleet(&args[1..]);
    }
    let (cmd, opts) = parse(&args);
    match &cmd {
        Command::Fig2 => print!("{}", fig2::run()),
        Command::Fig3 => {
            let data = fig3::measure(opts.reps, opts.workers);
            if opts.json {
                println!("{}", serde_json::to_string_pretty(&data).unwrap());
            } else {
                print!("{}", fig3::render(&data, opts.markdown));
            }
        }
        Command::Ablate => {
            print!(
                "{}",
                cobra_harness::ablate::run_all(opts.workers, opts.markdown)
            );
        }
        Command::Static => {
            let (cfg, threads) = machine_by_name(&opts.machine);
            let cells = cobra_harness::staticnpb::measure(&cfg, threads, opts.workers);
            if opts.json {
                println!("{}", serde_json::to_string_pretty(&cells).unwrap());
            } else {
                print!(
                    "{}",
                    cobra_harness::staticnpb::render(&cells, &cfg.name, opts.markdown)
                );
            }
        }
        Command::Table1 => {
            let counts = table1::measure();
            if opts.json {
                println!("{}", serde_json::to_string_pretty(&counts).unwrap());
            } else {
                print!("{}", table1::render(&counts, opts.markdown));
            }
        }
        Command::Fig5 | Command::Fig6 | Command::Fig7 => run_npb_figure(&cmd, &opts),
        Command::All => {
            let md = opts.markdown;
            println!("# COBRA reproduction — measured results\n");
            println!("## Figure 2\n");
            println!("```\n{}```\n", fig2::run());
            println!("## Figure 3\n");
            let f3 = fig3::measure(opts.reps, opts.workers);
            println!("{}", fig3::render(&f3, md));
            println!("## Table 1\n");
            println!("{}", table1::render(&table1::measure(), md));
            let (smp_cfg, smp_t) = machine_by_name("smp4");
            let (alt_cfg, alt_t) = machine_by_name("altix8");
            println!("## Figures 5-7 (smp4, {smp_t} threads)\n");
            let smp = npbsuite::measure(&smp_cfg, smp_t, opts.workers, None, None, false);
            println!("{}", npbsuite::render(&smp, md));
            println!("## Figures 5-7 (altix8, {alt_t} threads)\n");
            let alt = npbsuite::measure(&alt_cfg, alt_t, opts.workers, None, None, false);
            println!("{}", npbsuite::render(&alt, md));
            println!("## Cross-machine shape checks\n");
            for (desc, ok) in npbsuite::shape_checks(&smp, &alt) {
                println!("  [{}] {}", if ok { "ok" } else { "MISS" }, desc);
            }
        }
        Command::Trace(file) => summarize_trace(file),
    }
}
