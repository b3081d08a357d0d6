//! The `cobra-repro` command line: one grammar ([`parse`]) and one
//! dispatcher ([`run`]) that writes to the stream it is given and returns.
//!
//! [`Verb`] names every command — the `profile`, `verify` and `fleet`
//! subcommands are verbs like any other — and [`Verb::grammar`] is the table
//! of the flags each requires, the flags it takes and its positional
//! arguments. A flag a command does not take is an error, never ignored,
//! and usage text is printed from the same table.
//!
//! Nothing here exits the process. `main.rs` turns [`Failure::exit_code`]
//! into the exit status — 2 for a command line (or a path it names) that
//! cannot be used, 1 for a command that ran and failed or a lint that found
//! violations — and tests call [`invoke`] in-process.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};
use std::path::PathBuf;

use cobra_machine::MachineConfig;
use cobra_rt::{read_jsonl, write_jsonl, CobraReport, TelemetryEvent, TelemetryRecord};
use serde::Serialize;

use crate::{
    default_workers, fig2, fig3, fleetcmd, npbsuite, profilecmd, staticnpb, table1, verifycmd,
};

/// The command line cannot be used as given, or it names a path that cannot
/// be read or created: one line on stderr, exit 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Usage(pub String);

/// Why an invocation did not succeed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// Exit 2.
    Usage(Usage),
    /// The command ran and failed, or verification found violations: exit 1.
    Failed(String),
}

impl Failure {
    pub fn exit_code(&self) -> i32 {
        match self {
            Failure::Usage(_) => 2,
            Failure::Failed(_) => 1,
        }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Usage(Usage(msg)) | Failure::Failed(msg) => f.write_str(msg),
        }
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        Failure::Failed(format!("cannot write output: {e}"))
    }
}

/// Every command `cobra-repro` has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verb {
    Fig2,
    Fig3,
    Table1,
    Fig5,
    Fig6,
    Fig7,
    Static,
    All,
    Trace,
    ProfileSave,
    ProfileInspect,
    ProfileMerge,
    VerifyImage,
    VerifySnapshot,
    FleetServe,
    FleetUpload,
    FleetFetch,
    FleetStats,
}

/// Every flag `cobra-repro` knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flag {
    Md,
    Json,
    Candidates,
    Reps,
    Workers,
    Machine,
    TraceOut,
    Store,
    Bench,
    Out,
    MaxAgeRuns,
    Addr,
    Dir,
    Shards,
    Key,
}
use Flag::*;

/// How many positional arguments a command takes, and what usage text
/// calls them.
#[derive(Debug, Clone, Copy)]
enum Positional {
    None,
    One(&'static str),
    /// Any number; the command itself says how many it needs.
    Many(&'static str),
}

/// One row of the grammar: what the user types (two words are a group and
/// its subcommand), the flags the command cannot do without, the flags it
/// takes besides, and its positional arguments.
type Grammar = (&'static str, &'static [Flag], &'static [Flag], Positional);

impl Verb {
    const ALL: [Verb; 18] = [
        Verb::Fig2,
        Verb::Fig3,
        Verb::Table1,
        Verb::Fig5,
        Verb::Fig6,
        Verb::Fig7,
        Verb::Static,
        Verb::All,
        Verb::Trace,
        Verb::ProfileSave,
        Verb::ProfileInspect,
        Verb::ProfileMerge,
        Verb::VerifyImage,
        Verb::VerifySnapshot,
        Verb::FleetServe,
        Verb::FleetUpload,
        Verb::FleetFetch,
        Verb::FleetStats,
    ];

    fn grammar(self) -> Grammar {
        use Positional::{Many, One};
        const NONE: Positional = Positional::None;
        const NPB: &[Flag] = &[Machine, Workers, Md, Json, TraceOut, Store, Candidates];
        match self {
            Verb::Fig2 => ("fig2", &[], &[], NONE),
            Verb::Fig3 => ("fig3", &[], &[Reps, Workers, Md, Json], NONE),
            Verb::Table1 => ("table1", &[], &[Md, Json], NONE),
            Verb::Fig5 => ("fig5", &[], NPB, NONE),
            Verb::Fig6 => ("fig6", &[], NPB, NONE),
            Verb::Fig7 => ("fig7", &[], NPB, NONE),
            Verb::Static => ("static", &[], &[Machine, Workers, Md, Json], NONE),
            Verb::All => ("all", &[], &[Reps, Workers, Md], NONE),
            Verb::Trace => ("trace", &[], &[], One("FILE")),
            Verb::ProfileSave => ("profile save", &[Store], &[Bench, Machine], NONE),
            Verb::ProfileInspect => ("profile inspect", &[], &[], One("PATH")),
            Verb::ProfileMerge => ("profile merge", &[Out], &[MaxAgeRuns], Many("IN")),
            Verb::VerifyImage => ("verify image", &[], &[Bench, Machine], NONE),
            Verb::VerifySnapshot => ("verify snapshot", &[], &[], One("PATH")),
            Verb::FleetServe => ("fleet serve", &[Addr], &[Dir, Shards, MaxAgeRuns], NONE),
            Verb::FleetUpload => ("fleet upload", &[Addr], &[], One("PATH")),
            Verb::FleetFetch => ("fleet fetch", &[Addr, Key], &[Out], NONE),
            Verb::FleetStats => ("fleet stats", &[Addr], &[], NONE),
        }
    }

    fn name(self) -> &'static str {
        self.grammar().0
    }

    /// `cobra-repro profile save --store DIR [--bench NAME] ...`
    fn usage(self) -> String {
        let (name, required, optional, positional) = self.grammar();
        let mut s = format!("cobra-repro {name}");
        for flag in required {
            s.push_str(&format!(" {flag}"));
        }
        for flag in optional {
            s.push_str(&format!(" [{flag}]"));
        }
        match positional {
            Positional::None => {}
            Positional::One(what) => s.push_str(&format!(" {what}")),
            Positional::Many(what) => s.push_str(&format!(" {what}...")),
        }
        s
    }
}

impl Flag {
    const ALL: [Flag; 15] = [
        Md, Json, Candidates, Reps, Workers, Machine, TraceOut, Store, Bench, Out, MaxAgeRuns,
        Addr, Dir, Shards, Key,
    ];

    /// How the flag is spelled and, unless it is a switch, what usage text
    /// calls its value.
    fn spelling(self) -> (&'static str, Option<&'static str>) {
        match self {
            Md => ("--md", None),
            Json => ("--json", None),
            Candidates => ("--candidates", None),
            Reps => ("--reps", Some("N")),
            Workers => ("--workers", Some("N")),
            Machine => ("--machine", Some("smp4|altix8")),
            TraceOut => ("--trace-out", Some("FILE")),
            Store => ("--store", Some("DIR")),
            Bench => ("--bench", Some("NAME")),
            Out => ("--out", Some("FILE")),
            MaxAgeRuns => ("--max-age-runs", Some("N")),
            Addr => ("--addr", Some("HOST:PORT")),
            Dir => ("--dir", Some("DIR")),
            Shards => ("--shards", Some("N")),
            Key => ("--key", Some("IMAGEHEX-MACHINEHEX")),
        }
    }
}

/// `--reps N`, `--md`: the flag as usage text shows it.
impl fmt::Display for Flag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.spelling() {
            (name, Some(value)) => write!(f, "{name} {value}"),
            (name, None) => f.write_str(name),
        }
    }
}

/// What the user asked `cobra-repro` to do, fully parsed and validated:
/// a verb, and a value for every flag its grammar takes (the default where
/// the flag was not given; flags it does not take keep theirs, unread).
#[derive(Debug, Clone)]
pub struct Command {
    verb: Verb,
    markdown: bool,
    json: bool,
    candidates: bool,
    reps: usize,
    workers: usize,
    machine: MachineConfig,
    trace_out: Option<PathBuf>,
    store: Option<PathBuf>,
    bench: Option<String>,
    out: Option<PathBuf>,
    max_age_runs: Option<u64>,
    addr: Option<String>,
    dir: Option<PathBuf>,
    shards: usize,
    key: Option<String>,
    paths: Vec<PathBuf>,
}

/// The verb `args` starts with, and the arguments after it. No arguments at
/// all means `all`.
fn lookup(args: &[String]) -> Result<(Verb, &[String]), Usage> {
    let first = match args.first().map(String::as_str) {
        None => "all",
        Some("fig3a" | "fig3b") => "fig3",
        Some(other) => other,
    };
    if let Some(verb) = Verb::ALL.into_iter().find(|v| v.name() == first) {
        return Ok((verb, args.get(1..).unwrap_or_default()));
    }
    let group: Vec<(Verb, &str)> = Verb::ALL
        .into_iter()
        .filter_map(|v| Some((v, v.name().strip_prefix(first)?.strip_prefix(' ')?)))
        .collect();
    if group.is_empty() {
        let mut names: Vec<&str> = Verb::ALL
            .iter()
            .filter_map(|v| v.name().split(' ').next())
            .collect();
        names.dedup();
        return Err(Usage(format!(
            "unknown command {first}; try {}",
            names.join("|")
        )));
    }
    let Some(action) = args.get(1) else {
        let lines: Vec<String> = group.iter().map(|(v, _)| v.usage()).collect();
        return Err(Usage(format!("usage:\n  {}", lines.join("\n  "))));
    };
    match group.iter().find(|(_, a)| a == action) {
        Some((verb, _)) => Ok((*verb, &args[2..])),
        None => {
            let actions: Vec<&str> = group.iter().map(|(_, a)| *a).collect();
            Err(Usage(format!(
                "unknown {first} command {action}; try {}",
                actions.join("|")
            )))
        }
    }
}

/// Parse a command line (without the program name). Every error is one
/// line, except the usage listing a bare `profile` / `verify` / `fleet` gets.
pub fn parse(args: &[String]) -> Result<Command, Usage> {
    let (verb, rest) = lookup(args)?;
    let (name, required, optional, positional) = verb.grammar();
    let mut cmd = Command {
        verb,
        markdown: false,
        json: false,
        candidates: false,
        reps: fig3::DEFAULT_REPS,
        workers: default_workers(),
        machine: MachineConfig::smp4(),
        trace_out: None,
        store: None,
        bench: None,
        out: None,
        max_age_runs: None,
        addr: None,
        dir: None,
        shards: 4,
        key: None,
        paths: Vec::new(),
    };
    let mut given: Vec<Flag> = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let Some(flag) = Flag::ALL.into_iter().find(|f| f.spelling().0 == arg) else {
            if arg.starts_with('-') {
                return Err(Usage(format!("unknown option {arg}")));
            }
            cmd.paths.push(PathBuf::from(arg));
            continue;
        };
        if !required.contains(&flag) && !optional.contains(&flag) {
            let usage = verb.usage();
            return Err(Usage(format!(
                "{arg} is not valid for {name}; usage: {usage}"
            )));
        }
        let mut value = || {
            it.next()
                .ok_or_else(|| Usage(format!("{arg} needs a value: {flag}")))
        };
        let number = |raw: &String| {
            raw.parse::<usize>()
                .map_err(|_| Usage(format!("{flag}: {raw:?} is not a number")))
        };
        // Zero workers no trial runner can use; an age horizon of zero runs
        // would age out what the same run just confirmed.
        let at_least_one = |n: usize| match n {
            0 => Err(Usage(format!("{arg} must be at least 1"))),
            n => Ok(n),
        };
        match flag {
            Md => cmd.markdown = true,
            Json => cmd.json = true,
            Candidates => cmd.candidates = true,
            Reps => cmd.reps = number(value()?)?,
            Workers => cmd.workers = at_least_one(number(value()?)?)?,
            Machine => {
                cmd.machine = match value()?.as_str() {
                    "smp4" => MachineConfig::smp4(),
                    "altix8" => MachineConfig::altix8(),
                    other => {
                        return Err(Usage(format!(
                            "unknown machine {other} (expected smp4 or altix8)"
                        )))
                    }
                }
            }
            TraceOut => cmd.trace_out = Some(value()?.into()),
            Store => cmd.store = Some(value()?.into()),
            Bench => cmd.bench = Some(value()?.clone()),
            Out => cmd.out = Some(value()?.into()),
            MaxAgeRuns => cmd.max_age_runs = Some(at_least_one(number(value()?)?)? as u64),
            Addr => cmd.addr = Some(value()?.clone()),
            Dir => cmd.dir = Some(value()?.into()),
            Shards => cmd.shards = number(value()?)?,
            Key => cmd.key = Some(value()?.clone()),
        }
        given.push(flag);
    }
    if let Some(flag) = required.iter().find(|f| !given.contains(f)) {
        return Err(Usage(format!("{name} requires {flag}")));
    }
    let positionals_fit = match positional {
        Positional::None => cmd.paths.is_empty(),
        Positional::One(_) => cmd.paths.len() == 1,
        Positional::Many(_) => true,
    };
    if !positionals_fit {
        return Err(Usage(format!("usage: {}", verb.usage())));
    }
    Ok(cmd)
}

/// Print what a figure command measured: the raw data as JSON (`--json`
/// wins over `--md`), or the text `render(markdown)` makes of it.
fn emit<T: Serialize>(
    out: &mut dyn Write,
    cmd: &Command,
    data: &T,
    render: impl FnOnce(bool) -> String,
) -> io::Result<()> {
    if cmd.json {
        let json = serde_json::to_string_pretty(data).expect("measurements serialize");
        writeln!(out, "{json}")
    } else {
        write!(out, "{}", render(cmd.markdown))
    }
}

/// One run of a trace — `run` is not empty, opens with the `Attach` that
/// names it and closes with the `Detach` that carries its totals — as the
/// report its records fold to.
fn print_run(out: &mut dyn Write, n: usize, run: &[TelemetryRecord]) -> io::Result<()> {
    let mut report = CobraReport::default();
    let mut per_category: BTreeMap<&str, u64> = BTreeMap::new();
    for r in run {
        report.observe(&r.event);
        *per_category.entry(r.event.category()).or_default() += 1;
    }
    writeln!(out, "run {n}: {:?}", run[0].event)?;
    writeln!(out, "  {}", report.summary())?;
    let (records, dropped) = (run.len(), report.telemetry_dropped);
    writeln!(out, "  {records} records ({dropped} dropped at emission):")?;
    for (category, count) in &per_category {
        writeln!(out, "    {category:<16} {count}")?;
    }
    writeln!(out, "  deployment timeline ({}):", report.applied.len())?;
    for a in &report.applied {
        let (tick, id, what) = (a.tick, a.plan_id, &a.description);
        writeln!(out, "    tick {tick:>5}: plan {id} — {what}")?;
    }
    writeln!(out, "  reverts ({}):", report.reverted.len())?;
    for r in &report.reverted {
        let (tick, id, why) = (r.tick, r.plan_id, &r.reason);
        writeln!(out, "    tick {tick:>5}: plan {id} — {why}")?;
    }
    // The run totals, as the record that carried them.
    writeln!(out, "  {:?}", run[run.len() - 1].event)
}

/// Do what `cmd` asks, writing what the command prints on stdout to `out`.
/// Progress notes and warnings go to stderr directly.
pub fn run(cmd: Command, out: &mut dyn Write) -> Result<(), Failure> {
    // `parse` checked the verb's row of the grammar: a required flag is
    // there, and a `Positional::One` verb has exactly one path.
    const CHECKED: &str = "parse checked the verb's grammar";
    let unusable =
        |what: String, e: &dyn fmt::Display| Failure::Usage(Usage(format!("{what}: {e}")));
    let failed = |e: String| Failure::Failed(format!("{}: {e}", cmd.verb.name()));
    let addr = || cmd.addr.as_deref().expect(CHECKED);
    let (md, workers, threads) = (cmd.markdown, cmd.workers, cmd.machine.num_cpus);
    match cmd.verb {
        Verb::Fig2 => write!(out, "{}", fig2::run())?,
        Verb::Fig3 => {
            let data = fig3::measure(cmd.reps, workers);
            emit(out, &cmd, &data, |md| fig3::render(&data, md))?;
        }
        Verb::Table1 => {
            let counts = table1::measure();
            emit(out, &cmd, &counts, |md| table1::render(&counts, md))?;
        }
        Verb::Fig5 | Verb::Fig6 | Verb::Fig7 => {
            // Created before the run, so a path that cannot be written is
            // refused at once rather than after the grid.
            let trace_file = match &cmd.trace_out {
                Some(path) => Some(
                    std::fs::File::create(path)
                        .map_err(|e| unusable(format!("cannot create {}", path.display()), &e))?,
                ),
                None => None,
            };
            if let Some(dir) = &cmd.store {
                std::fs::create_dir_all(dir).map_err(|e| {
                    let what = format!("cannot create store directory {}", dir.display());
                    unusable(what, &e)
                })?;
            }
            let mut logs = Vec::new();
            let data = npbsuite::measure(
                &cmd.machine,
                threads,
                workers,
                trace_file.is_some().then_some(&mut logs),
                cmd.store.as_deref(),
                cmd.candidates,
            );
            if let Some((path, file)) = cmd.trace_out.as_ref().zip(trace_file) {
                // Each arm's records, in grid order, straight from its log.
                let mut file = io::BufWriter::new(file);
                logs.iter()
                    .try_for_each(|log| {
                        let log = log.lock().expect("the arm that wrote it has returned");
                        write_jsonl(log.records(), &mut file)
                    })
                    .and_then(|()| file.flush())
                    .map_err(|e| failed(format!("cannot write {}: {e}", path.display())))?;
                eprintln!("telemetry trace written to {}", path.display());
            }
            emit(out, &cmd, &data, |md| {
                let figure = match cmd.verb {
                    Verb::Fig5 => data.fig5(),
                    Verb::Fig6 => data.fig6(),
                    _ => data.fig7(),
                };
                figure.render(md) + &data.deployments().render(md)
            })?;
            if let Some(dir) = &cmd.store {
                eprintln!(
                    "profiles persisted to {} (rerun with the same --store to warm-start)",
                    dir.display()
                );
            }
        }
        Verb::Static => {
            let cells = staticnpb::measure(&cmd.machine, threads, workers);
            emit(out, &cmd, &cells, |md| {
                staticnpb::render(&cells, &cmd.machine.name, md)
            })?;
        }
        Verb::All => {
            writeln!(out, "# COBRA reproduction — measured results\n")?;
            writeln!(out, "## Figure 2\n")?;
            writeln!(out, "```\n{}```\n", fig2::run())?;
            writeln!(out, "## Figure 3\n")?;
            let f3 = fig3::measure(cmd.reps, workers);
            writeln!(out, "{}", fig3::render(&f3, md))?;
            writeln!(out, "## Table 1\n")?;
            writeln!(out, "{}", table1::render(&table1::measure(), md))?;
            let suites = [MachineConfig::smp4(), MachineConfig::altix8()]
                .map(|cfg| npbsuite::measure(&cfg, cfg.num_cpus, workers, None, None, false));
            for s in &suites {
                writeln!(
                    out,
                    "## Figures 5-7 ({}, {} threads)\n",
                    s.machine, s.threads
                )?;
                writeln!(out, "{}", npbsuite::render(s, md))?;
            }
            writeln!(out, "## Cross-machine shape checks\n")?;
            for (desc, ok) in npbsuite::shape_checks(&suites[0], &suites[1]) {
                writeln!(out, "  [{}] {}", if ok { "ok" } else { "MISS" }, desc)?;
            }
        }
        Verb::Trace => {
            let file = &cmd.paths[0];
            let f = std::fs::File::open(file)
                .map_err(|e| unusable(format!("cannot read {}", file.display()), &e))?;
            let records = read_jsonl(f)
                .map_err(|e| unusable(format!("malformed trace {}", file.display()), &e))?;
            writeln!(out, "trace {} —", file.display())?;
            // Every run opens with its `Attach`, so a file of several runs
            // splits there; each is replayed into the report it produced.
            let opens_a_run =
                |r: &TelemetryRecord| matches!(r.event, TelemetryEvent::Attach { .. });
            for (n, run) in records.chunk_by(|_, next| !opens_a_run(next)).enumerate() {
                print_run(out, n, run)?;
            }
        }
        Verb::ProfileSave => {
            let bench = cmd.bench.as_deref().unwrap_or("bt");
            let store = cmd.store.as_deref().expect(CHECKED);
            let msg = profilecmd::save(bench, &cmd.machine, threads, store)
                .map_err(|e| Failure::Failed(format!("profile save failed: {e}")))?;
            writeln!(out, "{msg}")?;
        }
        Verb::ProfileInspect => {
            let text = profilecmd::inspect(&cmd.paths[0])
                .map_err(|e| unusable("profile inspect".into(), &e))?;
            write!(out, "{text}")?;
        }
        Verb::ProfileMerge => {
            let file = cmd.out.as_deref().expect(CHECKED);
            let msg = profilecmd::merge(&cmd.paths, file, cmd.max_age_runs).map_err(failed)?;
            write!(out, "{msg}")?;
        }
        Verb::VerifyImage | Verb::VerifySnapshot => {
            let outcome = match cmd.verb {
                Verb::VerifyImage => verifycmd::image(cmd.bench.as_deref(), &cmd.machine),
                _ => verifycmd::snapshot(&cmd.paths[0]),
            }
            .map_err(|e| unusable(cmd.verb.name().into(), &e))?;
            write!(out, "{}", outcome.text)?;
            if outcome.violations > 0 {
                let n = outcome.violations;
                return Err(Failure::Failed(format!("verify: {n} violation(s)")));
            }
        }
        Verb::FleetServe => {
            let (dir, horizon) = (cmd.dir.as_deref(), cmd.max_age_runs);
            match fleetcmd::serve(addr(), dir, cmd.shards, horizon, out).map_err(failed)? {}
        }
        Verb::FleetUpload => {
            let text = fleetcmd::upload(addr(), &cmd.paths[0]).map_err(failed)?;
            write!(out, "{text}")?;
        }
        // A malformed key is a failed fetch (exit 1), not a usage error.
        Verb::FleetFetch => {
            let text = fleetcmd::parse_key(cmd.key.as_deref().expect(CHECKED))
                .and_then(|key| fleetcmd::fetch(addr(), &key, cmd.out.as_deref()))
                .map_err(failed)?;
            write!(out, "{text}")?;
        }
        Verb::FleetStats => write!(out, "{}", fleetcmd::stats(addr()).map_err(failed)?)?,
    }
    Ok(())
}

/// [`parse`] then [`run`]: everything `cobra-repro ARGS...` does short of
/// setting the exit status.
pub fn invoke(args: &[String], out: &mut dyn Write) -> Result<(), Failure> {
    run(parse(args).map_err(Failure::Usage)?, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const NUMERIC: [Flag; 4] = [Reps, Workers, MaxAgeRuns, Shards];

    /// `flag` as a user would give it, with a value its kind accepts.
    fn given(flag: Flag) -> Vec<String> {
        let (spelling, value) = flag.spelling();
        let sample = match flag {
            Machine => "altix8",
            _ if NUMERIC.contains(&flag) => "3",
            _ => "some/value",
        };
        let value = value.map(|_| sample.to_string());
        std::iter::once(spelling.to_string()).chain(value).collect()
    }

    /// `verb`'s name, its required flags (but for `leave_out`) and its
    /// positional argument.
    fn command_line(verb: Verb, leave_out: Option<Flag>) -> Vec<String> {
        let (name, required, _, positional) = verb.grammar();
        let mut args: Vec<String> = name.split(' ').map(String::from).collect();
        let kept = required.iter().filter(|f| Some(**f) != leave_out);
        args.extend(kept.flat_map(|f| given(*f)));
        if !matches!(positional, Positional::None) {
            args.push("some/path".into());
        }
        args
    }

    /// The shortest command line `verb` accepts.
    fn minimal(verb: Verb) -> Vec<String> {
        command_line(verb, None)
    }

    /// The message of the usage error `args` must be: one line.
    fn refused(args: &[String]) -> String {
        let Err(Usage(msg)) = parse(args) else {
            panic!("{args:?} must be a usage error");
        };
        assert_eq!(msg.lines().count(), 1, "one line: {msg}");
        msg
    }

    #[test]
    fn every_command_takes_exactly_the_flags_in_its_row() {
        for verb in Verb::ALL {
            let (name, required, optional, _) = verb.grammar();
            assert_eq!(parse(&minimal(verb)).expect(name).verb, verb);
            for flag in Flag::ALL {
                let args = [minimal(verb), given(flag)].concat();
                if required.contains(&flag) || optional.contains(&flag) {
                    assert_eq!(parse(&args).expect(name).verb, verb, "{args:?}");
                    assert!(verb.usage().contains(flag.spelling().0));
                } else {
                    let msg = refused(&args);
                    let says = format!("{} is not valid for {name}", flag.spelling().0);
                    assert!(msg.starts_with(&says), "{args:?}: {msg}");
                    assert!(!verb.usage().contains(flag.spelling().0));
                }
            }
        }
    }

    #[test]
    fn a_missing_or_malformed_value_is_a_usage_error_never_a_panic() {
        for verb in Verb::ALL {
            let (_, required, optional, _) = verb.grammar();
            for flag in required.iter().chain(optional) {
                let (spelling, Some(_)) = flag.spelling() else {
                    continue;
                };
                let mut args = minimal(verb);
                args.push(spelling.into());
                let msg = refused(&args);
                assert!(
                    msg.starts_with(&format!("{spelling} needs a value")),
                    "{msg}"
                );
                if NUMERIC.contains(flag) {
                    for bad in ["abc", "-1", "1.5", ""] {
                        let msg = refused(&[args.clone(), vec![bad.into()]].concat());
                        assert!(
                            msg.contains(spelling) && msg.contains("not a number"),
                            "{msg}"
                        );
                    }
                }
                if matches!(flag, Workers | MaxAgeRuns) {
                    let msg = refused(&[args.clone(), vec!["0".into()]].concat());
                    assert_eq!(msg, format!("{spelling} must be at least 1"));
                }
            }
        }
        let msg = refused(&["fig5", "--machine", "cray"].map(String::from));
        assert!(msg.contains("unknown machine cray"), "{msg}");
        let msg = refused(&["fig5", "--turbo"].map(String::from));
        assert_eq!(msg, "unknown option --turbo");
    }

    #[test]
    fn a_required_flag_or_positional_left_out_is_a_usage_error() {
        for verb in Verb::ALL {
            let (name, required, _, positional) = verb.grammar();
            for flag in required {
                let args = command_line(verb, Some(*flag));
                assert_eq!(refused(&args), format!("{name} requires {flag}"));
            }
            let mut args = minimal(verb);
            match positional {
                Positional::Many(_) => continue,
                Positional::One(_) => assert!(args.pop().is_some()),
                Positional::None => args.push("stray".into()),
            }
            assert_eq!(refused(&args), format!("usage: {}", verb.usage()));
        }
        let twice = ["trace", "a.jsonl", "b.jsonl"].map(String::from);
        assert_eq!(refused(&twice), "usage: cobra-repro trace FILE");
    }

    #[test]
    fn unknown_commands_and_bare_groups_say_what_exists() {
        let msg = refused(&["bogus".to_string()]);
        assert!(msg.contains("unknown command bogus"), "{msg}");
        assert!(msg.ends_with("|all|trace|profile|verify|fleet"), "{msg}");
        for group in ["profile", "verify", "fleet"] {
            let msg = refused(&[group, "bogus"].map(String::from));
            assert!(
                msg.starts_with(&format!("unknown {group} command bogus")),
                "{msg}"
            );
            // A bare group is the one error longer than a line: its rows.
            let Err(Usage(listing)) = parse(&[group.to_string()]) else {
                panic!("bare {group} must be a usage error");
            };
            let rows = Verb::ALL.iter().filter(|v| v.name().starts_with(group));
            assert_eq!(listing.lines().count(), 1 + rows.count(), "{listing}");
        }
        assert_eq!(parse(&[]).expect("no arguments means all").verb, Verb::All);
        for alias in ["fig3", "fig3a", "fig3b"] {
            assert_eq!(parse(&[alias.to_string()]).expect(alias).verb, Verb::Fig3);
        }
    }

    #[test]
    fn failures_carry_their_exit_status() {
        let invoke = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            super::invoke(&args, &mut Vec::new()).expect_err("must fail")
        };
        // The command line itself, and a path that cannot be read: 2.
        assert_eq!(invoke(&["fig2", "--md"]).exit_code(), 2);
        assert_eq!(invoke(&["trace", "/nonexistent/t.jsonl"]).exit_code(), 2);
        assert_eq!(
            invoke(&["profile", "inspect", "/nonexistent"]).exit_code(),
            2
        );
        // A command that ran and could not do its work: 1.
        let failure = invoke(&[
            "profile",
            "merge",
            "--out",
            "/nonexistent/m",
            "/nonexistent",
        ]);
        assert_eq!(failure.exit_code(), 1);
        assert!(
            failure.to_string().starts_with("profile merge: "),
            "{failure}"
        );
    }
}
