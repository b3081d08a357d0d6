//! `cobra-repro` — regenerate the COBRA paper's tables and figures, and
//! operate the profile store, the verifier and the fleet server.
//!
//! ```text
//! cobra-repro fig2|fig3|table1|fig5|fig6|fig7|static|all [flags]
//! cobra-repro trace FILE               # summarize a --trace-out JSONL
//! cobra-repro profile save|inspect|merge ...
//! cobra-repro verify image|snapshot ...
//! cobra-repro fleet serve|upload|fetch|stats ...
//! ```
//!
//! The grammar, one row per command with the flags it takes, and what each
//! command does are `cobra_harness::cli`; a bare `profile`, `verify` or
//! `fleet` prints its rows. This file only turns the outcome into an exit
//! status: 0 on success, 2 for a command line or path that cannot be used,
//! 1 for a command that ran and failed or a lint with findings.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(failure) = cobra_harness::cli::invoke(&args, &mut std::io::stdout().lock()) {
        eprintln!("{failure}");
        std::process::exit(failure.exit_code());
    }
}
