//! The `darksil` command-line tool. All logic lives in
//! `darksil::cli` so it stays unit-testable; this shim only
//! adapts process arguments and exit codes, and points the
//! execution engine at the requested `--jobs` worker count.
//!
//! Exit codes: 0 on success (and for `--help`), 1 on a runtime
//! failure, 2 on a usage error (unknown flag, malformed value — e.g. a
//! non-positive `trace summarize --top`), matching the Unix convention
//! that lets scripts tell "you called me wrong" from "the work failed".

use std::env;
use std::process::ExitCode;

/// Exit code for usage errors (bad flags/arguments).
const EXIT_USAGE: u8 = 2;

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let (command, jobs) = match darksil::cli::parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", darksil::cli::usage());
            return ExitCode::from(EXIT_USAGE);
        }
    };
    if let Some(jobs) = jobs {
        darksil_engine::set_default_jobs(jobs);
    }
    match darksil::cli::run(&command) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
