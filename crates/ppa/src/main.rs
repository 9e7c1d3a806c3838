//! `ppa`: assemble reads, or reproduce the paper's tables. Run `ppa --help`
//! for the modes, flags and exit statuses.

use std::process::ExitCode;

fn main() -> ExitCode {
    match ppa::parse(std::env::args().skip(1)).and_then(ppa::run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) => {
            eprintln!("ppa: {}", failure.message);
            ExitCode::from(failure.code)
        }
    }
}
