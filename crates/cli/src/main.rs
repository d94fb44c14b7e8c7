//! The `livephase` command-line entry point.
//!
//! Exit codes: 0 on success; 1 when a gate command (`repro`,
//! `power-zoo`, `bench --gate`, `bench --compare`) completed and found
//! violations, with the report on stdout; 2 for usage, I/O,
//! and other operational errors, reported on stderr. A reader that
//! closes stdout early (`livephase-cli ... | head`) is not an error: the
//! command exits with the code it would have had.

use std::io::{ErrorKind, Write};

/// Writes the report to stdout. A closed pipe is a clean exit; any other
/// write error exits 2.
fn emit(report: &dyn std::fmt::Display) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = writeln!(out, "{report}").and_then(|()| out.flush()) {
        if e.kind() != ErrorKind::BrokenPipe {
            eprintln!("error: writing the report to stdout: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match livephase_cli::run(&argv) {
        Ok(report) => emit(&report),
        Err(e) => {
            if e.code() == 1 {
                // A gate failure's message is the report itself.
                emit(&e);
            } else {
                eprintln!("error: {e}");
            }
            std::process::exit(e.code());
        }
    }
}
