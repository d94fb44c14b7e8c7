//! # livephase-cli
//!
//! The `livephase` command-line tool: phase characterization, prediction,
//! and DVFS management from a shell, over either the built-in SPEC
//! CPU2000 stand-ins or replayed counter logs.
//!
//! ```text
//! livephase list
//! livephase characterize applu_in
//! livephase predict applu_in --predictor gpht:8:128
//! livephase govern applu_in --policy gpht
//! livephase export applu_in --out applu.csv
//! livephase replay applu.csv --policy reactive
//! livephase repro fig04
//! livephase repro all
//! livephase tenants --tenants 64 --cores 8 --budget 75 --noisy 8
//! livephase serve --port 9626 --shards 4
//! livephase serve-bench 127.0.0.1:9626 --conns 8
//! livephase metrics 127.0.0.1:9626
//! ```
//!
//! The crate is a thin, dependency-free argument layer over the workspace
//! libraries; every command is a pure function from parsed arguments to a
//! report string, so the whole surface is unit-testable. Every command
//! and flag is declared once, in [`args::COMMANDS`] and [`args::FLAGS`]:
//! [`args::parse`] reads those tables and [`usage`] renders them, and a
//! unit test parses every command line README shows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod args;
pub mod commands;
pub mod spec;

use args::CliError;
use std::fmt::Write as _;

/// Executes a full command line (excluding `argv[0]`), returning the
/// text to print on success.
///
/// # Errors
///
/// Returns a [`CliError`] with a user-facing message (and usage text)
/// when the command line is malformed or names unknown entities.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let parsed = args::parse(argv)?;
    commands::dispatch(&parsed)
}

/// The top-level usage text, rendered from [`args::COMMANDS`] and
/// [`args::FLAGS`]: each command and flag appears once.
#[must_use]
pub fn usage() -> String {
    fn entry(out: &mut String, syntax: &str, help: &str) {
        let mut lines = help.lines();
        let _ = writeln!(out, "  {syntax:<23} {}", lines.next().unwrap_or_default());
        for line in lines {
            let _ = writeln!(out, "{:26}{line}", "");
        }
    }
    let mut out = String::from(
        "livephase — runtime phase monitoring, prediction and DVFS management\n\n\
         USAGE:\n  livephase <command> [arguments] [options]\n\nCOMMANDS:\n",
    );
    for command in args::COMMANDS {
        entry(&mut out, &command.syntax(), command.help);
    }
    let mut section = "";
    for flag in args::FLAGS {
        if flag.section != section {
            section = flag.section;
            let _ = write!(out, "\n{section}:\n");
        }
        entry(&mut out, &flag.syntax(), flag.help);
    }
    out
}
