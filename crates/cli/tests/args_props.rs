//! Structure-aware fuzzing of `args::parse`. The argv is built from the
//! real command names and flags (drawn from `args::COMMANDS` and
//! `args::FLAGS`, the tables the parser itself reads) with hostile
//! values, unknown flags, duplicated positionals and truncated tails.
//! Every case parses or fails as a usage error, exit code 2; none
//! panics.

use livephase_cli::args::{parse, COMMANDS, FLAGS};
use proptest::collection::vec;
use proptest::prelude::*;

/// Values no flag should choke on: empty, flag-like, non-numeric,
/// zero, one past `u64::MAX`, a port past `u16::MAX`, and plausible
/// ones.
const HOSTILE: [&str; 13] = [
    "",
    "-x",
    "nan",
    "0",
    "18446744073709551616",
    "70000",
    "-1",
    "inf",
    "1e308",
    "applu_in",
    "a,,b",
    "8",
    "0.5",
];

/// Options `parse` does not know.
const UNKNOWN: [&str; 4] = ["--bogus", "--SEED", "---seed", "-"];

/// Every command name, plus the help spellings and one unknown
/// command.
fn commands() -> Vec<String> {
    COMMANDS
        .iter()
        .map(|c| c.name)
        .chain(["--help", "-h", "bogus"])
        .map(str::to_owned)
        .collect()
}

/// Every `--flag`.
fn flags() -> Vec<String> {
    FLAGS.iter().map(|f| f.name.to_owned()).collect()
}

/// One argv fragment: a flag with a hostile value, a bare flag, an
/// unknown option, a positional, or `--compare` with one directory.
fn fragment() -> impl Strategy<Value = (u8, usize, usize)> {
    (0..5u8, 0..1000usize, 0..1000usize)
}

fn build(flags: &[String], kind: u8, a: usize, b: usize) -> Vec<String> {
    let flag = flags[a % flags.len()].clone();
    let value = HOSTILE[b % HOSTILE.len()].to_owned();
    match kind {
        0 => vec![flag, value],
        1 => vec![flag],
        2 => vec![UNKNOWN[a % UNKNOWN.len()].to_owned()],
        3 => vec![value],
        _ => vec!["--compare".to_owned(), value],
    }
}

#[test]
fn the_generator_draws_from_the_real_cli() {
    let commands = commands();
    for c in ["list", "replay", "serve-bench", "power-zoo", "help"] {
        assert!(commands.iter().any(|x| x == c), "{c}: {commands:?}");
    }
    let flags = flags();
    for f in ["--port", "--compare", "--budget", "--gate"] {
        assert!(flags.iter().any(|x| x == f), "{f}: {flags:?}");
    }
}

#[test]
fn pinned_hostile_values_are_usage_errors() {
    for argv in [
        "serve --port 70000",
        "govern applu_in --seed 18446744073709551616",
        "tenants --budget nan",
        "tenants --budget inf",
        "tenants --quantum 0",
        "govern applu_in --length 0",
        "bench --multiplier -x",
        "bench --compare only_one",
        "bench --compare a -x",
        "govern applu_in applu_in",
        "govern applu_in --policy",
        "govern applu_in --bogus",
        "bogus",
        "lint",
        "list extra",
    ] {
        let args: Vec<String> = argv.split(' ').map(str::to_owned).collect();
        let err = parse(&args).expect_err(argv);
        assert_eq!(err.code(), 2, "{argv}: {err}");
    }
}

proptest! {
    #[test]
    fn parse_never_panics_and_fails_only_as_a_usage_error(
        command in 0..1000usize,
        fragments in vec(fragment(), 0..7),
        cut in 0..3usize,
    ) {
        let commands = commands();
        let flags = flags();
        let mut argv = vec![commands[command % commands.len()].clone()];
        for (kind, a, b) in fragments {
            argv.extend(build(&flags, kind, a, b));
        }
        // Cut the tail: a flag loses its value, `--compare` its second
        // directory.
        let keep = argv.len().saturating_sub(cut).max(1);
        argv.truncate(keep);
        if let Err(e) = parse(&argv) {
            prop_assert_eq!(e.code(), 2, "{:?}: {}", argv, e);
        }
    }
}
