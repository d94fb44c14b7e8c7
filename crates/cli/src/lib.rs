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
//! report string, so the whole surface is unit-testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod args;
pub mod commands;
pub mod spec;

use args::CliError;

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

/// The top-level usage text.
#[must_use]
pub fn usage() -> String {
    "livephase — runtime phase monitoring, prediction and DVFS management\n\
     \n\
     USAGE:\n\
     \x20 livephase <command> [arguments] [options]\n\
     \n\
     COMMANDS:\n\
     \x20 list                          list the built-in benchmarks\n\
     \x20 characterize <bench>          stability / savings statistics\n\
     \x20 predict <bench>               run a phase predictor, report accuracy\n\
     \x20 govern <bench>                run DVFS management, report EDP\n\
     \x20 export <bench> --out <file>   write the trace as CSV\n\
     \x20 replay <file.csv>             govern a replayed counter log\n\
     \x20 repro <artifact>              regenerate a paper table/figure, ablation\n\
     \x20                               or extension; `ablations`/`extensions` run\n\
     \x20                               each group, `all` the paper and rewrites\n\
     \x20                               EXPERIMENTS.md + results/*.csv\n\
     \x20                               (exit 0 claims hold, 1 violations)\n\
     \x20 tenants                       run a multi-tenant cluster under a power cap\n\
     \x20 serve                         run the phase-prediction TCP daemon\n\
     \x20 serve-bench <addr>            load-test a running daemon\n\
     \x20 metrics <addr> [--json]       scrape a running daemon's telemetry\n\
     \x20 lint [--json]                 run the workspace invariant linter\n\
     \x20                               (exit 0 clean, 1 findings, 2 error)\n\
     \x20 --baseline <file>             lint: committed `lint --json` report whose\n\
     \x20                               recorded findings are reported, not gating\n\
     \x20 bench                         run the calibrated benchmark harness\n\
     \x20 power-zoo                     train/validate the power-model zoo and\n\
     \x20                               race the backends under a power cap\n\
     \x20                               (exit 0 gates hold, 1 violations)\n\
     \n\
     OPTIONS:\n\
     \x20 --seed <n>            workload seed (default 42)\n\
     \x20 --length <n>          trace length in sampling intervals\n\
     \x20 --power-model <name>  analytic | linear | tree — power backend for\n\
     \x20                       serve, tenants and `repro power_cap` (learned\n\
     \x20                       backends are fitted on the power-zoo harvest;\n\
     \x20                       default analytic)\n\
     \x20 --predictor <spec>    lastvalue | markov | fixwindow:<n> |\n\
     \x20                       varwindow:<n>:<thr> | gpht:<depth>:<entries> |\n\
     \x20                       hashedgpht:<depth>:<entries> (govern and\n\
     \x20                       replay take one only with --policy gpht)\n\
     \x20 --policy <name>       baseline | reactive | gpht | oracle | conservative\n\
     \x20 --out <file>          output path for `export`\n\
     \n\
     SERVE OPTIONS:\n\
     \x20 --port <n>            TCP port (default 0 = ephemeral; the bound\n\
     \x20                       address is printed as `listening on <addr>`)\n\
     \x20 --shards <n>          shard owner threads (default 4)\n\
     \x20 --max-conns <n>       concurrent-connection accept gate (default 256)\n\
     \x20 --exit-after-conns <n> exit after admitting and draining n connections\n\
     \x20 --read-timeout-ms <n> socket timeout (default 5000)\n\
     \x20 --max-outbound <n>    per-connection outbound queue cap in bytes\n\
     \x20                       (default 262144; slow consumers over it are shed)\n\
     \x20 --sndbuf <n>          socket send-buffer size in bytes\n\
     \x20 --log-json            emit trace events as JSON lines\n\
     \n\
     SERVE-BENCH OPTIONS:\n\
     \x20 --conns <n>           connections, all held open at once (default 8)\n\
     \x20 --window <n>          samples in flight per connection (default 64)\n\
     \x20 --bench <a,b,...>     benchmark subset (default: all 33)\n\
     \x20 --no-check            skip the in-process oracle agreement pass\n\
     \n\
     TENANTS OPTIONS:\n\
     \x20 --tenants <n>         tenant VM count M (default 8)\n\
     \x20 --cores <n>           simulated core count K (default 2)\n\
     \x20 --budget <w>          cluster power budget in watts (default 60)\n\
     \x20 --length <n>          trace length per tenant in sampling intervals\n\
     \x20 --quantum <n>         scheduling credit per tenant per epoch in uops\n\
     \x20                       (default 25000000; at least 97657, so a\n\
     \x20                       sampling interval is cut into <= 1024 quanta)\n\
     \x20 --arbiter <name>      power-cap policy: waterfill | priority\n\
     \x20 --mix <a,b,...>       benchmark mix cycled across tenants\n\
     \x20 --noisy <n>           noisy-neighbor tenants (highest ids; they run\n\
     \x20                       the most memory-bound benchmark at 4x credit)\n\
     \x20 --metrics             append the telemetry exposition to the report\n\
     \n\
     BENCH OPTIONS:\n\
     \x20 --areas <a,b,...>     bench-area subset (default: all)\n\
     \x20 --iters <n>           timed iterations per area (default 30)\n\
     \x20 --warmup <n>          untimed warmup iterations per area (default 3)\n\
     \x20 --json                write one BENCH_<area>.json record per area\n\
     \x20 --out <dir>           directory for --json records (default .)\n\
     \x20 --gate                judge records against calibrated thresholds\n\
     \x20                       (exit 0 pass/skip, 1 findings, 2 error)\n\
     \x20 --multiplier <x>      gate headroom over the expected ratio\n\
     \x20                       (default 5.0; strict CI uses 2.0)\n\
     \x20 --profile             append the timed_span! hot-path table\n\
     \x20 --compare <a> <b>     diff two BENCH_*.json snapshot directories on\n\
     \x20                       their calibrated ratios instead of measuring\n\
     \x20                       (exit 0 clean, 1 regressions past +15%)\n"
        .to_owned()
}
