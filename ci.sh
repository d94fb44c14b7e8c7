#!/usr/bin/env bash
# CI gate: formatting, lints, then the tier-1 build + test cycle.
set -euo pipefail
cd "$(dirname "$0")"

# Code size, informational only (no threshold): each file's lines before
# its first column-0 `#[cfg(test)]`, over crates/*/src, src/ and
# examples/ (ROADMAP's counting rule).
non_test_lines=$(find crates/*/src src examples -name '*.rs' -exec \
    awk '/^#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' {} + \
    | awk '{ s += $1 } END { print s + 0 }')
echo "non-test lines: $non_test_lines"

cargo fmt --all -- --check
# Every member's lib target is linted in non-test cfg here, so the hot-path
# invariants the hot-path crates raise in their non-test library code
# (no panic, no wall clock, env read or hash order, no undocumented
# unsafe; DESIGN.md §3f) gate too, and so does a stale #[expect]
# (unfulfilled_lint_expectations): -D warnings makes each an error.
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc: a broken or private intra-doc link is an error, not a
# warning nobody reads.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
# --workspace: the root façade package alone would skip the member
# crates (and leave target/release/livephase-cli stale for the smoke
# test below).
cargo build --release --workspace --lib --bins --examples

cli=target/release/livephase-cli

# The simplification bar (ROADMAP): a refactor must leave every published
# artifact byte-identical. `repro all` regenerates EXPERIMENTS.md and
# results/*.csv (and exits 1 on a shape violation); any diff against the
# committed copies fails the gate.
repro_out=$("$cli" repro all) || { echo "$repro_out"; echo "repro all failed"; exit 1; }
# The rest of the published runs that two executions reproduce byte for
# byte: the extensions, ablations, power zoo, govern, tenants, predict
# and example outputs, regenerated into results/golden/ so the same
# diff covers them. Like EXPERIMENTS.md they pin libm's cos and ln
# through workload generation's Box–Muller normals; the DAQ noise
# touches libm (exp, ln) only in its ziggurat's rare wedge and tail draws.
golden=results/golden
mkdir -p "$golden"
for e in overheads confidence oracle_gap dtm power_cap adaptive_sampling; do
    "$cli" repro "$e" > "$golden/repro_$e.txt"
done
"$cli" repro power_cap --power-model analytic > "$golden/repro_power_cap_analytic.txt"
"$cli" power-zoo > "$golden/power_zoo.txt"
"$cli" repro ablations > "$golden/ablations.txt"
"$cli" repro extensions > "$golden/extensions.txt"
for p in baseline reactive gpht oracle conservative; do
    "$cli" govern applu_in --policy "$p" > "$golden/govern_$p.txt"
done
for a in waterfill priority; do
    "$cli" tenants --tenants 6 --cores 2 --budget 20 --noisy 1 --length 6 \
        --arbiter "$a" > "$golden/tenants_$a.txt"
done
for s in gpht:8:1024 hashedgpht:8:128 gpht:17:64 fixwindow:8 fixwindow:128 \
    fixwindow:16384 varwindow:128:0.005 varwindow:128:0.03; do
    "$cli" predict applu_in --predictor "$s" > "$golden/predict_${s//:/_}.txt"
done
for x in custom_phases dvfs_manager predictor_showdown quickstart replay_trace \
    thermal_manager; do
    "target/release/examples/$x" > "$golden/example_$x.txt"
done
untracked=$(git ls-files --others --exclude-standard -- "$golden")
[ -z "$untracked" ] || { echo "$untracked"; echo "golden outputs not committed"; exit 1; }
git diff --exit-code -- EXPERIMENTS.md results/ \
    || { echo "published outputs changed"; exit 1; }

# Predictor specs arrive from network clients: a size too large to
# build is a typed error (exit 2, `bad predictor spec`), never an
# allocation that aborts the process.
spec_rc=0
spec_out=$("$cli" predict applu_in --length 20 --predictor gpht:8:100000000000 2>&1) || spec_rc=$?
[ "$spec_rc" -eq 2 ] && echo "$spec_out" | grep -q 'bad predictor spec' \
    || { echo "$spec_out"; echo "oversized predictor spec: expected exit 2, got $spec_rc"; exit 1; }

# Trace CSV is the other hostile input: a row that parses but overflows
# the timing model (1e308 cycles per uop) is a typed error at the import
# boundary (exit 2, `bad row`), never a panic in the power model.
csv_dir=$(mktemp -d)
printf '%s\n%s\n' "uops,instructions,mem_transactions,cpi_core,mlp" \
    "100000000,80000000,100000000,1e308,1" > "$csv_dir/hostile.csv"
csv_rc=0
csv_out=$("$cli" replay "$csv_dir/hostile.csv" 2>&1) || csv_rc=$?
[ "$csv_rc" -eq 2 ] && echo "$csv_out" | grep -q 'bad row' \
    || { echo "$csv_out"; echo "hostile CSV row: expected exit 2, got $csv_rc"; exit 1; }
# A row of u64::MAX uops is ≈1.8e11 PMIs, a replay that practically
# never ends. A row above 1024 PMIs' worth of uops is a typed error
# (exit 2, `bad row`); the timeout turns a regression into a failure.
printf '%s\n%s\n' "uops,instructions,mem_transactions,cpi_core,mlp" \
    "18446744073709551615,80000000,1200000,0.8,2" > "$csv_dir/huge.csv"
huge_rc=0
huge_out=$(timeout 10 "$cli" replay "$csv_dir/huge.csv" 2>&1) || huge_rc=$?
rm -rf "$csv_dir"
[ "$huge_rc" -eq 2 ] && echo "$huge_out" | grep -q 'bad row' \
    || { echo "$huge_out"; echo "u64::MAX-uop CSV row: expected exit 2, got $huge_rc"; exit 1; }

# A scheduling quantum is a context switch, so at 1 uop one sampling
# interval is 10^8 quanta and a run practically never ends. A quantum
# below 1/1024 of an interval is a typed error (exit 2, `invalid
# scenario`); the timeout turns a regression into a failure, not a hang.
quantum_rc=0
quantum_out=$(timeout 10 "$cli" tenants --tenants 2 --cores 1 --length 2 --quantum 1 2>&1) \
    || quantum_rc=$?
[ "$quantum_rc" -eq 2 ] && echo "$quantum_out" | grep -q 'invalid scenario' \
    || { echo "$quantum_out"; echo "1-uop quantum: expected exit 2, got $quantum_rc"; exit 1; }

cargo test -q --workspace
# The engine-equivalence bar explicitly: the governor, the serve shards,
# and the raw engine must emit bit-identical decision streams. (Also part
# of the workspace run above; named here so a failure reads as what it is.)
cargo test -q --test engine_equivalence
# The exact counts hold in release as well as in debug: the four
# counting-allocator tests, and the daq unit tests (normals per instant,
# the lockstep capture against the one-instant chain, noise drawn inline
# and on a producer thread). The capture's
# speed comes from inlining and register allocation, which only the
# optimiser does, so its equivalence is checked on the code it makes.
cargo test -q --release -p livephase-core -p livephase-engine -p livephase-daq \
    -p livephase-tenants --test no_alloc
cargo test -q --release -p livephase-daq --lib
# The Figure 10 capture in release: two million sample instants, the
# pipelined capture's producer thread racing the traces hardest, must
# still give the pinned logs.
cargo test -q --release -p livephase-experiments --test fig10_fingerprint

# Loopback smoke test: a real server process, a real load generator, a
# bit-exactness check against the in-process manager, and a telemetry
# scrape over the same wire protocol.
"$cli" serve --port 0 --shards 2 --exit-after-conns 2 --read-timeout-ms 2000 \
    > serve_smoke.log &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -f serve_smoke.log' EXIT
for _ in $(seq 50); do
    grep -q '^listening on ' serve_smoke.log && break
    sleep 0.1
done
addr=$(sed -n 's/^listening on //p' serve_smoke.log)
[ -n "$addr" ] || { echo "serve never announced its address"; exit 1; }
bench_out=$("$cli" serve-bench "$addr" --conns 1 --bench swim_in --length 60 --window 16)
echo "$bench_out"
echo "$bench_out" | grep -q 'decisions 60' || { echo "smoke: expected 60 decisions"; exit 1; }
echo "$bench_out" | grep -q '1/1 benchmarks bit-exact' || { echo "smoke: divergence"; exit 1; }
echo "$bench_out" | grep -q 'concurrent connections peak 1' \
    || { echo "smoke: the one connection was not held open"; exit 1; }

# Scrape the exposition the bench traffic produced (second connection).
metrics_out=$("$cli" metrics "$addr")
echo "$metrics_out" | grep -q '^# TYPE serve_connections_total counter' \
    || { echo "smoke: serve_connections_total missing from scrape"; exit 1; }
conns=$(echo "$metrics_out" | sed -n 's/^serve_connections_total //p')
[ -n "$conns" ] && [ "$conns" -ge 1 ] \
    || { echo "smoke: serve_connections_total is absent or zero"; exit 1; }
echo "$metrics_out" | grep -q '^serve_frame_decode_us_bucket{' \
    || { echo "smoke: frame-latency histogram missing from scrape"; exit 1; }
echo "$metrics_out" | grep -q '^governor_decisions_total ' \
    || { echo "smoke: governor decision counter missing from scrape"; exit 1; }
# The power gauge is set from the last flushed decision, priced at the
# configured backend's worst-case bound; the bench traffic above decided
# on at least one shard, so some shard's gauge must be positive.
echo "$metrics_out" | grep -q '^serve_power_estimate_mw{' \
    || { echo "smoke: power-estimate gauge missing from scrape"; exit 1; }
echo "$metrics_out" | sed -n 's/^serve_power_estimate_mw{[^}]*} //p' | grep -qv '^0$' \
    || { echo "smoke: no shard priced its last decision"; exit 1; }
# The scrape is the server's one counter surface. This server process
# is fresh and the scrape connection sends no samples, so the per-shard
# sample counters sum to exactly the bench's 60.
shard_samples=$(echo "$metrics_out" | sed -n 's/^serve_shard_samples_total{[^}]*} //p' \
    | awk '{ sum += $1 } END { print sum + 0 }')
[ "$shard_samples" -eq 60 ] \
    || { echo "smoke: serve_shard_samples_total sums to $shard_samples, expected 60"; exit 1; }

wait "$serve_pid" || { echo "smoke: serve exited non-zero"; exit 1; }
grep -q 'served 2 connections' serve_smoke.log || { echo "smoke: bad serve summary"; exit 1; }
rm -f serve_smoke.log
echo "serve loopback smoke test passed"

# Multi-tenant smoke gate: a small cluster scenario under a binding
# power cap must run deterministically under both arbiter policies
# (byte-identical reports across two runs: the cluster decision digest,
# which covers every tenant's sample and decision stream, plus the
# per-tenant time, energy and denial counts the grants determine) and
# export the arbiter's grant/denial telemetry. The first run of each
# policy is the golden loop's, with the same arguments.
tenants_args="--tenants 6 --cores 2 --budget 20 --noisy 1 --length 6"
for policy in waterfill priority; do
    run=$("$cli" tenants $tenants_args --arbiter "$policy")
    digest=$(echo "$run" | sed -n 's/^cluster decision digest //p')
    [ -n "$digest" ] || { echo "tenants: no cluster decision digest in $policy output"; exit 1; }
    [ "$run" = "$(cat "$golden/tenants_$policy.txt")" ] \
        || { echo "tenants: $policy output diverged across identical runs"; exit 1; }
    echo "tenants $policy: identical across runs (digest $digest)"
done
# Timing histograms vary run to run, so the telemetry run is not diffed.
tenants_a=$("$cli" tenants $tenants_args --metrics)
echo "$tenants_a" | grep -q '^# TYPE tenants_arbiter_grants_total counter' \
    || { echo "tenants: arbiter grant counter missing from telemetry"; exit 1; }
echo "$tenants_a" | grep -q '^tenants_arbiter_denials_total{' \
    || { echo "tenants: a 20 W budget over 2 cores must deny someone"; exit 1; }
echo "$tenants_a" | grep -q '^tenants_context_switches_total ' \
    || { echo "tenants: context-switch counter missing from telemetry"; exit 1; }
echo "tenants smoke gate passed (waterfill and priority)"

# Reactor scale gate: 5000 concurrent connections through the epoll
# reactor, every stream held open at once and bit-exact against the
# in-process manager. Each side (server, load generator) needs one fd
# per connection plus headroom, so skip — loudly — where the fd limit
# cannot carry it rather than fail on an environment constraint.
REACTOR_GATE_CONNS=5000
nofile=$(ulimit -n)
if [ "$nofile" != "unlimited" ] && [ "$nofile" -lt $((REACTOR_GATE_CONNS + 200)) ]; then
    echo "SKIP reactor scale gate: ulimit -n is $nofile," \
         "need >= $((REACTOR_GATE_CONNS + 200)) to hold $REACTOR_GATE_CONNS" \
         "connections per process (raise with 'ulimit -n 8192')"
else
    "$cli" serve --port 0 --shards 2 --max-conns $((REACTOR_GATE_CONNS + 100)) \
        --read-timeout-ms 60000 --exit-after-conns "$REACTOR_GATE_CONNS" \
        > serve_scale.log &
    scale_pid=$!
    trap 'kill "$scale_pid" 2>/dev/null || true; rm -f serve_smoke.log serve_scale.log' EXIT
    for _ in $(seq 50); do
        grep -q '^listening on ' serve_scale.log && break
        sleep 0.1
    done
    addr=$(sed -n 's/^listening on //p' serve_scale.log)
    [ -n "$addr" ] || { echo "scale: serve never announced its address"; exit 1; }
    scale_out=$("$cli" serve-bench "$addr" --conns "$REACTOR_GATE_CONNS" \
        --length 8 --window 16 --read-timeout-ms 60000)
    echo "$scale_out"
    echo "$scale_out" | grep -q "concurrent connections peak $REACTOR_GATE_CONNS" \
        || { echo "scale: not every connection was held open concurrently"; exit 1; }
    echo "$scale_out" | grep -q "$REACTOR_GATE_CONNS/$REACTOR_GATE_CONNS benchmarks bit-exact" \
        || { echo "scale: served decisions diverged at scale"; exit 1; }
    wait "$scale_pid" || { echo "scale: serve exited non-zero"; exit 1; }
    rm -f serve_scale.log
    echo "reactor scale gate passed ($REACTOR_GATE_CONNS connections)"
fi

# Calibrated bench gate: every registered hot path must stay within a
# multiple of its committed expected ratio to the machine's own
# calibration baseline — no hardcoded milliseconds, so the gate gives
# the same verdict on a fast laptop and a slow CI runner. When the
# calibration is too noisy to trust, the harness prints a loud
# `bench gate: SKIP` and exits 0 rather than issue a meaningless
# verdict. The headroom is the default 5x: the calibration baseline
# itself is bimodal, so a tighter multiplier would fail on noise.
# (Captured, not piped: grep -q closing the pipe early would SIGPIPE
# the CLI mid-print.)
bench_out=$("$cli" bench --gate --json --out results/bench/ci-latest) \
    || { echo "$bench_out"; echo "bench gate: calibrated thresholds exceeded"; exit 1; }
echo "$bench_out"
echo "$bench_out" | grep -Eq 'bench gate: (PASS|SKIP)' \
    || { echo "bench gate: no verdict in output"; exit 1; }
# Every registered area writes its record and nothing else does. The
# list names all of them, so renaming, dropping or adding an area fails
# here until the list follows.
bench_areas="engine_step engine_step_many gpht_observe window_observe governor_run
pmsim_run_to_pmi daq_measure wire_encode wire_decode telemetry_record
telemetry_quantile workload_gen tenants_quantum tenants_arbitrate power_model_eval"
bench_written=$(echo "$bench_out" \
    | sed -n 's|^wrote results/bench/ci-latest/BENCH_\(.*\)\.json$|\1|p' | sort | tr '\n' ' ')
bench_expected=$(printf '%s\n' $bench_areas | sort | tr '\n' ' ')
[ "$bench_written" = "$bench_expected" ] || {
    echo "bench gate: records written: $bench_written"
    echo "bench gate: areas expected:  $bench_expected"
    exit 1
}

# Power-model zoo gate. Three claims, each enforced by exit codes and
# byte-level diffs rather than eyeballs:
#   1. The analytic backend is the bit-identical default: routing a
#      published artifact through `--power-model analytic` must produce
#      byte-identical output (the trait refactor changed no numbers).
#   2. `power-zoo` holds its train/validate gates — each learned backend
#      beats the naive frequency-only baseline and stays under the
#      committed held-out MAPE threshold (exit 1 on violation).
#   3. The zoo is deterministic: two runs at the same seed are
#      byte-identical, coefficients included.
# The golden loop above already ran power_cap both ways and power-zoo
# once; those files are the first execution of each comparison.
cmp -s "$golden/repro_power_cap.txt" "$golden/repro_power_cap_analytic.txt" \
    || { echo "power zoo: --power-model analytic changed repro power_cap output"; exit 1; }
table2_default=$("$cli" repro table2)
table2_analytic=$("$cli" repro table2 --power-model analytic)
[ "$table2_default" = "$table2_analytic" ] \
    || { echo "power zoo: --power-model analytic changed repro table2 output"; exit 1; }
zoo_a=$("$cli" power-zoo) \
    || { echo "$zoo_a"; echo "power zoo: train/validate gates failed"; exit 1; }
[ "$zoo_a" = "$(cat "$golden/power_zoo.txt")" ] \
    || { echo "power zoo: output diverged across identical runs"; exit 1; }
echo "$zoo_a" | grep -q 'held-out' \
    || { echo "power zoo: no held-out validation table in output"; exit 1; }
echo "power-model zoo gate passed"

# Bench trend diff: the committed before/after snapshot pair must keep
# parsing and rendering (the diff itself legitimately flags regressions
# in that historical pair, so only exit 2 — operational failure — is
# fatal here).
compare_out=$("$cli" bench --compare results/bench/2026-08-07-pre-opt results/bench/2026-08-07-post-opt) \
    || [ $? -eq 1 ] || { echo "bench --compare: operational failure"; exit 1; }
echo "bench snapshot diff parsed"
