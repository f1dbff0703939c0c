#!/usr/bin/env bash
# Tier-1 gate for tfsim. Everything runs --offline: the workspace is
# hermetic (zero external crates), so CI must never touch a registry.
# A build that only works online is a regression.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release --offline --workspace"
# The root manifest is a package, so without --workspace cargo builds only
# the root library, not the tfsim-bench binaries the gates below run.
cargo build --release --offline --workspace

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "==> cargo test -q --offline --manifest-path perfbench/Cargo.toml"
# The benchmark is a workspace of its own that calls the engine's public
# API, so an API change that would break it must fail here, not when the
# benchmark next runs.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --offline --workspace --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps --offline (warnings denied)"
# A doc link that resolves to nothing, to two items, or to a private item
# fails here rather than rendering as plain text in the API docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> perf smoke (timings non-gating, exit status gating)"
# One minimal sample through every bench bench.sh records (the injection
# and Figure 11 benches and the layer rows) so the bench binary and
# bench.sh's data source can never bit-rot. Timings from a 1-sample run
# are meaningless and are NOT compared against anything, but a bench
# binary that crashes, or a filter that matches nothing, is a real
# regression, so its exit status gates.
for filter in inject/ arch/ pipeline/step-1k/ funcsim/step-10k fingerprint/; do
    TFSIM_BENCH_SAMPLES=1 TFSIM_BENCH_SAMPLE_MS=1 \
        cargo run --release --offline -q -p tfsim-bench --bin perf -- "$filter"
done

echo "==> pinned smoke campaign census and journal (gating)"
# A short campaign must print the census and write the journal checked in
# under tests/data, byte for byte. Both files were recorded when the
# snapshot ladder alone and the pruner in front of it were still two
# campaign engines and wrote identical bytes, so the pin keeps that
# comparison's strength and also catches a drift both engines would have
# shared. Timings here are non-gating (a 12-trial campaign proves
# correctness, not speed; throughput lives in bench.sh / BENCH_campaign.json
# and perfbench).
run_tfsim="cargo run --release --offline -q -p tfsim-bench --bin tfsim-run --"
smoke_args="campaign --quick --seed 7 --start-points 1 --trials 12 --monitor 1200 \
    --scale 1 --workloads gzip-like,twolf-like"
$run_tfsim $smoke_args > target/ci_census.txt 2>/dev/null
diff tests/data/ci_census.txt target/ci_census.txt
# The journal carries every trial's trace (decision cycle, first observed
# divergence and its unit). One worker keeps the task order fixed, and a
# monitor off the 8-cycle golden-row grid puts decision cycles between the
# rows the start point hashes.
rm -f target/ci_journal_pinned.jsonl
$run_tfsim $smoke_args --monitor 1203 --threads 1 \
    --journal target/ci_journal_pinned.jsonl >/dev/null 2>&1
diff tests/data/ci_journal.jsonl target/ci_journal_pinned.jsonl
# Three start points at the default spacing share one golden walk per
# benchmark (its rows on two grids, its footprint resolved for all three),
# so this pin sees what the one-start-point pins cannot. One worker
# appends a benchmark's start points together, so the journal is compared
# as a set of lines: only their order may move.
rm -f target/ci_journal_3sp.jsonl
$run_tfsim campaign --default-scale --seed 7 --start-points 3 --trials 12 --monitor 1203 \
    --scale 1 --workloads gzip-like,twolf-like --threads 1 \
    --journal target/ci_journal_3sp.jsonl > target/ci_census_3sp.txt 2>/dev/null
diff tests/data/ci_census_3sp.txt target/ci_census_3sp.txt
diff <(sort tests/data/ci_journal_3sp.jsonl) <(sort target/ci_journal_3sp.jsonl)

echo "==> paper-reproduction text (gating)"
# The quick-scale figures must print the text checked in under tests/data
# byte for byte: Figure 6's valid-instruction counts and Figure 11's
# software fault models reach no other pin. Like the pins above, it only
# changes with a change to the science.
cargo run --release --offline -q -p tfsim-bench --bin figures -- --scale quick --seed 42 \
    > target/ci_figures_quick.txt 2>/dev/null
diff tests/data/figures_quick.txt target/ci_figures_quick.txt

echo "==> telemetry report smoke (gating)"
# A tiny traced campaign must produce a JSONL trace that the report
# subcommand can parse, cross-check against its footer, and render.
trace=target/ci_trace.jsonl
cargo run --release --offline -q -p tfsim-bench --bin tfsim-run -- \
    campaign --quick --seed 7 --start-points 1 --trials 10 --monitor 1500 \
    --scale 1 --workloads gzip-like,twolf-like --trace "$trace" >/dev/null 2>&1
cargo run --release --offline -q -p tfsim-bench --bin tfsim-run -- \
    report "$trace" > target/ci_report.txt
grep -q "outcome census" target/ci_report.txt

echo "==> deep-trace propagation smoke (gating)"
# A deep-traced campaign streams per-trial divergence timelines into the
# trace; the propagation report must render non-empty chains, the
# residency heatmap, the machine-readable aggregates, and the span
# profiler must account for (>=95% of) the wall time of every benchmark
# (depth 1: its spine and start points) and of every spine and start point
# (depth 2: warm-up and walk; trials and journal).
deep_trace=target/ci_deep_trace.jsonl
cargo run --release --offline -q -p tfsim-bench --bin tfsim-run -- \
    campaign --quick --seed 7 --start-points 1 --trials 10 --monitor 1500 \
    --scale 1 --workloads gzip-like,twolf-like --trace "$deep_trace" --deep-trace \
    --profile target/ci_profile.collapsed > target/ci_deep_campaign.txt 2>/dev/null
for depth in 1 2; do
    grep -q "span coverage at depth $depth: \(9[5-9]\|100\)\." target/ci_deep_campaign.txt
done
test -s target/ci_profile.collapsed
cargo run --release --offline -q -p tfsim-bench --bin tfsim-run -- \
    report "$deep_trace" --propagation > target/ci_propagation.txt
grep -q "propagation chains" target/ci_propagation.txt
grep -q "residency heatmap" target/ci_propagation.txt
grep -q '"chains":\[{"chain":\[' target/ci_propagation.txt
# The deep-traced census block must be byte-identical to the untraced one.
cargo run --release --offline -q -p tfsim-bench --bin tfsim-run -- \
    campaign --quick --seed 7 --start-points 1 --trials 10 --monitor 1500 \
    --scale 1 --workloads gzip-like,twolf-like > target/ci_census_shallow.txt 2>/dev/null
census_block() { sed -n '/^outcome census/,/^eligible bits/p' "$1"; }
diff <(census_block target/ci_census_shallow.txt) <(census_block target/ci_deep_campaign.txt)

echo "==> journal resume smoke (gating)"
# A journaled quick campaign, interrupted by truncating the journal
# mid-file, must resume to the byte-identical census of an uninterrupted
# run (torn-tail recovery + completed-task replay + deterministic re-run).
run_tfsim="cargo run --release --offline -q -p tfsim-bench --bin tfsim-run --"
campaign_args="campaign --quick --seed 7 --start-points 2 --trials 8 --monitor 1000 \
    --scale 1 --workloads gzip-like,twolf-like"
journal=target/ci_journal.jsonl
$run_tfsim $campaign_args > target/ci_census_ref.txt 2>/dev/null
$run_tfsim $campaign_args --journal "$journal" > target/ci_census_full.txt 2>/dev/null
diff target/ci_census_ref.txt target/ci_census_full.txt
# Tear the journal mid-file (60% of the bytes, ending inside a line).
size=$(wc -c < "$journal")
head -c $((size * 3 / 5)) "$journal" > "$journal.torn" && mv "$journal.torn" "$journal"
$run_tfsim $campaign_args --journal "$journal" --resume \
    > target/ci_census_resumed.txt 2>/dev/null
diff target/ci_census_ref.txt target/ci_census_resumed.txt

echo "==> distributed execution smoke (gating)"
# A coordinator plus two localhost workers — one chaos-killed after its
# first task — must converge to the byte-identical census of the
# single-process run: the dead worker's lease expires and its task is
# re-granted to the survivor. Then the degraded path: a coordinator whose
# only worker dies exits non-zero with the partial campaign journaled,
# and a --resume completion reproduces the same census.
dist_args="--quick --seed 7 --start-points 2 --trials 8 --monitor 1000 \
    --scale 1 --workloads gzip-like,twolf-like"
$run_tfsim campaign $dist_args > target/ci_census_dist_ref.txt 2>/dev/null
serve_log=target/ci_serve.err
# A gate that fails while a coordinator runs in the background ends the
# script (set -e); the trap ends the coordinator with it instead of leaving
# it listening until its idle timeout. Waiting for a coordinator disarms it.
serve_pid=""
trap '[ -z "$serve_pid" ] || kill "$serve_pid" 2>/dev/null' EXIT
wait_serve() {
    local pid=$serve_pid
    serve_pid=""
    wait "$pid"
}
# Each coordinator's log is emptied before it starts: the polling below
# may run before the backgrounded shell opens the log, and must find
# neither a missing file (sed fails) nor the previous leg's port.
: > "$serve_log"
$run_tfsim serve $dist_args --port 0 --lease-ms 1000 --heartbeat-ms 100 \
    --idle-timeout-ms 60000 > target/ci_census_dist.txt 2> "$serve_log" &
serve_pid=$!
port=""
for _ in $(seq 100); do
    port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$serve_log")
    [ -n "$port" ] && break
    sleep 0.1
done
test -n "$port"
$run_tfsim worker --connect "127.0.0.1:$port" --chaos seed=11,kill=n1 \
    2>/dev/null && exit 1 # the chaos-killed worker must exit non-zero
$run_tfsim worker --connect "127.0.0.1:$port" --shard target/ci_shard.jsonl \
    2>/dev/null
wait_serve
diff target/ci_census_dist_ref.txt target/ci_census_dist.txt
# Degraded leg: the only worker dies, the coordinator times out incomplete
# (non-zero exit) with the accepted task journaled; --resume finishes.
dist_journal=target/ci_dist_journal.jsonl
rm -f "$dist_journal"
: > "$serve_log"
$run_tfsim serve $dist_args --port 0 --lease-ms 500 --heartbeat-ms 100 \
    --idle-timeout-ms 4000 --journal "$dist_journal" \
    >/dev/null 2> "$serve_log" &
serve_pid=$!
port=""
for _ in $(seq 100); do
    port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$serve_log")
    [ -n "$port" ] && break
    sleep 0.1
done
test -n "$port"
$run_tfsim worker --connect "127.0.0.1:$port" --chaos seed=12,kill=n1 \
    2>/dev/null && exit 1
if wait_serve; then
    echo "serve must exit non-zero when the campaign is incomplete" >&2
    exit 1
fi
$run_tfsim campaign $dist_args --journal "$dist_journal" --resume \
    > target/ci_census_dist_resumed.txt 2>/dev/null
diff target/ci_census_dist_ref.txt target/ci_census_dist_resumed.txt

echo "==> tier-1 gate passed"
