#!/usr/bin/env bash
# Campaign-throughput benchmark runner.
#
# Builds the perf binary in release mode, runs the injection and
# Figure 11 benchmarks plus the per-layer rows (or any other filters
# passed as arguments), prints the human-readable table to stderr, and
# records the machine-readable results — one JSON object per line — to
# BENCH_campaign.json.
#
#   ./bench.sh                 # default filters below -> BENCH_campaign.json
#   ./bench.sh pipeline/       # any other filters, same output file
#
# The layer rows time what a campaign is built from:
# `pipeline/step-1k/{gzip,mcf,twolf}-like` (one golden or trial cycle),
# `funcsim/step-10k` (the functional probe and Figure 11's walker),
# `fingerprint/full-machine` (the flat walk that recomputes every digest)
# and `fingerprint/cached-cold` (a fresh cached engine on a warmed
# machine: every trial's first µArch check).
#
# TFSIM_BENCH_SAMPLES / TFSIM_BENCH_SAMPLE_MS tune the measurement (see
# crates/check/src/bench.rs). The headline number is the ratio of the
# `inject/engine-vs-naive/{naive,engine}` medians: both run the same
# 25-trial plan, so naive_median_ns / engine_median_ns is the trial
# engine's speedup in trials/sec over the per-trial oracle.
#
# The default filter also records the telemetry-overhead pair:
# `inject/trials-per-sec` (the engine at `Trace::Off`, the zero-overhead
# contract's pinned number) vs `inject/trials-per-sec-traced` (the same
# engine at `Trace::On`: per-trial traces and phase timings), both over
# the identical 100-trial plan. Both pay the batch's own golden walk, which
# hashes its rows and resolves its footprint.
#
# The deep-trace pair extends the telemetry-overhead story:
# `inject/trials-per-sec-deep-traced` runs the identical plan at
# `Trace::Deep` (per-unit diverged-set samples on divergent check cycles —
# dense just after injection, every eighth check once sparse — from a
# dedicated incremental fingerprint engine; proved-dead sites synthesize
# theirs analytically). After recording, the default filter gates two
# ratios from the fresh medians: deep-traced must stay within 25% of
# traced (timelines sample only already-divergent cycles, at bounded
# cadence), and traced must stay within 15% of untraced (the longstanding
# within-noise telemetry contract, now enforced where the numbers are
# produced).
#
# `inject/pruner-overhead` runs a 100-site batch the pruner discharges
# entirely without simulating, so its median is the pure per-batch
# analysis cost (the golden walk that resolves the footprint, and the
# analytic rides).
# `inject/prepare` times one cold golden pass of the same start point.
#
# The distributed pair `inject/distributed-overhead/{in-process,
# two-workers}` runs the same tiny campaign on the 2-thread in-process
# pool and on a coordinator with 2 localhost TCP workers. The
# two-workers/in-process median ratio is the full lease-protocol + wire +
# merge overhead and is gated <= 1.15x: distributing over localhost must
# stay within noise of the thread pool, because task compute dominates.
#
# The Figure 11 pair `arch/sw-ladder-vs-naive/{naive,ladder}` runs one
# 40-trial `reg-bit-64` plan on `mcf-like` through per-trial
# `swinject::run_trial` and through `swinject::run_campaign` (the
# fault-free prefix run once, trials stopped at exact reconvergence). The
# ladder/naive median ratio is gated <= 0.5.
set -euo pipefail
cd "$(dirname "$0")"

[ $# -gt 0 ] || set -- inject/ arch/ pipeline/step-1k/ funcsim/step-10k fingerprint/
out=BENCH_campaign.json

: > "$out"
for filter in "$@"; do
  cargo run --release --offline -q -p tfsim-bench --bin perf -- "$filter" --json \
    | tee /dev/stderr | grep '^{' >> "$out"
done
echo "wrote $out" >&2

# Gates, each evaluated only when the run recorded its rows. Every gate
# prints its ratio and verdict; the script exits 1 after the last of them
# if any failed, so one failure never hides the others' results.
median() {
  sed -n "s/^{\"name\":\"$(printf '%s' "$1" | sed 's/\//\\\//g')\",\"median_ns\":\([0-9.]*\).*/\1/p" "$out"
}
failed=0
# gate LABEL NUMERATOR DENOMINATOR LIMIT: fails when the ratio exceeds LIMIT.
gate() {
  awk -v label="$1" -v n="$2" -v d="$3" -v limit="$4" 'BEGIN {
    bad = n > limit * d
    printf "%s: %.3fx (gate <= %sx) %s\n", label, n / d, limit, bad ? "GATE FAIL" : "ok"
    exit bad
  }' >&2 || failed=1
}
untraced=$(median "inject/trials-per-sec")
traced=$(median "inject/trials-per-sec-traced")
deep=$(median "inject/trials-per-sec-deep-traced")
if [ -n "$untraced" ] && [ -n "$traced" ] && [ -n "$deep" ]; then
  gate "traced/untraced" "$traced" "$untraced" 1.15
  gate "deep/traced" "$deep" "$traced" 1.25
fi
inproc=$(median "inject/distributed-overhead/in-process")
distrib=$(median "inject/distributed-overhead/two-workers")
if [ -n "$inproc" ] && [ -n "$distrib" ]; then
  gate "two-workers/in-process" "$distrib" "$inproc" 1.15
fi
naive=$(median "arch/sw-ladder-vs-naive/naive")
ladder=$(median "arch/sw-ladder-vs-naive/ladder")
if [ -n "$naive" ] && [ -n "$ladder" ]; then
  gate "sw ladder/naive" "$ladder" "$naive" 0.5
fi
exit "$failed"
