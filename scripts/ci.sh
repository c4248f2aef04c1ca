#!/bin/sh
# The tier-1 gate in one command: formatting, build, test, lint and docs
# with warnings hard, then a one-second traced benchmark run to prove the
# measurement path still runs. Anything here failing means the tree is not
# mergeable, and the last stage fails if the run changed the working tree.
#
# Extra cargo flags (e.g. --offline on an air-gapped box) can be passed
# through CARGO_FLAGS: `CARGO_FLAGS=--offline scripts/ci.sh`.
set -eu
cd "$(dirname "$0")/.."

CARGO_FLAGS="${CARGO_FLAGS:-}"
tree_before="$(git status --porcelain --untracked-files=all)"

echo "==> cargo fmt --all --check"
# rustfmt.toml holds the style; perfbench/ is a workspace of its own and
# keeps its formatting.
cargo fmt --all --check

echo "==> cargo build --release"
# shellcheck disable=SC2086  # CARGO_FLAGS is intentionally word-split
cargo build --release $CARGO_FLAGS

echo "==> cargo test -q"
cargo test -q $CARGO_FLAGS

echo "==> release tests (golden outputs, traces and oracle, register space, --jobs, wide modules, peephole on long blocks, allocation shapes and census, hasher seeds, warm resubmit)"
# The benchmark measures release builds, where debug assertions (bit-set
# capacity checks among them) are off; the optimizer's output, its traces
# and the oracle's verdicts must be the same there (also at --jobs 2/4/8
# on the fused suite module), and the oracle must stay linear in a
# module's function count, peephole in a block's length. The allocation
# shapes of the analysis rebuilds, of PRE's later rounds, of reassociation,
# of the SSA round trip and of the ILOC parser are what the release
# benchmark pays, and the census of one opt-suite iteration runs only
# here. Two `epre opt` processes hash with two seeds and must print the
# same bytes, serially and at --jobs 4. A warm resubmit of the fused suite
# must replay it byte-identically and at least 5x faster than a cold
# submit, a timing gate that only release builds run. Reuses the release
# artifacts built above.
# shellcheck disable=SC2086
cargo test --release -q $CARGO_FLAGS --test golden_outputs --test golden_traces \
    --test golden_oracle --test oracle_wide_modules --test peephole_linear \
    --test register_space --test parallel_equivalence --test alloc_budget \
    --test hasher_seed --test serve_warm_resubmit

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
# Every target, so the tests, examples and the paper-table benches (which
# nothing else here compiles) build and lint too.
cargo clippy --workspace --all-targets $CARGO_FLAGS -- -D warnings

echo "==> cargo doc --workspace --no-deps --lib (rustdoc warnings are errors)"
# Broken or ambiguous intra-doc links fail here. `--lib` leaves the `epre`
# binary out: its docs would collide with those of the library `epre`.
# shellcheck disable=SC2086
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib $CARGO_FLAGS

echo "==> report (epre report --quick, and the full Table 1 against BENCH_TABLE1.json)"
tmpdir="$(mktemp -d)"
serve_pid=""
trap '[ -n "$serve_pid" ] && kill -9 "$serve_pid" 2>/dev/null; rm -rf "$tmpdir"' EXIT
target/release/epre report --quick --out "$tmpdir/BENCH_TABLE1_quick.json" > /dev/null
grep -q '^{"bench":"table1","levels":\["baseline","partial","reassociation","distribution"\]' \
    "$tmpdir/BENCH_TABLE1_quick.json"
# The full run takes well under a second in release; the checked-in record
# must be exactly what it writes, so the paper's Table 1 numbers and the
# JSON writer are checked together.
target/release/epre report --out "$tmpdir/BENCH_TABLE1.json" > /dev/null 2>&1
cmp "$tmpdir/BENCH_TABLE1.json" BENCH_TABLE1.json || {
    echo "epre report no longer reproduces BENCH_TABLE1.json byte for byte" >&2
    exit 1
}

echo "==> perfbench build, unit tests and a traced opt-suite second"
# The benchmark is a Cargo workspace of its own that calls the optimizer's
# internals (expression universe, local predicates, dataflow solve, SSA
# build and destroy), so the workspace build above never compiles it. The
# traced run checks that traced and untraced output are identical, that
# the per-layer times add up, that checksums match and that Table 1 op
# counts hold; its last line must report `"correct": true`.
# shellcheck disable=SC2086
CARGO_TARGET_DIR=.bench_build cargo test $CARGO_FLAGS --manifest-path perfbench/Cargo.toml
python3 perfbench/run.py --mixed-rate 75 --workload opt-suite --seed 1 --seconds 1 --trace 1 \
    > "$tmpdir/perfbench.txt"
tail -n 1 "$tmpdir/perfbench.txt" | grep -q '"correct": true' || {
    echo "traced perfbench run did not report correct output" >&2
    exit 1
}

echo "==> trace schema sanity"
# Export a JSONL trace for a tiny module and require every line to carry
# the telemetry schema: a leading dense seq plus pass and function tags.
cat > "$tmpdir/trace_smoke.iloc" << 'ILOC'
module data 0
function smoke(r0:i) -> i
block b0:
  r1 <- loadi 2:i
  r2 <- add.i r0, r1
  r3 <- add.i r0, r1
  r4 <- mul.i r2, r3
  ret r4
end
ILOC
target/release/epre opt "$tmpdir/trace_smoke.iloc" \
    --trace "$tmpdir/trace.jsonl" --trace-format jsonl > /dev/null
lines="$(wc -l < "$tmpdir/trace.jsonl")"
schema_ok="$(grep -c '^{"seq":[0-9]*,.*"function":.*"pass":' "$tmpdir/trace.jsonl")"
[ "$lines" -gt 0 ] && [ "$schema_ok" -eq "$lines" ] || {
    echo "trace schema check failed: $schema_ok of $lines line(s) well-formed" >&2
    exit 1
}
# --timings on the same module must exit 0 with one row per pass of the
# level (distribution runs 8) and the closing driver row.
target/release/epre opt "$tmpdir/trace_smoke.iloc" --level distribution --timings \
    > /dev/null 2> "$tmpdir/timings.txt"
rows="$(grep -c '^  [a-z+]* *[0-9.]* ms  (' "$tmpdir/timings.txt" || true)"
[ "$rows" -eq 8 ] && grep -q '^  driver  *[0-9.]* ms$' "$tmpdir/timings.txt" || {
    echo "--timings must print 8 pass rows and a driver row:" >&2
    cat "$tmpdir/timings.txt" >&2
    exit 1
}

echo "==> serve smoke (daemon, warm cache, kill -9, recovery)"
# Start the daemon on an ephemeral port, scrape the bound address, and
# submit the same module twice: the second answer must come entirely from
# the cache and be byte-identical to the first.
start_serve() {
    : > "$tmpdir/serve.log"
    target/release/epre serve --port 0 --cache "$tmpdir/serve.cache" \
        --telemetry "$tmpdir/serve.tel" > "$tmpdir/serve.log" 2>/dev/null &
    serve_pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/^listening on //p' "$tmpdir/serve.log")"
        [ -n "$addr" ] && return 0
        sleep 0.1
    done
    echo "serve daemon did not come up" >&2
    exit 1
}
start_serve
target/release/epre submit "$tmpdir/trace_smoke.iloc" --addr "$addr" \
    > "$tmpdir/serve1.iloc" 2>/dev/null
target/release/epre submit "$tmpdir/trace_smoke.iloc" --addr "$addr" \
    > "$tmpdir/serve2.iloc" 2>/dev/null
cmp -s "$tmpdir/serve1.iloc" "$tmpdir/serve2.iloc" || {
    echo "cached resubmit diverged from the cold answer" >&2
    exit 1
}
# Capture stats before grepping: `grep -q` closing the pipe early would
# make the client's stdout writes fail mid-listing.
stats="$(target/release/epre submit --stats --addr "$addr")"
printf '%s\n' "$stats" | grep -q '^cache_hits 1$' || {
    echo "warm resubmit did not hit the cache" >&2
    exit 1
}
# Crash the daemon outright; a restart over the same cache must serve the
# same module from the recovered entries, byte-identically.
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
start_serve
target/release/epre submit "$tmpdir/trace_smoke.iloc" --addr "$addr" \
    > "$tmpdir/serve3.iloc" 2>/dev/null
cmp -s "$tmpdir/serve1.iloc" "$tmpdir/serve3.iloc" || {
    echo "post-crash answer diverged" >&2
    exit 1
}
stats="$(target/release/epre submit --stats --addr "$addr")"
printf '%s\n' "$stats" | grep -q '^cache_recovered 1$' || {
    echo "restart did not recover the journaled cache entry" >&2
    exit 1
}
target/release/epre submit --shutdown --addr "$addr" > /dev/null
wait "$serve_pid" || { echo "daemon did not exit cleanly on shutdown" >&2; exit 1; }
serve_pid=""

echo "==> metrics smoke (live metrics schema, SIGQUIT flight recorder)"
# A daemon with the full observability surface on: one submit, then the
# protocol metrics scrape must carry the required series with the fixed
# histogram schema, and a SIGQUIT must checkpoint the flight recorder as
# valid JSONL — without disturbing service.
: > "$tmpdir/metrics.log"
target/release/epre serve --port 0 --slow-ms 0 \
    --flight-recorder "$tmpdir/flight.jsonl" > "$tmpdir/metrics.log" 2>/dev/null &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^listening on //p' "$tmpdir/metrics.log")"
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "metrics daemon did not come up" >&2; exit 1; }
target/release/epre submit "$tmpdir/trace_smoke.iloc" --addr "$addr" > /dev/null 2>/dev/null
metrics="$(target/release/epre metrics --addr "$addr")"
for series in \
    'epre_requests_total 1' \
    '# TYPE epre_request_latency_us histogram' \
    'epre_request_latency_us_bucket{class="cold",le="+Inf"} 1' \
    'epre_request_latency_us_count{class="warm"} 0' \
    'epre_pass_runs_total{pass=' \
    'epre_queue_depth' \
    'epre_workers_saturated_total 0' \
    'epre_slow_requests_total 1'; do
    printf '%s\n' "$metrics" | grep -qF "$series" || {
        echo "metrics render missing: $series" >&2
        exit 1
    }
done
kill -QUIT "$serve_pid"
for _ in $(seq 1 100); do
    [ -s "$tmpdir/flight.jsonl" ] && break
    sleep 0.1
done
[ -s "$tmpdir/flight.jsonl" ] || { echo "SIGQUIT flight-recorder dump missing" >&2; exit 1; }
head -1 "$tmpdir/flight.jsonl" | grep -q '^{"flight_recorder":true,' || {
    echo "flight-recorder dump missing its header line" >&2
    exit 1
}
bad="$(grep -cv '^{.*}$' "$tmpdir/flight.jsonl" || true)"
[ "$bad" -eq 0 ] || { echo "flight-recorder dump has $bad non-JSONL line(s)" >&2; exit 1; }
grep -q '"kind":"request"' "$tmpdir/flight.jsonl" || {
    echo "flight-recorder dump recorded no requests" >&2
    exit 1
}
# --slow-ms 0 makes every request slow: the slow log must hold the
# submit with its full span breakdown.
grep -q '"spans":{"admission":' "$tmpdir/flight.jsonl.slow" || {
    echo "slow-request log missing the span breakdown" >&2
    exit 1
}
# The checkpoint did not disturb service: the daemon still answers and
# drains cleanly.
target/release/epre submit --ping --addr "$addr" > /dev/null
target/release/epre submit --shutdown --addr "$addr" > /dev/null
wait "$serve_pid" || { echo "daemon did not exit cleanly after SIGQUIT" >&2; exit 1; }
serve_pid=""

echo "==> loadgen smoke (sustained mixed load, zero wrong answers)"
# ~10s of cold/warm/poison/oversized traffic against a self-served
# daemon with a tight cache cap. The binary itself exits nonzero on any
# wrong answer, hang, or cap breach; the greps then pin its report: the
# per-class percentile columns and, from --metrics-snapshot, the daemon's
# own view of the load (scraped live metrics, distilled).
target/release/epre loadgen --clients 4 --duration-ms 8000 \
    --cache-max-bytes 65536 --seed 2026 --metrics-snapshot > "$tmpdir/loadgen.txt"
grep -q 'p50ms    p95ms    p99ms$' "$tmpdir/loadgen.txt" || {
    echo "loadgen report missing the per-class percentile columns" >&2
    exit 1
}
grep -qF 'server metrics snapshot: {"requests":' "$tmpdir/loadgen.txt" || {
    echo "loadgen report missing the server metrics snapshot" >&2
    exit 1
}

echo "==> working tree unchanged"
# CI must leave the checkout as it found it: no stage may write into a
# tracked file or leave an unignored one behind.
tree_after="$(git status --porcelain --untracked-files=all)"
[ "$tree_before" = "$tree_after" ] || {
    echo "scripts/ci.sh changed the working tree:" >&2
    printf 'before:\n%s\nafter:\n%s\n' "$tree_before" "$tree_after" >&2
    exit 1
}

echo "==> ci: all green"
