#!/usr/bin/env bash
# benchsmoke.sh — fail on a >5% throughput regression in the guarded hot
# paths: the sharded memory front-end's synchronous Read/Write, which run
# inline on the caller's goroutine under the shard lock
# (BenchmarkShardedThroughput, telemetry always on), the same traffic
# through group windows, which execute on the waiting goroutine with one
# shard-lock hold per touched shard (BenchmarkBatchedThroughput/batched-8g),
# the same windowed traffic with the patrol scrubber active
# (BenchmarkMigrationOverhead — its baseline line equals batched-8g's, so
# the tolerance directly bounds the scrubbing overhead),
# and the codec datapath (BenchmarkEncode / BenchmarkDecode for the COP-4
# and COP-8 geometries, the word-parallel encode/decode the whole
# simulator sits on), plus the networked service datapath
# (BenchmarkServeThroughput — client batch frames over a loopback HTTP
# listener into server-side group windows).
#
# Primary comparison is self-calibrating: the same benchmarks are built and
# run from the merge-base commit in a temporary git worktree on the SAME
# machine, so CI-runner speed differences cancel out ("before/after").
# Both sides build with -trimpath: HEAD builds in the checkout and the
# base in a mktemp directory, and without it the two binaries embed
# source paths of different lengths, which shifts code layout enough to
# move byte-identical code by 16-28% on a small machine.
# When no merge-base is available (shallow clone, first commit), or the
# base predates a benchmark, the committed reference number in
# scripts/benchsmoke.baseline is used for that benchmark instead; those
# numbers were measured on the reference dev container, so
# BENCHSMOKE_TOLERANCE_PCT can be raised for slower machines.
#
# Environment knobs:
#   BENCHSMOKE_TOLERANCE_PCT  allowed regression percentage (default 5)
#   BENCHSMOKE_COUNT          bench repetitions, best-of (default 5)
#   BENCHSMOKE_BENCHTIME      go test -benchtime (default 1s)
set -euo pipefail

TOL="${BENCHSMOKE_TOLERANCE_PCT:-5}"
COUNT="${BENCHSMOKE_COUNT:-5}"
BENCHTIME="${BENCHSMOKE_BENCHTIME:-1s}"
REPO="$(cd "$(dirname "$0")/.." && pwd)"

# Guarded benchmarks. Keys are the benchmark path minus the "Benchmark"
# prefix and match both the output lines and scripts/benchsmoke.baseline.
# sharded-8g drives BatchedMemory's synchronous calls; a merge-base that
# predates the single front-end measured the separate mutex-per-op
# ShardedMemory under the same key, so the gate compares the two directly.
# sharded-8g-traceoff is the same traffic with an execution-trace recorder
# attached but disabled — it pins the disabled-tracing overhead.
SHARD_KEYS="ShardedThroughput/sharded-8g ShardedThroughput/sharded-8g-traceoff BatchedThroughput/batched-8g MigrationOverhead/scrub-8g"
CODEC_KEYS="Encode/COP-4 Encode/COP-8 Decode/COP-4 Decode/COP-8"
SERVE_KEYS="ServeThroughput/serve-8g ServeThroughput/serve-pipelined-8g"

# bench_out DIR PKG PATTERN — run the benchmarks, print raw output.
bench_out() {
    (cd "$1" && go test -trimpath -run '^$' -bench "$3" -benchtime "$BENCHTIME" -count "$COUNT" "$2" 2>/dev/null) || true
}

# best FILE KEY — best (minimum) ns/op for KEY over all repetitions. The
# name column is "Benchmark<key>" plus a "-<procs>" suffix that go test
# omits when GOMAXPROCS is 1, so accept both forms — but only a purely
# numeric suffix, so "sharded-8g" does not swallow "sharded-8g-traceoff".
best() {
    awk -v k="Benchmark$2" '
        $1 == k { print $3; next }
        index($1, k "-") == 1 && substr($1, length(k) + 2) ~ /^[0-9]+$/ { print $3 }
    ' "$1" | sort -n | head -n1
}

collect() { # collect DIR OUTFILE — run every guarded group in DIR
    bench_out "$1" . 'BenchmarkShardedThroughput/sharded-8g|BenchmarkBatchedThroughput/batched-8g|BenchmarkMigrationOverhead/scrub-8g' >"$2"
    bench_out "$1" ./internal/core 'BenchmarkEncode$|BenchmarkDecode$' >>"$2"
    bench_out "$1" ./internal/copnet 'BenchmarkServeThroughput' >>"$2"
}

after_out="$(mktemp)"
before_out="$(mktemp)"
trap 'rm -f "$after_out" "$before_out"' EXIT
collect "$REPO" "$after_out"

have_base=""
base="$(git -C "$REPO" merge-base HEAD origin/main 2>/dev/null || git -C "$REPO" rev-parse HEAD~1 2>/dev/null || true)"
if [ -n "$base" ] && [ "$base" != "$(git -C "$REPO" rev-parse HEAD)" ]; then
    wt="$(mktemp -d)"
    trap 'git -C "$REPO" worktree remove --force "$wt" >/dev/null 2>&1 || rm -rf "$wt"; rm -f "$after_out" "$before_out"' EXIT
    if git -C "$REPO" worktree add --detach "$wt" "$base" >/dev/null 2>&1; then
        collect "$wt" "$before_out"
        have_base="merge-base $(git -C "$REPO" rev-parse --short "$base")"
    fi
fi

fail=0
for key in $SHARD_KEYS $CODEC_KEYS $SERVE_KEYS; do
    after="$(best "$after_out" "$key")"
    if [ -z "$after" ]; then
        echo "benchsmoke: no benchmark output for $key" >&2
        fail=1
        continue
    fi
    before=""
    base_desc=""
    if [ -n "$have_base" ]; then
        # A base that predates this benchmark falls through to the baseline.
        before="$(best "$before_out" "$key")"
        base_desc="$have_base"
    fi
    if [ -z "$before" ]; then
        before="$(awk -v k="$key" '$1 == k { print $2 }' "$REPO/scripts/benchsmoke.baseline")"
        base_desc="committed baseline"
    fi
    if [ -z "$before" ]; then
        echo "benchsmoke: no reference number for $key" >&2
        fail=1
        continue
    fi
    limit=$(( ${before%.*} + ${before%.*} * TOL / 100 ))
    echo "benchsmoke: $key  HEAD $after ns/op  vs  $base_desc $before ns/op (best of $COUNT)"
    if [ "${after%.*}" -gt "$limit" ]; then
        echo "benchsmoke: FAIL — $key: $after ns/op exceeds $base_desc $before ns/op by more than ${TOL}% (limit $limit)" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "benchsmoke: OK — all guarded benchmarks within ${TOL}% of reference"
