#!/bin/sh
# Engine-throughput regression gate.
#
# Re-runs the engine_throughput and tier_overhead benches and compares
# each row's throughput (Mflit/s) against the committed BENCH_engine.json
# / BENCH_tier.json snapshots. A row more than 15% BELOW the snapshot
# fails the gate — a real perf regression on the same machine. A row more
# than 15% ABOVE only warns: the snapshot is stale and should be
# refreshed (re-run the bench, commit the new file). A snapshot row the
# fresh run no longer produces fails as well.
#
#   sh tools/perf_gate.sh          # gate; snapshot files left untouched
#   sh tools/perf_gate.sh --keep   # gate; keep the fresh numbers in the
#                                  # snapshot files on pass
#
# Wall-clock on a loaded host wobbles; the 15% band absorbs normal jitter
# while catching the step-function regressions this gate exists for. The
# benches themselves report a median per row for the same reason.
#
# The serve_throughput load rows are gated too (BENCH_serve.json):
# p99 latency (lower is better, 1.5x band — tail latency on a one-core
# host jitters more than throughput medians) and modeled goodput (higher
# is better, 15% band for the deterministic closed-loop rows, 2x band
# for the open-loop overload row whose admitted-request mix races the
# queue drain).
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
keep=${1:-}
fail=0

# One "label value" pair per sample row of a snapshot JSON.
rows() {
    awk -F'"' '/"label"/ {
        label = $4
        if (match($0, /"mflits_per_sec": [0-9.]+/)) {
            pair = substr($0, RSTART, RLENGTH)
            sub(/^"mflits_per_sec": /, "", pair)
            print label, pair
        }
    }' "$1"
}

# gate <bench-name> <snapshot-file>: re-run the bench, compare each row.
gate() {
    bench=$1
    snap=$2
    if [ ! -f "$snap" ]; then
        echo "perf_gate: no $(basename "$snap") snapshot to gate against;" >&2
        echo "run: cargo bench --offline -p genesis-bench --bench $bench" >&2
        exit 1
    fi
    old=$(mktemp)
    cp "$snap" "$old"

    echo "perf_gate: running $bench bench..."
    (cd "$root" && cargo bench --offline -p genesis-bench --bench "$bench" >/dev/null 2>&1)

    fresh_rows=$(mktemp)
    rows "$snap" > "$fresh_rows"
    bench_fail=0
    while read -r label fresh; do
        base=$(rows "$old" | awk -v l="$label" '$1 == l { print $2 }')
        if [ -z "$base" ]; then
            echo "  $label: new row at $fresh Mflit/s (no baseline)"
            continue
        fi
        # awk exits 1 on a >15% regression; the loop keeps going so the
        # report always covers every row.
        awk -v l="$label" -v b="$base" -v f="$fresh" 'BEGIN {
            r = f / b
            if (r < 0.85) {
                printf "  FAIL %-22s %.2f -> %.2f Mflit/s (%.0f%% regression)\n", l, b, f, (1 - r) * 100
                exit 1
            } else if (r > 1.15) {
                printf "  warn %-22s %.2f -> %.2f Mflit/s (%.0f%% faster; snapshot stale)\n", l, b, f, (r - 1) * 100
            } else {
                printf "  ok   %-22s %.2f -> %.2f Mflit/s\n", l, b, f
            }
        }' || bench_fail=1
    done < "$fresh_rows"
    # A baseline row the fresh run no longer produces fails too: a
    # configuration that silently stopped running is not a pass.
    base_rows=$(mktemp)
    rows "$old" > "$base_rows"
    while read -r label base; do
        if ! awk -v l="$label" '$1 == l { found = 1 } END { exit !found }' "$fresh_rows"; then
            printf "  FAIL %-22s %.2f Mflit/s baseline: row missing from fresh run\n" "$label" "$base"
            bench_fail=1
        fi
    done < "$base_rows"
    rm -f "$fresh_rows" "$base_rows"

    if [ "$bench_fail" -ne 0 ] || [ "$keep" != "--keep" ]; then
        cp "$old" "$snap"
    fi
    rm -f "$old"
    if [ "$bench_fail" -ne 0 ]; then
        fail=1
    fi
}

# One "key value fail_band direction" line per gated metric of a
# BENCH_serve.json load row. p99 is lower-better with a 1.5x band;
# modeled goodput is higher-better (0.85 band closed, 0.50 open).
serve_rows() {
    awk -F'"' '/"mode"/ {
        label = $4
        gsub(/ /, "-", label)
        mode = $8
        if (match($0, /"p99_us": [0-9.]+/)) {
            v = substr($0, RSTART, RLENGTH)
            sub(/^"p99_us": /, "", v)
            print label ".p99_us", v, 1.5, "lower"
        }
        if (match($0, /"modeled_goodput_per_sec": [0-9.]+/)) {
            v = substr($0, RSTART, RLENGTH)
            sub(/^"modeled_goodput_per_sec": /, "", v)
            band = (mode == "open") ? 0.50 : 0.85
            print label ".modeled_goodput", v, band, "higher"
        }
    }' "$1"
}

# Re-run the serving bench and gate each load row's p99 + modeled
# goodput against the BENCH_serve.json snapshot.
gate_serve() {
    snap="$root/BENCH_serve.json"
    if [ ! -f "$snap" ]; then
        echo "perf_gate: no BENCH_serve.json snapshot to gate against;" >&2
        echo "run: cargo bench --offline -p genesis-bench --bench serve_throughput" >&2
        exit 1
    fi
    old=$(mktemp)
    cp "$snap" "$old"

    echo "perf_gate: running serve_throughput bench..."
    (cd "$root" && cargo bench --offline -p genesis-bench --bench serve_throughput >/dev/null 2>&1)

    fresh_rows=$(mktemp)
    serve_rows "$snap" > "$fresh_rows"
    bench_fail=0
    while read -r key fresh band dir; do
        base=$(serve_rows "$old" | awk -v k="$key" '$1 == k { print $2 }')
        if [ -z "$base" ]; then
            echo "  $key: new row at $fresh (no baseline)"
            continue
        fi
        awk -v k="$key" -v b="$base" -v f="$fresh" -v band="$band" -v dir="$dir" 'BEGIN {
            r = f / b
            if (dir == "lower") {
                if (r > band) {
                    printf "  FAIL %-38s %.1f -> %.1f (+%.0f%% above %.0f%% band)\n", k, b, f, (r - 1) * 100, (band - 1) * 100
                    exit 1
                } else if (r < 1 / band) {
                    printf "  warn %-38s %.1f -> %.1f (%.0f%% faster; snapshot stale)\n", k, b, f, (1 - r) * 100
                } else {
                    printf "  ok   %-38s %.1f -> %.1f\n", k, b, f
                }
            } else {
                if (r < band) {
                    printf "  FAIL %-38s %.0f -> %.0f (%.0f%% below %.0f%% band)\n", k, b, f, (1 - r) * 100, (1 - band) * 100
                    exit 1
                } else if (r > 1 / band) {
                    printf "  warn %-38s %.0f -> %.0f (+%.0f%%; snapshot stale)\n", k, b, f, (r - 1) * 100
                } else {
                    printf "  ok   %-38s %.0f -> %.0f\n", k, b, f
                }
            }
        }' || bench_fail=1
    done < "$fresh_rows"
    rm -f "$fresh_rows"

    if [ "$bench_fail" -ne 0 ] || [ "$keep" != "--keep" ]; then
        cp "$old" "$snap"
    fi
    rm -f "$old"
    if [ "$bench_fail" -ne 0 ]; then
        fail=1
    fi
}

# chosen_factor of one labeled row in a workloads snapshot.
factor_of() {
    awk -v l="$2" -F'"' '/"label"/ && $4 == l {
        if (match($0, /"chosen_factor": [0-9]+/)) {
            v = substr($0, RSTART, RLENGTH)
            sub(/^"chosen_factor": /, "", v)
            print v
        }
    }' "$1"
}

# Selective-scan pushdown gate (structural, no jitter band): the
# ~10%-selective pushed scan must choose strictly fewer replicas than
# the identical scan with pushdown off. The workloads bench asserts this
# at run time too; this check also pins the committed snapshot.
gate_pushdown() {
    snap="$root/BENCH_workloads.json"
    on=$(factor_of "$snap" pushdown_on)
    off=$(factor_of "$snap" pushdown_off)
    if [ -z "$on" ] || [ -z "$off" ]; then
        echo "perf_gate: BENCH_workloads.json is missing the pushdown rows;" >&2
        echo "run: cargo bench --offline -p genesis-bench --bench workloads" >&2
        fail=1
        return
    fi
    if [ "$on" -lt "$off" ]; then
        echo "  ok   pushdown replication     ${on}x < ${off}x (pushdown on vs off)"
    else
        echo "  FAIL pushdown replication     ${on}x vs ${off}x: pushed selective scan must replicate strictly less"
        fail=1
    fi
}

gate engine_throughput "$root/BENCH_engine.json"
gate tier_overhead "$root/BENCH_tier.json"
gate workloads "$root/BENCH_workloads.json"
gate_pushdown
gate_serve

if [ "$fail" -ne 0 ]; then
    echo "perf_gate: FAILED (snapshots restored)" >&2
    exit 1
fi
if [ "$keep" = "--keep" ]; then
    echo "perf_gate: passed; fresh numbers kept in the snapshot files"
else
    echo "perf_gate: passed (snapshots restored; --keep to adopt fresh numbers)"
fi
