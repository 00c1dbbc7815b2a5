#!/bin/bash
# Throughput regression gate: re-runs the fix-engine benchmark sweep and
# compares fixes/sec per arm against the committed baseline
# (BENCH_engine.json). Points are keyed "arm:receivers" — the
# pregenerated sweep is arm "pregen", the live-generation arms carry
# their own names ("live-cache-p1", "live-cache-p4"), so solver-path and
# live serving throughput (synthesis through the shared epoch cache)
# are both gated. A fresh point more than
# TOLERANCE_PCT below its baseline fails the gate; faster is always
# fine. The committed file is refreshed by `make bench-json` — run that
# (on the reference machine) after a deliberate perf change, and commit
# the delta alongside it. The gate mirrors the baseline's pregenerated
# sweep and uses gpsbench's default live-arm settings, matching how
# `make bench-json` produces the baseline.
set -euo pipefail

GO=${GO:-go}
TOLERANCE_PCT=${TOLERANCE_PCT:-15}
baseline=${BASELINE:-BENCH_engine.json}

[ -f "$baseline" ] || { echo "FAIL: baseline $baseline missing (run: make bench-json)"; exit 1; }

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT INT TERM
fresh="$workdir/fresh.json"

# extract FILE: one "arm:receivers fixes_per_sec" line per series point,
# in series order. Points before the first "arm" key are the
# pregenerated sweep; each live point emits its "arm" before its metrics
# (field order is part of the JSON contract, see engineLivePoint).
extract() {
    awk '
        BEGIN              { arm = "pregen" }
        /"arm":/           { v = $2; gsub(/[",]/, "", v); arm = v }
        /"receivers":/     { v = $2; gsub(/,/, "", v); r = v }
        /"fixes_per_sec":/ { v = $2; gsub(/,/, "", v); printf "%s:%s %s\n", arm, r, v }
    ' "$1"
}

# Mirror the baseline's pregenerated sweep so the points line up.
receivers=$(extract "$baseline" | awk -F'[: ]' '$1 == "pregen" { print $2 }' | paste -sd, -)
[ -n "$receivers" ] || { echo "FAIL: no pregenerated series points in $baseline"; exit 1; }

"$GO" run ./cmd/gpsbench -engine -engine-receivers "$receivers" -engine-json "$fresh" >"$workdir/bench.out" 2>&1 ||
    { echo "FAIL: benchmark run failed"; cat "$workdir/bench.out"; exit 1; }

status=0
while read -r key base fkey fresh_rate; do
    if [ "$key" != "$fkey" ] || [ -z "$fresh_rate" ]; then
        echo "FAIL: series shape mismatch: baseline point '$key' vs fresh point '$fkey'"
        status=1
        break
    fi
    verdict=$(awk -v b="$base" -v f="$fresh_rate" -v tol="$TOLERANCE_PCT" 'BEGIN {
        floor = b * (1 - tol / 100)
        printf "%s %.0f", (f >= floor) ? "ok" : "REGRESSED", floor
    }')
    printf '%-18s baseline=%-10.0f fresh=%-10.0f floor=%s -> %s\n' \
        "$key" "$base" "$fresh_rate" "${verdict#* }" "${verdict% *}"
    [ "${verdict% *}" = ok ] || status=1
done < <(paste -d' ' <(extract "$baseline") <(extract "$fresh"))

if [ "$status" -ne 0 ]; then
    echo "FAIL: engine throughput regressed more than ${TOLERANCE_PCT}% below $baseline"
    exit 1
fi
echo "bench gate OK (within ${TOLERANCE_PCT}% of $baseline)"

# Serving fan-out gate: the broadcast benchmark's bytes-per-fix is a
# property of the encodings, not the machine, so it is gated tightly in
# the growth direction — a frame that gets bigger is an encoding
# regression (shrinking is fine). Throughput is deliberately NOT gated
# here: the fan-out loops run in microseconds and their rates are
# timer-resolution noise. Skipped when no baseline is committed.
bbaseline=${BROADCAST_BASELINE:-BENCH_broadcast.json}
btol=${BROADCAST_TOLERANCE_PCT:-10}
if [ -f "$bbaseline" ]; then
    bfresh="$workdir/broadcast.json"
    "$GO" run ./cmd/gpsbench -broadcast -broadcast-trials 2 -broadcast-json "$bfresh" \
        >"$workdir/broadcast.out" 2>&1 ||
        { echo "FAIL: broadcast benchmark run failed"; cat "$workdir/broadcast.out"; exit 1; }

    # bextract FILE: one "arm:clients bytes_per_fix" line per series
    # point (field order: arm, clients, ..., bytes_per_fix).
    bextract() {
        awk '
            /"arm":/           { v = $2; gsub(/[",]/, "", v); arm = v }
            /"clients":/       { v = $2; gsub(/,/, "", v); c = v }
            /"bytes_per_fix":/ { v = $2; gsub(/,/, "", v); printf "%s:%s %s\n", arm, c, v }
        ' "$1"
    }

    while read -r key base fkey fresh_bpf; do
        if [ "$key" != "$fkey" ] || [ -z "$fresh_bpf" ]; then
            echo "FAIL: broadcast series shape mismatch: baseline '$key' vs fresh '$fkey'"
            status=1
            break
        fi
        verdict=$(awk -v b="$base" -v f="$fresh_bpf" -v tol="$btol" 'BEGIN {
            ceil = b * (1 + tol / 100)
            printf "%s %.1f", (f <= ceil) ? "ok" : "GREW", ceil
        }')
        printf '%-12s baseline=%-8.1f fresh=%-8.1f ceiling=%s bytes/fix -> %s\n' \
            "$key" "$base" "$fresh_bpf" "${verdict#* }" "${verdict% *}"
        [ "${verdict% *}" = ok ] || status=1
    done < <(paste -d' ' <(bextract "$bbaseline") <(bextract "$bfresh"))

    # The claim the wire protocol exists for must keep holding: binary
    # frames at least 2x smaller than the text sentences per fix.
    read -r nmea_bpf wire_bpf < <(bextract "$bfresh" | awk '
        /^nmea:/ { n = $2 } /^wire:/ { w = $2 } END { print n, w }')
    if ! awk -v n="$nmea_bpf" -v w="$wire_bpf" 'BEGIN { exit !(w * 2 <= n) }'; then
        echo "FAIL: wire frames ($wire_bpf bytes/fix) no longer at least 2x smaller than NMEA ($nmea_bpf bytes/fix)"
        status=1
    fi

    if [ "$status" -ne 0 ]; then
        echo "FAIL: broadcast encoding regressed against $bbaseline"
        exit 1
    fi
    echo "broadcast gate OK (bytes/fix within ${btol}% of $bbaseline, wire >= 2x smaller than NMEA)"
else
    echo "broadcast gate skipped: no $bbaseline baseline"
fi
