#!/bin/bash
# Benchmark regression gate, in two halves. Run from the repository root.
#
# Throughput: scripts/benchgate runs the fix-pipeline benchmark
# (fixbench) on the base commit and on the working tree in alternating
# pairs, and fails when the change's median is worse than a
# BENCHMARK.json end-to-end bound allows, when any run fails or prints
# "correct": false, or when the change fails a larger share of
# operations. Both sides are built and run here and now, so there is no
# baseline file to go stale. The base is BASE when set; otherwise HEAD
# when tracked files differ from it, else HEAD~1 (the last commit is the
# change). The base is a `git archive` copy under .bench_build/gate/base,
# whose own .bench_build keeps its warm Go build cache between runs.
set -euo pipefail

GO=${GO:-go}

if [ -n "${BASE:-}" ]; then
    base_ref=$BASE
elif git diff --quiet HEAD --; then
    base_ref=HEAD~1
else
    base_ref=HEAD
fi
base_sha=$(git rev-parse --verify --quiet "$base_ref^{commit}") ||
    { echo "FAIL: base $base_ref is not a commit"; exit 1; }
base_dir=.bench_build/gate/base
mkdir -p "$base_dir"
find "$base_dir" -mindepth 1 -maxdepth 1 ! -name .bench_build -exec rm -rf {} +
git archive "$base_sha" | tar -x -C "$base_dir"

echo "throughput gate: base $base_ref ($(git rev-parse --short "$base_sha")) vs the working tree"
"$GO" run ./scripts/benchgate "$base_dir" ||
    { echo "FAIL: fix-pipeline throughput gate (base $base_ref)"; exit 1; }
echo "throughput gate OK"

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT INT TERM
status=0

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
