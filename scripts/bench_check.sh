#!/bin/bash
# Committed-record check. Run from the repository root.
#
# Reruns the gpsbench sweeps behind every committed record (-quality,
# -faults, -recovery, -broadcast) into a temporary directory and
# requires each BENCH_*.json to match its fresh output byte for byte.
# The records hold no timings, only counts and errors that are exact for
# the seed, and the sweeps run the scenario generator, the engine, the
# solvers, the checkpoint codec and the wire hub end to end. So a change
# that moves one bit of their output fails here until the record is
# regenerated on purpose (make bench-quality, bench-faults,
# bench-recovery, bench-broadcast).
set -euo pipefail

GO=${GO:-go}
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT INT TERM

"$GO" build -o "$workdir/gpsbench" ./cmd/gpsbench
status=0
for sweep in quality faults recovery broadcast; do
    fresh="$workdir/BENCH_$sweep.json"
    "$workdir/gpsbench" "-$sweep" "-$sweep-json" "$fresh" >/dev/null
    if diff "BENCH_$sweep.json" "$fresh" >"$workdir/diff"; then
        echo "bench-check: BENCH_$sweep.json regenerates identically"
    else
        echo "FAIL: BENCH_$sweep.json differs from a fresh gpsbench -$sweep run (committed <, fresh >):"
        head -n 40 "$workdir/diff"
        status=1
    fi
done
exit $status
