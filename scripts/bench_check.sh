#!/bin/bash
# Deterministic-record check. Run from the repository root.
#
# Reruns the deterministic gpsbench sweeps (-quality, -faults, -recovery)
# into a temporary directory and requires each committed BENCH_*.json to
# match its fresh output byte for byte. The sweeps run the scenario
# generator, the engine and the solvers end to end, so a change that
# moves one bit of their output fails here until the record is
# regenerated on purpose (make bench-quality, bench-faults,
# bench-recovery). The only lines exempt are the recovery record's
# save_millis and load_millis: the sweeps' only wall-clock timings.
set -euo pipefail

GO=${GO:-go}
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT INT TERM

"$GO" build -o "$workdir/gpsbench" ./cmd/gpsbench
status=0
for sweep in quality faults recovery; do
    fresh="$workdir/BENCH_$sweep.json"
    "$workdir/gpsbench" "-$sweep" "-$sweep-json" "$fresh" >/dev/null
    timing='^ *"(save|load)_millis": '
    if diff <(grep -Ev "$timing" "BENCH_$sweep.json") <(grep -Ev "$timing" "$fresh") >"$workdir/diff"; then
        echo "bench-check: BENCH_$sweep.json regenerates identically"
    else
        echo "FAIL: BENCH_$sweep.json differs from a fresh gpsbench -$sweep run (committed <, fresh >):"
        head -n 40 "$workdir/diff"
        status=1
    fi
done
exit $status
