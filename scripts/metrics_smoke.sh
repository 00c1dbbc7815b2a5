#!/bin/bash
# Smoke test for the gpsserve admin endpoint, in two phases:
#   1. the default one-receiver server with -journal: scrape /metrics and
#      /healthz, assert the key engine and clock families and every
#      gpsserve_* family are exposed, then stop it and require gpsinspect
#      replay to re-solve the journal's captured epochs bit-identically
#   2. two receivers with -journal and -incident-dir: assert the flight
#      journal and incident counters are exported
# Exits non-zero on any miss.
set -euo pipefail

GO=${GO:-go}
workdir=$(mktemp -d)
log="$workdir/gpsserve.log"
bin="$workdir/gpsserve"
inspect="$workdir/gpsinspect"

cleanup() {
    [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

"$GO" build -o "$bin" ./cmd/gpsserve
"$GO" build -o "$inspect" ./cmd/gpsinspect

# wait_admin: poll the startup banner ("gpsserve: admin on http://ADDR")
# for up to 5 s and echo the admin address.
wait_admin() {
    local a=""
    for _ in $(seq 1 50); do
        a=$(sed -n 's|^gpsserve: admin on http://\([^ ]*\).*|\1|p' "$log")
        [ -n "$a" ] && break
        kill -0 "$pid" 2>/dev/null || { echo "gpsserve exited early:" >&2; cat "$log" >&2; exit 1; }
        sleep 0.1
    done
    if [ -z "$a" ]; then
        echo "admin banner never appeared:" >&2
        cat "$log" >&2
        exit 1
    fi
    printf '%s' "$a"
}

status=0

# Phase 1: the default one-receiver server, journaling. ~3 s at 50
# epoch/s covers the journal's full-observation captures at epochs 0,
# 64 and 128.
"$bin" -station YYR1 -rate 50 -addr 127.0.0.1:0 -admin 127.0.0.1:0 \
    -journal "$workdir/single.gpsj" >"$log" 2>&1 &
pid=$!
addr=$(wait_admin)
sleep 3

metrics=$(curl -fsS "http://$addr/metrics")
health=$(curl -sS "http://$addr/healthz")

for name in engine_solve_seconds engine_solve_failures_total engine_fixes_total \
    gps_clock_resets_total gpsserve_clients gpsserve_epochs_total; do
    if ! printf '%s\n' "$metrics" | grep -q "$name"; then
        echo "FAIL: /metrics missing $name"
        status=1
    fi
done
# Every gpsserve_* family, so a rename in the serving path fails here.
for name in gpsserve_clients gpsserve_connects_total gpsserve_drops_total \
    gpsserve_sentences_total gpsserve_sentences_dropped_total \
    gpsserve_epochs_total gpsserve_fixes_total gpsserve_hdop; do
    if ! printf '%s\n' "$metrics" | grep -q "^# TYPE $name "; then
        echo "FAIL: /metrics missing the $name family"
        status=1
    fi
done
case $health in
*'"status"'*) ;;
*)
    echo "FAIL: /healthz returned no status: $health"
    status=1
    ;;
esac

kill "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
pid=
if ! grep -q '^gpsserve: journal closed:' "$log"; then
    echo "FAIL: the one-receiver server did not close its journal on SIGTERM"
    status=1
fi
if ! "$inspect" replay "$workdir/single.gpsj" >"$workdir/replay.log" 2>&1 ||
    ! grep -q 'replayed bit-identically' "$workdir/replay.log"; then
    echo "FAIL: gpsinspect replay of the one-receiver journal:"
    cat "$workdir/replay.log"
    status=1
fi

# Phase 2: several receivers with the flight journal and incident
# capture on; the journal/incident counter families must register at
# startup.
: >"$log"
"$bin" -receivers 2 -station all -rate 50 -addr 127.0.0.1:0 -admin 127.0.0.1:0 \
    -journal "$workdir/flight.gpsj" -incident-dir "$workdir/incidents" >"$log" 2>&1 &
pid=$!
addr=$(wait_admin)

emetrics=$(curl -fsS "http://$addr/metrics")
for name in gps_journal_bytes_written_total gps_journal_fsyncs_total \
    engine_incidents_captured_total engine_incidents_dropped_total; do
    if ! printf '%s\n' "$emetrics" | grep -q "^$name"; then
        echo "FAIL: multi-receiver /metrics missing $name"
        status=1
    fi
done
if ! printf '%s\n' "$emetrics" | grep '^gps_journal_bytes_written_total' | grep -qv ' 0$'; then
    echo "FAIL: flight journal wrote no bytes"
    status=1
fi

if [ "$status" -eq 0 ]; then
    echo "metrics smoke OK ($addr; healthz: $health; $(tail -1 "$workdir/replay.log"); journal+incident counters exported)"
fi
exit $status
