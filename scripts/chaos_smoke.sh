#!/bin/bash
# Chaos smoke test for the supervised engine: boots gpsserve (built with
# -race) in engine mode with an injected worker panic and checkpointing
# on, attaches one healthy and one permanently stalled NMEA client,
# SIGTERMs the server mid-run, and asserts the graceful-drain contract:
#   - the panic was supervised (counted on /healthz, server kept serving)
#   - the stalled client was evicted with reason "slow" after shedding
#     its backlog oldest-first, while the healthy client kept receiving
#   - shutdown printed a conserved batch summary and wrote a final
#     checkpoint
#   - a restart with -restore resumes from that checkpoint
#   - a flipped checkpoint byte degrades -restore to a logged cold
#     start, not a crash
#   - a checkpoint whose receiver 1 ran another station is rejected:
#     a logged cold start, reported as "rejected" on /healthz
# Needs bash (the stalled client is a /dev/tcp redirection) and curl.
set -euo pipefail

GO=${GO:-go}
workdir=$(mktemp -d)
log="$workdir/gpsserve.log"
bin="$workdir/gpsserve"
ckpt="$workdir/gps.ckpt"

cleanup() {
    [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null || true
    exec 3<&- 3>&- 4<&- 4>&- 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

# phase names the running phase in failure messages.
phase="setup"

fail() {
    echo "FAIL ($phase): $1"
    echo "--- server log ---"
    cat "$log"
    exit 1
}

# wait_grep FILE PATTERN DESC: poll up to 15 s for PATTERN in FILE.
wait_grep() {
    for _ in $(seq 1 150); do
        grep -q "$2" "$1" 2>/dev/null && return 0
        [ -n "${pid:-}" ] && ! kill -0 "$pid" 2>/dev/null && fail "server exited early waiting for $3"
        sleep 0.1
    done
    fail "$3 never appeared"
}

# start_server ARGS...: launch gpsserve into an emptied $log. The log is
# emptied here, not by the backgrounded redirection, which truncates only
# once the child runs: until then wait_grep would match the previous
# phase's admin banner and sed would read the file as it is truncated.
start_server() {
    : >"$log"
    "$bin" "$@" -addr 127.0.0.1:0 -admin 127.0.0.1:0 \
        -checkpoint "$ckpt" -checkpoint-every 10 -checkpoint-interval 200ms \
        >"$log" 2>&1 &
    pid=$!
    wait_grep "$log" '^gpsserve: admin on' "admin banner"
    admin=$(sed -n 's|^gpsserve: admin on http://\([^ ]*\).*|\1|p' "$log")
    serve=$(sed -n 's|^gpsserve: engine mode.* on \([0-9.:]*\) (.*|\1|p' "$log")
    [ -n "$admin" ] && [ -n "$serve" ] || fail "could not parse listen addresses"
}

# healthz_field NAME: top-level numeric field from /healthz; empty (not
# a pipefail abort) while the server is still coming up or the field is
# absent. The per-shard census array repeats names like "panics", so it
# is stripped first (its entries are flat objects, no nested brackets).
healthz_field() {
    { curl -sS "http://$admin/healthz" | sed 's/"shards":\[[^]]*\]//' |
        grep -o "\"$1\":[0-9.-]*" | head -1 | cut -d: -f2; } || true
}

"$GO" build -race -o "$bin" ./cmd/gpsserve

# ---- Phase 1: panic isolation + backpressure + SIGTERM drain ----------
phase="phase 1: panic, slow client, drain"
# Every receiver panics once at T=30 (epoch 30 at 1 s steps); the
# supervisor must convert both panics into quarantine+restart and keep
# the server up. The rate is high so the stalled client's kernel socket
# buffers saturate within seconds and the eviction path actually fires.
start_server -receivers 2 -station all -rate 500 -faults 'panic:at=30,until=31'

# Stalled client: opens the NMEA port and never reads.
exec 3<>"/dev/tcp/${serve%:*}/${serve#*:}"

# Healthy client: must keep receiving sentences throughout the chaos.
exec 4<>"/dev/tcp/${serve%:*}/${serve#*:}"
got=0
for _ in $(seq 1 100); do
    if IFS= read -r -t 5 line <&4 && [ -n "$line" ]; then got=$((got + 1)); fi
    [ "$got" -ge 5 ] && break
done
[ "$got" -ge 5 ] || fail "healthy client starved ($got sentences)"

# The injected panics must show up as supervised restarts on /healthz.
for _ in $(seq 1 150); do
    p=$(healthz_field panics)
    [ "${p:-0}" -ge 2 ] 2>/dev/null && break
    sleep 0.1
done
[ "${p:-0}" -ge 2 ] || fail "/healthz panics=$p, want >= 2"
r=$(healthz_field restarts)
[ "${r:-0}" -ge 2 ] || fail "/healthz restarts=$r, want >= 2"

# The stalled client must be evicted (reason "slow") after drop-oldest
# shed its backlog; the healthy client must still be connected.
for _ in $(seq 1 600); do
    c=$(healthz_field clients)
    [ "${c:-2}" -le 1 ] 2>/dev/null && break
    sleep 0.1
done
[ "${c:-2}" -le 1 ] || fail "stalled client was never dropped (clients=$c)"
metrics=$(curl -fsS "http://$admin/metrics")
printf '%s\n' "$metrics" | grep 'gpsserve_drops_total{reason="slow"}' | grep -qv ' 0$' ||
    fail "no slow-reason drop in /metrics"
printf '%s\n' "$metrics" | grep 'gpsserve_sentences_dropped_total' | grep -qv ' 0$' ||
    fail "drop-oldest shed no sentences"
if ! IFS= read -r -t 5 line <&4 || [ -z "$line" ]; then
    fail "healthy client stopped receiving after the stalled client was evicted"
fi

# Mid-run SIGTERM: graceful drain — conserved batches, final checkpoint.
kill -TERM "$pid"
if ! wait "$pid"; then fail "server exited non-zero on SIGTERM"; fi
pid=
grep -q 'gpsserve: drained: .*conserved=true' "$log" || fail "no conserved drain summary"
[ -s "$ckpt" ] || fail "no checkpoint written on shutdown"
cp "$ckpt" "$workdir/phase1.ckpt"
exec 3<&- 3>&- 4<&- 4>&-

# ---- Phase 2: kill-and-restore ----------------------------------------
phase="phase 2: restore"
start_server -receivers 2 -station all -rate 500 -restore
grep -q 'gpsserve: restored 2 sessions' "$log" || fail "restart did not restore the checkpoint"
kill -TERM "$pid"
wait "$pid" || fail "restored server exited non-zero on SIGTERM"
pid=

# ---- Phase 3: corrupt checkpoint falls back to cold start -------------
phase="phase 3: corrupt checkpoint"
printf 'X' | dd of="$ckpt" bs=1 seek=12 count=1 conv=notrunc 2>/dev/null
start_server -receivers 2 -station all -rate 500 -restore
wait_grep "$log" 'cold start' "cold-start fallback log"
grep -q 'gpsserve: restored' "$log" && fail "corrupt checkpoint was restored"
kill -TERM "$pid"
wait "$pid" || fail "cold-start server exited non-zero on SIGTERM"
pid=

# ---- Phase 4: rejected checkpoint falls back to cold start ------------
phase="phase 4: rejected checkpoint"
# Phase 1 ran receiver 0 at SRZN and receiver 1 at YYR1; pinning both to
# SRZN makes the engine refuse receiver 1's record.
cp "$workdir/phase1.ckpt" "$ckpt"
start_server -receivers 2 -station SRZN -rate 500 -restore
wait_grep "$log" 'cold start' "cold-start fallback log"
grep -q 'gpsserve: restored' "$log" && fail "mismatched checkpoint was restored"
curl -fsS "http://$admin/healthz" | grep -q '"outcome":"rejected"' ||
    fail "/healthz does not report the restore as rejected"
kill -TERM "$pid"
wait "$pid" || fail "cold-start server exited non-zero on SIGTERM"
pid=

echo "chaos smoke OK (panic supervised, slow client evicted, drain conserved, restore + corrupt and rejected fallbacks verified)"
