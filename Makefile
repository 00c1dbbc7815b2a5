# Standard development entry points. Everything is stdlib-only Go; no
# tools beyond the Go toolchain are required.

GO ?= go
# Per-target budget for the fuzz smoke pass (Go -fuzztime syntax).
FUZZTIME ?= 30s

.PHONY: all build vet lint test race bench bench-json bench-broadcast bench-quality bench-faults bench-recovery bench-gate bench-journal determinism fault-determinism fuzz-smoke figures ablations cover test-cover metrics-smoke chaos-smoke slo-smoke incident-smoke cluster-smoke clean

all: build vet test determinism fault-determinism race fuzz-smoke metrics-smoke chaos-smoke slo-smoke incident-smoke cluster-smoke bench-json bench-broadcast bench-gate

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static checks beyond vet: gofmt cleanliness everywhere, plus
# staticcheck when (and only when) it is installed — the repo must stay
# buildable with the bare Go toolchain.
lint: vet
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; else echo "staticcheck not installed; skipped"; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable fix-engine throughput curve (fixes/sec vs receiver
# count); the series EXPERIMENTS.md tracks.
bench-json:
	$(GO) run ./cmd/gpsbench -engine -engine-receivers 1,2,4,8 -engine-json BENCH_engine.json

# Serving fan-out comparison: NMEA text vs binary delta frames across
# subscriber counts (delivered fixes/sec, bytes/sec, bytes/fix), written
# to BENCH_broadcast.json. The bytes-per-fix series is gated by
# bench-gate; a frame-size growth fails the build.
bench-broadcast:
	$(GO) run ./cmd/gpsbench -broadcast -broadcast-json BENCH_broadcast.json

# Solution-quality sweep: each solver through the canonical degradation
# scenarios (clean/burst/step/shrink/clockjump) with the quality layer
# and default SLOs enabled, written to BENCH_quality.json.
bench-quality:
	$(GO) run ./cmd/gpsbench -quality -quality-json BENCH_quality.json

# Throughput regression gate: re-runs the engine sweep and fails if any
# receiver count lands more than 15% below the committed
# BENCH_engine.json baseline (override with TOLERANCE_PCT).
bench-gate:
	GO="$(GO)" ./scripts/bench_gate.sh

# Flight-journal overhead: paired journal-off/on engine runs (median of
# interleaved trials), written to BENCH_journal.json. Budget: < 5%.
bench-journal:
	$(GO) run ./cmd/gpsbench -journal -journal-json BENCH_journal.json

# Degradation curve under the composite fault program: accuracy rate η
# and availability vs fault intensity, written to BENCH_faults.json.
bench-faults:
	$(GO) run ./cmd/gpsbench -faults

# Checkpoint-recovery comparison: cold restart (NR re-warm-up) vs
# -restore from a checkpoint, written to BENCH_recovery.json.
bench-recovery:
	$(GO) run ./cmd/gpsbench -recovery

# Timebase determinism property: serial and parallel generation agree
# bit-for-bit for awkward step sizes (0.1, 1/3, 86400/7); the Golden
# pins catch cross-version drift of EpochAt output.
determinism:
	$(GO) test -run 'Determinism|Golden' ./internal/scenario/...

# Fault-injection determinism: the same (program, seed) pair mutates the
# observation stream identically on every worker count, so degradation
# runs stay byte-replayable. The Golden pins catch cross-version drift
# of faulted observations, events, NMEA and wire bytes.
fault-determinism:
	$(GO) test -run 'Determinism|Golden' ./internal/fault/ ./internal/engine/

# Short native-fuzzing pass over every parser facing external input
# (RINEX obs/nav, YUMA almanacs, NMEA sentences, journals, checkpoint
# files and cluster handoff bodies), plus the NMEA fixed-point
# formatter against strconv. Each target gets
# FUZZTIME; seed corpora and past crashers live under testdata/fuzz/.
fuzz-smoke:
	$(GO) test -fuzz=FuzzReadObs -fuzztime=$(FUZZTIME) ./internal/rinex/
	$(GO) test -fuzz=FuzzReadNav -fuzztime=$(FUZZTIME) ./internal/rinex/
	$(GO) test -fuzz=FuzzReadYuma -fuzztime=$(FUZZTIME) ./internal/orbit/
	$(GO) test -fuzz=FuzzValidate -fuzztime=$(FUZZTIME) ./internal/nmea/
	$(GO) test -fuzz=FuzzParseGGA -fuzztime=$(FUZZTIME) ./internal/nmea/
	$(GO) test -fuzz=FuzzAppendFixed -fuzztime=$(FUZZTIME) ./internal/nmea/
	$(GO) test -fuzz=FuzzFrameReader -fuzztime=$(FUZZTIME) ./internal/journal/
	$(GO) test -fuzz=FuzzCheckpointDecode -fuzztime=$(FUZZTIME) ./internal/checkpoint/
	$(GO) test -fuzz=FuzzRankOneApplyInv -fuzztime=$(FUZZTIME) ./internal/lsq/

# Regenerate every table and figure of the paper at full 24 h × 1 Hz
# scale (a few minutes), plus the ablations.
figures:
	$(GO) run ./cmd/gpsbench -fig all -duration 86400 -step 1

ablations:
	$(GO) run ./cmd/gpsbench -ablation all -duration 86400 -step 5

cover:
	$(GO) test ./... -cover

# Full coverage profile with a per-function breakdown, plus hard floors
# on the numerical packages the weighted solve paths lean on: a drop
# below 85% statement coverage in internal/lsq or internal/core fails
# the target.
test-cover:
	$(GO) test ./... -coverprofile=coverage.out
	$(GO) tool cover -func=coverage.out | tail -n 20
	@for pkg in gpsdl/internal/lsq gpsdl/internal/core; do \
		pct=$$($(GO) test -cover $$pkg | awk '{ for (i = 1; i <= NF; i++) if ($$i ~ /%$$/) { sub(/%/, "", $$i); print $$i } }'); \
		echo "$$pkg coverage: $$pct% (floor 85%)"; \
		awk -v p="$$pct" 'BEGIN { exit !(p < 85) }' && { echo "FAIL: $$pkg below the 85% coverage floor"; exit 1; } || true; \
	done

# End-to-end check of the gpsserve admin endpoint and journal replay:
# boots the default one-receiver server with -admin and -journal,
# scrapes /metrics and /healthz, asserts the key metric families are
# exposed, and replays the journal bit-identically through gpsinspect.
metrics-smoke:
	GO="$(GO)" ./scripts/metrics_smoke.sh

# Chaos end-to-end check of the supervised engine (race-built gpsserve):
# injected worker panic, stalled NMEA client, mid-run SIGTERM with
# graceful drain, restart with -restore, and a corrupt-checkpoint
# cold-start fallback.
chaos-smoke:
	GO="$(GO)" ./scripts/chaos_smoke.sh

# End-to-end check of the quality/SLO surface (race-built gpsserve): a
# scheduled noise burst must flip the /debug/status fleet verdict from
# ok to page, spend the error budget, and force health downgrades.
slo-smoke:
	GO="$(GO)" ./scripts/slo_smoke.sh

# Node-kill chaos check of the multi-node serving tier (race-built
# gpsserve x2 + gpsproxy + gpsclient): kill -9 one node mid-stream; the
# proxy must re-home its sessions onto the survivor by checkpoint
# handoff, clients must resume with strictly consecutive epochs, and
# every fix delivered across the failover must be bit-identical to an
# uninterrupted same-seed run.
cluster-smoke:
	GO="$(GO)" ./scripts/cluster_smoke.sh

# End-to-end check of the black-box forensics loop (race-built gpsserve):
# a RAIM-evading step fault must page, capture a self-contained incident
# bundle, and the bundle must replay bit-for-bit and attribute the burn
# to the faulted satellite through gpsinspect.
incident-smoke:
	GO="$(GO)" ./scripts/incident_smoke.sh

clean:
	$(GO) clean ./...
