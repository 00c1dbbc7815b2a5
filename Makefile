# Standard development entry points. Everything is stdlib-only Go; no
# tools beyond the Go toolchain are required.

GO ?= go
# Per-target budget for the fuzz smoke pass (Go -fuzztime syntax).
FUZZTIME ?= 30s

.PHONY: all build vet lint test race bench bench-records bench-check bench-gate fuzz-smoke figures ablations cover test-cover metrics-smoke chaos-smoke slo-smoke incident-smoke cluster-smoke clean

# test holds every committed BENCH_*.json and every example's output to
# the byte (TestCommittedRecords and the examples' golden tests), so all
# runs each check once; refreshing the records (bench-records) is a
# deliberate step, not part of all, or the check would compare the tree
# with itself. bench-gate compares the change with its base commit on
# the fixbench workloads.
all: build vet lint test race fuzz-smoke metrics-smoke chaos-smoke slo-smoke incident-smoke cluster-smoke bench-gate

# build, vet and test also cover the fix-pipeline benchmark, its own
# module (fixbench/go.mod), so a change that breaks what it calls fails
# here rather than first in a benchmark run.
build:
	$(GO) build ./...
	$(GO) -C fixbench build -o /dev/null ./...

vet:
	$(GO) vet ./...
	$(GO) -C fixbench vet ./...

# Static checks beyond vet: gofmt cleanliness of every tracked Go file
# (untracked build trees such as .bench_build/ are not the repo's code),
# plus staticcheck when (and only when) it is installed — the repo must
# stay buildable with the bare Go toolchain.
lint: vet
	@fmt=$$(git ls-files -z '*.go' | xargs -0 -r gofmt -l); if [ -n "$$fmt" ]; then \
		echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; else echo "staticcheck not installed; skipped"; fi

test:
	$(GO) test ./...
	$(GO) -C fixbench test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Rewrites every committed BENCH_*.json from its gpsbench sweep (the
# records table in cmd/gpsbench). A record whose sweep has not moved
# rewrites to the same bytes.
bench-records:
	$(GO) run ./cmd/gpsbench -quality -faults -recovery -broadcast

# Committed-record check alone: TestCommittedRecords reruns each sweep in
# process and requires its BENCH_*.json byte for byte, no line exempt.
# make test runs it too.
bench-check:
	$(GO) test -count=1 -run TestCommittedRecords ./cmd/gpsbench

# Regression gate: 5 alternating pairs of 3 s fixbench runs per
# workload, base commit against the working tree, judged by the
# BENCHMARK.json end-to-end bounds (base: BASE, else HEAD when tracked
# files differ from it, else HEAD~1). Byte counts are the committed
# records' (TestCommittedRecords).
bench-gate:
	GO="$(GO)" ./scripts/bench_gate.sh

# Short native-fuzzing pass over every parser facing external input
# (RINEX obs/nav, YUMA almanacs, NMEA sentences, journals, checkpoint
# files and cluster handoff bodies, wire frames) or an operator (binary
# dataset files, the -faults fault-program spec and the -slo objective
# spec grammars), plus
# the NMEA fixed-point formatter against strconv, the one-pass GGA+RMC
# pair against the two sentence encoders and the C/N0 weight's pow10
# against math.Pow. Each target gets FUZZTIME; seed corpora and past
# crashers live under testdata/fuzz/.
fuzz-smoke:
	$(GO) test -fuzz=FuzzReadObs -fuzztime=$(FUZZTIME) ./internal/rinex/
	$(GO) test -fuzz=FuzzReadNav -fuzztime=$(FUZZTIME) ./internal/rinex/
	$(GO) test -fuzz=FuzzReadYuma -fuzztime=$(FUZZTIME) ./internal/orbit/
	$(GO) test -fuzz=FuzzValidate -fuzztime=$(FUZZTIME) ./internal/nmea/
	$(GO) test -fuzz=FuzzParseGGA -fuzztime=$(FUZZTIME) ./internal/nmea/
	$(GO) test -fuzz=FuzzAppendFixed -fuzztime=$(FUZZTIME) ./internal/nmea/
	$(GO) test -fuzz=FuzzAppendFixPair -fuzztime=$(FUZZTIME) ./internal/nmea/
	$(GO) test -fuzz=FuzzParseSpec -fuzztime=$(FUZZTIME) ./internal/fault/
	$(GO) test -fuzz=FuzzParseObjectives -fuzztime=$(FUZZTIME) ./internal/slo/
	$(GO) test -fuzz=FuzzFrameReader -fuzztime=$(FUZZTIME) ./internal/journal/
	$(GO) test -fuzz=FuzzCheckpointDecode -fuzztime=$(FUZZTIME) ./internal/checkpoint/
	$(GO) test -fuzz=FuzzWireDecode -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz=FuzzReadDataset -fuzztime=$(FUZZTIME) ./internal/scenario/
	$(GO) test -fuzz=FuzzPow10 -fuzztime=$(FUZZTIME) ./internal/atmosphere/

# Regenerate every table and figure of the paper at full 24 h × 1 Hz
# scale (a few minutes), plus the ablations.
figures:
	$(GO) run ./cmd/gpsbench -fig all -duration 86400 -step 1

ablations:
	$(GO) run ./cmd/gpsbench -ablation all -duration 86400 -step 5

cover:
	$(GO) test ./... -cover

# Full coverage profile with a per-function breakdown, plus hard floors
# on the numerical packages the solve paths lean on: a drop below 85%
# statement coverage in internal/mat or internal/core fails the target.
test-cover:
	$(GO) test ./... -coverprofile=coverage.out
	$(GO) tool cover -func=coverage.out | tail -n 20
	@for pkg in gpsdl/internal/mat gpsdl/internal/core; do \
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
