#!/bin/bash
# Throughput regression gate. Run from the repository root.
#
# scripts/benchgate runs the fix-pipeline benchmark (fixbench) on the
# base commit and on the working tree in alternating pairs, and fails
# when the change's median is worse than a BENCHMARK.json end-to-end
# bound allows, when any run fails or prints "correct": false, or when
# the change fails a larger share of operations. Both sides are built
# and run here and now, so there is no baseline file to go stale. The
# base is BASE when set; otherwise HEAD when tracked files differ from
# it, else HEAD~1 (the last commit is the change). The base is a `git
# archive` copy under .bench_build/gate/base, whose own .bench_build
# keeps its warm Go build cache between runs. Byte counts such as the
# broadcast record's bytes/fix are not gated here: they are exact, so
# TestCommittedRecords (go test ./cmd/gpsbench) holds them to the byte.
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
