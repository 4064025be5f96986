#!/usr/bin/env bash
# Tier-1 gate: vet, build, and race-test the whole tree. Run as
# `make check` or directly. Every PR must leave this green.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== doc + gofmt check"
./scripts/doccheck.sh

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

echo "== hot-path benchmark smoke (1 iteration)"
go test -run=xxx -bench='BenchmarkMaterializeSample$' -benchtime=1x ./internal/core/ >/dev/null
go test -run=xxx -bench='BenchmarkCodecRandomAccess$' -benchtime=1x ./internal/codec/ >/dev/null
go test -run=xxx -bench='BenchmarkAugmentPipeline$' -benchtime=1x ./internal/augment/ >/dev/null
go test -run=xxx -bench='BenchmarkStoreRoundTrip$' -benchtime=1x ./internal/storage/ >/dev/null
go test -run=xxx -bench='BenchmarkStoreContention' -benchtime=1x ./internal/storage/ >/dev/null

echo "== quickstart shard smoke (1 shard vs 16 shards)"
go run ./examples/quickstart -store-shards 1 >/dev/null
go run ./examples/quickstart -store-shards 16 >/dev/null

echo "== overlap-aware reuse smoke (superset hits + byte-identical output at every level)"
# The four-view overlapping-crop quickstart must produce byte-identical
# batches at -reuse=batch, sample and off, and the reuse path must
# actually fire (nonzero superset hits) at batch and sample level — see
# DESIGN.md §9. An unknown level must be rejected.
declare -A REUSE_OUT
for level in batch sample off; do
	REUSE_OUT[$level]="$(go run ./examples/quickstart -overlap -reuse=$level | grep -E '^(batch digest|reuse):')"
done
DIG_BATCH="$(grep '^batch digest:' <<<"${REUSE_OUT[batch]}")"
for level in sample off; do
	DIG="$(grep '^batch digest:' <<<"${REUSE_OUT[$level]}")"
	if [ -z "$DIG_BATCH" ] || [ "$DIG_BATCH" != "$DIG" ]; then
		echo "reuse smoke: output digests differ between -reuse=batch and -reuse=$level" >&2
		echo "  batch:  $DIG_BATCH" >&2
		echo "  $level: $DIG" >&2
		exit 1
	fi
done
for level in batch sample; do
	if ! grep '^reuse:' <<<"${REUSE_OUT[$level]}" | grep -q 'superset_hits=[1-9]'; then
		echo "reuse smoke: no superset hits at -reuse=$level on the overlapping-view task" >&2
		grep '^reuse:' <<<"${REUSE_OUT[$level]}" >&2
		exit 1
	fi
done
if go run ./examples/quickstart -overlap -reuse=bogus >/dev/null 2>&1; then
	echo "reuse smoke: quickstart accepted -reuse=bogus" >&2
	exit 1
fi
echo "reuse smoke: identical digests at batch/sample/off; batch $(grep '^reuse:' <<<"${REUSE_OUT[batch]}")"

echo "== zero-copy dataplane smoke (8 shards, 1 MiB budget)"
# Tight budget forces eviction passes to run while pinned batches are in
# flight; the example fails if any remote byte differs from local or if
# no response went out by reference.
go run ./examples/remote -store-shards 8 -mem-budget-mb 1 >/dev/null

echo "== closed-loop scheduling smoke (admission control + adaptive read-ahead gates)"
# Runs the sched experiment end to end: admission control must engage
# under premat overload and beat the static baseline >= 2x on demand
# p99, cost free when uncontended, and adaptive read-ahead must match
# the fixed depth while bounding a stalled client — see DESIGN.md §11.
./scripts/bench_sched.sh >/dev/null

echo "== trace smoke"
./scripts/trace_smoke.sh

echo "== fleet smoke (3 nodes, drain + kill mid-epoch)"
./scripts/fleet_smoke.sh

echo "== scenario corpus smoke (validate + run twice + determinism diff)"
./scripts/scenario_smoke.sh

echo "check: all green"
