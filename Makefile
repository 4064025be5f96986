# Tier-1 verification gate: vet + build + race-clean tests.
check:
	./scripts/check.sh

# Fast iteration: build + tests without the race detector.
test:
	go build ./...
	go test ./...

# Wire-protocol, codec-container and stored-object fuzzing (bounded;
# extend -fuzztime for longer campaigns).
fuzz:
	go test -run=xxx -fuzz=FuzzDecodeRequest -fuzztime=30s ./internal/viewserver/
	go test -run=xxx -fuzz=FuzzParseDecode -fuzztime=30s ./internal/codec/
	go test -run=xxx -fuzz=FuzzDecodeFrame -fuzztime=30s ./internal/frame/
	go test -run=xxx -fuzz=FuzzDecodeBatch -fuzztime=30s ./internal/core/

# Hot-path benchmarks: writes BENCH_hotpath.json (ns/op, B/op, allocs/op
# vs the pre-overhaul baseline). BENCHTIME=200x make bench for more laps.
bench:
	./scripts/bench.sh $(BENCHTIME)

# Store-contention benchmarks: writes BENCH_storage.json (sharded vs
# unsharded mixed Put/Get). BENCHTIME=5000x make bench-storage for more.
bench-storage:
	./scripts/bench_storage.sh $(BENCHTIME)

# Zero-copy dataplane benchmarks: writes BENCH_dataplane.json (pinned
# writev serving vs the copying path at 1/4/16 clients).
# BENCHTIME=1000x make bench-dataplane for more laps.
bench-dataplane:
	./scripts/bench_dataplane.sh $(BENCHTIME)

# Overlap-aware reuse benchmark: writes BENCH_reuse.json (superset-crop
# reuse on vs off over four overlapping views; fails under 1.5x).
# BENCHTIME=500x make bench-reuse for more laps.
bench-reuse:
	./scripts/bench_reuse.sh $(BENCHTIME)

# Closed-loop scheduling benchmark: writes BENCH_sched.json (admission
# control on vs off under premat overload, SLO bookkeeping overhead,
# fixed vs adaptive read-ahead; see DESIGN.md §11 for the gates).
bench-sched:
	./scripts/bench_sched.sh

# One traced quickstart run, validated (see OBSERVABILITY.md).
trace-smoke:
	./scripts/trace_smoke.sh

# Boot a 3-node fleet on loopback, drain and kill a node mid-epoch,
# assert completion + per-node /metrics labels (see DESIGN.md "Fleet").
fleet-smoke:
	./scripts/fleet_smoke.sh

# Run the scenario corpus twice and fail unless the JSON reports are
# byte-identical across runs (see SCENARIOS.md).
scenarios:
	./scripts/scenario_smoke.sh

.PHONY: check test fuzz bench bench-storage bench-dataplane bench-reuse bench-sched trace-smoke fleet-smoke scenarios
