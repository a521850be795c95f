GO ?= go
BENCHFLAGS ?= -run=NONE -bench=. -benchtime=1x -benchmem
BASELINE ?= BENCH_BASELINE.json

.PHONY: build test race bench bench-micro bench-baseline bench-fork lint suite cluster serve loadtest

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	NEMESIS_SWEEP_WORKERS=8 $(GO) test -race ./...

# Run every benchmark once and compare against the committed baseline.
# Wall-clock (ns/op) and allocation deltas are informational; deterministic
# simulated-time and snapshot-accounting metrics (sim_us*, sim_attr_us*,
# sim_events*, sim_fork*) fail the run if they drift >10%.
bench:
	$(GO) test $(BENCHFLAGS) ./... | tee bench.out
	$(GO) run ./cmd/benchcmp -baseline $(BASELINE) -fail-over 10 bench.out

# Time the per-layer microbenchmarks properly: time-based runs, repeated, so
# event dispatch, process switch, TLB, frame allocation, scheduling, disk,
# pager and telemetry costs are real per-operation figures rather than one
# iteration plus setup. Informational; `make bench` stays the gate.
bench-micro:
	$(GO) test -run=NONE -bench=. -benchmem -count=5 ./internal/sim ./internal/vm ./internal/mem ./internal/atropos ./internal/disk ./internal/stretchdrv ./internal/obs | tee bench-micro.out

# Price the checkpoint: the fork microbenchmark (wall cost of one fork plus
# its deterministic copy accounting). The sim_fork_* metrics are gated by
# `make bench`; this is the quick local view of what one fork costs.
bench-fork:
	$(GO) test -run=NONE -bench='BenchmarkFork$$' -benchtime=1x -benchmem .

# Re-record the baseline (run on a quiet machine; commit the result).
bench-baseline:
	$(GO) test $(BENCHFLAGS) ./... | tee bench.out
	$(GO) run ./cmd/benchcmp -baseline $(BASELINE) -update bench.out

lint:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Full experiment suite through the parallel sweep runner.
suite:
	$(GO) run ./cmd/nemesis-paging -suite -measure 15s

# Cluster paging scenario at the standard 1,000-domain scale.
cluster:
	$(GO) run ./cmd/nemesis-paging -cluster

# Experiments-as-a-service daemon. Submit specs with e.g.
#   curl -s localhost:8080/run -d '{"kind":"figure","figure":8}'
serve:
	$(GO) run ./cmd/nemesis-serve -addr :8080

# The 1,000-request concurrent load test against the daemon engine,
# under the race detector.
loadtest:
	$(GO) test -race -run 'TestServeLoad' -v ./internal/serve/
