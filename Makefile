# Convenience targets for the ABCL/onAP1000 reproduction.
#
#   make tier1           build + full test suite + bench smoke + perf gate + profile smoke + runpack regress
#   make vet-race        go vet + the whole test suite under the race detector
#   make scenario-smoke  run every bundled fault scenario end to end
#   make profile-smoke   run nqueens with -profile/-metrics, validate the JSONL schema
#   make regress         re-verify every checked-in runpack under testdata/runpacks
#   make bench-test      the benchmark harness's own tests (bench/ is its own module)
#   make check           all of the above
#   make bench           the repository benchmark (BENCHMARK.json): bash bench/run.sh
#   make bench-trace     its traced pass: per-layer metrics for every workload
#   make bench-baseline  run the perf suite, save BENCH_<date>.json
#   make bench-compare   run the perf suite, diff against BASELINE json
#   make bench-gate      fail if the gated benchmarks regress >GATE_PCT% vs BASELINE
#   make cover           per-package test coverage summary
#   make loc             non-test and test Go line counts outside bench/

.PHONY: all tier1 vet-race scenario-smoke profile-smoke regress check cover loc bench bench-trace bench-test bench-baseline bench-compare bench-gate

all: tier1

tier1:
	go build ./...
	go test ./...
	go test -run xxx -bench . -benchtime 1x .
	$(MAKE) bench-gate
	$(MAKE) profile-smoke
	$(MAKE) regress

vet-race:
	go vet ./...
	go test -race ./...

scenario-smoke:
	go run ./cmd/abclsim -workload scenario -scenario all

# End-to-end check of the observability exporters: run a profiled workload,
# then validate the JSONL stream against the documented schema and the
# metrics summary against the stream (the two sinks must agree exactly).
SMOKE_DIR := $(if $(TMPDIR),$(TMPDIR),/tmp)
profile-smoke:
	go run ./cmd/abclsim -workload nqueens -n 8 -nodes 8 \
		-profile $(SMOKE_DIR)/abcl-profile-smoke.jsonl -metrics $(SMOKE_DIR)/abcl-profile-smoke.json >/dev/null
	go run ./cmd/profcheck -nodes 8 -metrics $(SMOKE_DIR)/abcl-profile-smoke.json $(SMOKE_DIR)/abcl-profile-smoke.jsonl

# Determinism regression gate: every checked-in runpack is re-executed and
# must reproduce its packed trace, report and answer byte-for-byte.
regress:
	go run ./cmd/abclsim regress testdata/runpacks

check: tier1 vet-race scenario-smoke bench-test

# The repository benchmark (BENCHMARK.json, bench/README.md): four
# whole-system workloads, end-to-end metrics with tracing off; bench-trace
# is the separate traced pass with the per-layer numbers. bench/ is a module
# of its own, so the root `go test ./...` does not reach its tests.
bench:
	bash bench/run.sh

bench-trace:
	bash bench/run.sh --trace 1

bench-test:
	cd bench && go test ./...

cover:
	go test -cover ./... | grep -v 'no test files'

# The size a simplicity PR reads its delta off (ROADMAP item 4).
loc:
	@echo "non-test Go lines outside bench/: $$(find . -name '*.go' -not -path './bench/*' -not -name '*_test.go' | xargs cat | wc -l)"
	@echo "test Go lines outside bench/:     $$(find . -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l)"

# Performance tracking. bench-baseline records the suite into a dated JSON
# report; bench-compare records a fresh report and prints a side-by-side
# diff against BASELINE. The default hands benchjson the repo root, and it
# picks the BENCH_<date>*.json with the newest embedded date — erroring out
# (instead of a silent lexical tiebreak) when several reports share it.
BENCH_PATTERN ?= BenchmarkTable1_IntraNodeDormant|BenchmarkTable4_NQueensScale|BenchmarkFigure5_Speedup|BenchmarkSimulatorThroughput|BenchmarkForkJoin|BenchmarkTable_AllToAll|BenchmarkProfilerOffOverhead|BenchmarkHotKeyContention
BENCH_TIME ?= 20x
BENCH_DATE := $(shell date +%Y-%m-%d)
BASELINE ?= .

# The perf gate: the headline Figure-5 configuration must stay within
# GATE_PCT percent of the checked-in baseline on both simulator speed
# (ns/op) and allocation count (allocs/op). The profiler-disabled engine
# is gated separately ("name:nsPct:allocsPct"): the cost-attribution
# hooks are one nil check per charge when off, so its allocation count
# must hold to 2% (it is exactly reproducible run to run — any off-path
# allocation creep fails here), while its wall clock gets the same 10%
# headroom as everything else because host timing noise on shared
# machines exceeds the 2% target (the measured off-overhead itself is
# recorded in EXPERIMENTS.md). The fully-annotated hot-key contention
# run gates the multiactive scheduler's per-group queue machinery; at
# ~2.5 ms/op its 20x sample is short enough that shared-host noise
# routinely exceeds 10%, so its wall clock gets 25% headroom while its
# allocation count stays exact-reproducible at 2%.
GATE_BENCH ?= Figure5_Speedup/N10_P256,ProfilerOffOverhead:10:2,HotKeyContention/full:25:2
GATE_PCT ?= 10

bench-gate:
	go test -run xxx -bench 'BenchmarkFigure5_Speedup$$/N10_P256$$|BenchmarkProfilerOffOverhead$$|BenchmarkHotKeyContention$$/full$$' -benchmem -benchtime $(BENCH_TIME) . \
		| go run ./cmd/benchjson -compare $(BASELINE) -gate '$(GATE_BENCH)' -gate-pct $(GATE_PCT)

bench-baseline:
	go test -run xxx -bench '$(BENCH_PATTERN)' -benchmem -benchtime $(BENCH_TIME) . \
		| go run ./cmd/benchjson -date $(BENCH_DATE) -o BENCH_$(BENCH_DATE).json
	@echo wrote BENCH_$(BENCH_DATE).json

bench-compare:
	go test -run xxx -bench '$(BENCH_PATTERN)' -benchmem -benchtime $(BENCH_TIME) . \
		| go run ./cmd/benchjson -date $(BENCH_DATE) -compare $(BASELINE)
