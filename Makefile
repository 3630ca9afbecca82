# Convenience targets for the ABCL/onAP1000 reproduction.
#
#   make tier1           build + full test suite + runpack regress
#   make vet-race        gofmt + go vet + the whole test suite raced, in shuffled order
#   make scenario-smoke  run every bundled fault scenario end to end
#   make regress         re-verify every checked-in runpack under testdata/runpacks
#   make bench-test      the benchmark harness's own tests (bench/ is its own module)
#   make fuzz-smoke      each native fuzz target for 30 s
#   make test-386        the test suite and the runpack regress built for 32 bits (GOARCH=386)
#   make check           tier1, vet-race, scenario-smoke, bench-test, fuzz-smoke and test-386
#   make alloc-profile   every allocation of one nqueens N10/P256 run, by allocating function (objects, bytes)
#   make cpu-profile     the CPU profile of the same run, by function
#                        (both take ARGS='...', more abclsim flags for the run)
#   make peak-rss        wall time and peak RSS of one abclsim run, by default nqueens
#                        N13/P512 (ARGS='...' replaces the run's flags)
#   make bench           the repository benchmark (BENCHMARK.json): bash bench/run.sh
#   make bench-trace     its traced pass: per-layer metrics for every workload
#   make bench-ab        an interleaved A/B of one workload, BASE (a commit) against the working tree
#   make cover           per-package test coverage summary
#   make loc             non-test and test Go line counts outside bench/, and the docs' line counts

.PHONY: all tier1 vet-race scenario-smoke regress check test-386 cover loc bench bench-trace bench-ab bench-test fuzz-smoke alloc-profile cpu-profile peak-rss

all: tier1

tier1:
	go build ./...
	go test ./...
	$(MAKE) regress

vet-race:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt -l . lists:"; echo "$$out"; exit 1; }
	go vet ./...
	go test -race -shuffle=on ./...

scenario-smoke:
	go run ./cmd/abclsim -scenario all

# Determinism regression gate: every checked-in runpack is re-executed and
# must reproduce its packed trace, report and answer byte-for-byte.
regress:
	go run ./cmd/abclsim regress testdata/runpacks

check: tier1 vet-race scenario-smoke bench-test fuzz-smoke test-386

# The suite on a 32-bit int, and the runpack regress by a 386 binary: results
# and every packed trace must not depend on the host's word size or on the
# layout of the narrowed wire-record fields. The local toolchain
# cross-compiles and the amd64 kernel runs the 386 binaries, so nothing is
# downloaded.
test-386:
	GOARCH=386 go test ./...
	GOARCH=386 go run ./cmd/abclsim regress testdata/runpacks

# Each native fuzz target for 30 s; go test fuzzes one target per run, so a
# new target is a new line. `go test ./...` runs only their seed corpora; a
# failure found here is saved under the package's testdata/fuzz. An archive
# costs milliseconds an execution under the fuzzer's instrumentation, so
# FuzzRunpackOpen minimizes each new input for at most 100 executions: left
# unbounded, minimizing one 2 KB input took the whole 30 s.
fuzz-smoke:
	go test -run xxx -fuzz '^FuzzEventQueue$$' -fuzztime 30s ./internal/sim
	go test -run xxx -fuzz '^FuzzSpecValidate$$' -fuzztime 30s ./internal/workload
	go test -run xxx -fuzz '^FuzzRunpackOpen$$' -fuzztime 30s -fuzzminimizetime 100x ./internal/runpack
	go test -run xxx -fuzz '^FuzzLinkFaultJSON$$' -fuzztime 30s ./internal/fault
	go test -run xxx -fuzz '^FuzzValueRoundTrip$$' -fuzztime 30s ./internal/core
	go test -run xxx -fuzz '^FuzzCheckJSONL$$' -fuzztime 30s ./internal/trace

# The repository benchmark (BENCHMARK.json, bench/README.md): four
# whole-system workloads, end-to-end metrics with tracing off; bench-trace
# is the separate traced pass with the per-layer numbers. bench/ is a module
# of its own, so the root `go test ./...` does not reach its tests.
bench:
	bash bench/run.sh

bench-trace:
	bash bench/run.sh --trace 1

# An interleaved A/B of one workload: the commit BASE, exported by git archive
# into .bench_build/ab/base, against the working tree. Each tree's
# bench/run.sh builds its own harness and runs workload W for SECONDS at
# SEED, PAIRS times; the side that runs first swaps every pair, so a drift of
# the host weighs on both. cmd/benchab then prints each end-to-end metric's
# quartiles on both sides, the pairs the change wins and the digests. The
# base keeps its .bench_build between runs, so only the first builds cold.
BASE ?= HEAD
W ?= nqueens-relbatch
PAIRS ?= 10
SECONDS ?= 3
SEED ?= 1
AB := .bench_build/ab
bench-ab:
	mkdir -p $(AB)/base
	find $(AB)/base -mindepth 1 -maxdepth 1 ! -name .bench_build -exec rm -rf {} +
	git archive $(BASE) | tar -x -C $(AB)/base
	rm -f $(AB)/base.out $(AB)/change.out
	for i in $$(seq 1 $(PAIRS)); do \
		order="base change"; [ $$((i % 2)) = 0 ] && order="change base"; \
		for side in $$order; do \
			dir=.; [ $$side = base ] && dir=$(AB)/base; \
			(cd $$dir && bash bench/run.sh --workload $(W) --seconds $(SECONDS) --seed $(SEED)) >> $(AB)/$$side.out || exit 1; \
		done; \
	done
	go run ./cmd/benchab $(AB)/base.out $(AB)/change.out

bench-test:
	cd bench && go test ./...

# Where the host allocations of one run come from: the benchmark's nqueens
# program (N10, 256 nodes, seed 1) with every allocation sampled, then the
# allocating functions by object count and by bytes (`-list <regexp>` on the
# same two files gives lines). One cold run, so arenas and pools start empty and the
# total sits a little above allocs_per_msg x 71 077 of the warm repetitions.
# The profile undercounts MemStats.Mallocs: pointer-free allocations of 16
# bytes or less that share a tiny-allocator block are counted there and not
# sampled here. ARGS appends flags to the run: the benchmark's reliable
# workload is ARGS='-batch-window 10000 -ack-delay 500000'.
ARGS ?=
SMOKE_DIR := $(if $(TMPDIR),$(TMPDIR),/tmp)
alloc-profile:
	go build -o $(SMOKE_DIR)/abcl-alloc-profile.bin ./cmd/abclsim
	GODEBUG=memprofilerate=1 $(SMOKE_DIR)/abcl-alloc-profile.bin -workload nqueens -n 10 -nodes 256 \
		-memprofile $(SMOKE_DIR)/abcl-alloc-profile.pprof $(ARGS) >/dev/null
	go tool pprof -sample_index=alloc_objects -top -nodecount=25 \
		$(SMOKE_DIR)/abcl-alloc-profile.bin $(SMOKE_DIR)/abcl-alloc-profile.pprof
	go tool pprof -sample_index=alloc_space -top -nodecount=25 \
		$(SMOKE_DIR)/abcl-alloc-profile.bin $(SMOKE_DIR)/abcl-alloc-profile.pprof

# The CPU twin of alloc-profile: the same run, sampled for CPU time, then the
# hottest functions by flat time (`-list <regexp>` on the same two files gives
# lines). One cold run of ~0.3 s, so the sample is small and set-up heavy; the
# benchmark's traced pass (make bench-trace) profiles warm repetitions. ARGS
# appends flags to the run, as for alloc-profile.
cpu-profile:
	go build -o $(SMOKE_DIR)/abcl-cpu-profile.bin ./cmd/abclsim
	$(SMOKE_DIR)/abcl-cpu-profile.bin -workload nqueens -n 10 -nodes 256 \
		-cpuprofile $(SMOKE_DIR)/abcl-cpu-profile.pprof $(ARGS) >/dev/null
	go tool pprof -top -nodecount=25 $(SMOKE_DIR)/abcl-cpu-profile.bin $(SMOKE_DIR)/abcl-cpu-profile.pprof

# Wall time and peak resident set size (KiB) of one abclsim run, the
# figures ROADMAP item 5 records: by default the paper-scale n-queens, N = 13
# on 512 nodes (about 40 s and 2 GB, so run one at a time on a shared host).
# ARGS replaces the run's flags. The binary is built first, so the child
# measured is abclsim, not the compiler.
PEAK_RUN := $(if $(ARGS),$(ARGS),-workload nqueens -n 13 -nodes 512)
peak-rss:
	go build -o $(SMOKE_DIR)/abcl-peak-rss.bin ./cmd/abclsim
	go run ./cmd/peakrss $(SMOKE_DIR)/abcl-peak-rss.bin $(PEAK_RUN)

cover:
	go test -cover ./... | grep -v 'no test files'

# The size a simplicity PR reads its delta off (the ROADMAP's quality-of-design
# aim counts progress in deleted lines).
loc:
	@echo "non-test Go lines outside bench/: $$(find . -name '*.go' -not -path './bench/*' -not -path './.bench_build/*' -not -name '*_test.go' | xargs cat | wc -l)"
	@echo "test Go lines outside bench/:     $$(find . -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs cat | wc -l)"
	@wc -l README.md DESIGN.md EXPERIMENTS.md
