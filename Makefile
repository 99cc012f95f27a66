GO ?= go

.PHONY: check vet build lint test test-race chaos pool-guard fuzz-smoke bench bench-smoke bench-harness smoke-udp figures

# check is the repo's verification gate: vet, build, the gompilint suite,
# the full test suite under the race detector, the debug-build arena
# guard, and a short fixed-budget run of the packet-decoder fuzz targets.
check: vet build lint test-race pool-guard fuzz-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# chaos runs the seeded fault-injection matrix (DESIGN.md §7): simnet
# fault-plan unit tests, control-plane retry under drops/partitions, PML
# recovery from duplicated/reordered packets, MPI-level peer death, the
# mid-job rank respawn path, a QUO quiesce woken by a node-mate's death,
# and the end-to-end twomesh recovery demo (rank killed mid-phase,
# survivors rebuild over gompi://alive).
# Deterministic seeds — a failure here is a bug, not flakiness.
chaos:
	$(GO) test -race -run Chaos ./internal/simnet ./internal/prrte ./internal/pmix ./internal/pml ./mpi ./internal/quo ./internal/twomesh ./runtime

# lint runs the project's own go/analysis suite (DESIGN.md §6a): request
# leaks, pool ownership, lock order, handle lifecycle, discarded MPI errors,
# in-flight buffer aliasing, collective order/balance, sync/atomic mixing,
# and //gompilint:noalloc hot paths — interprocedural via per-function
# effect summaries.
lint:
	$(GO) run ./cmd/gompilint ./...

# pool-guard exercises the -tags debug arena guard: double-putBuf panics
# and recycled packets are poisoned, under the race detector.
pool-guard:
	$(GO) test -race -tags debug -run TestPoolGuard ./internal/pml

# fuzz-smoke runs the packet-decoder fuzz targets and the reduction-kernel
# differential fuzzer for a short fixed budget on top of the committed seed
# corpora (internal/pml/testdata/fuzz, internal/btl/udp/testdata/fuzz,
# mpi/testdata/fuzz).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEnvelope$$' -fuzztime 5s ./internal/pml
	$(GO) test -run '^$$' -fuzz '^FuzzMatchHeaderRoundTrip$$' -fuzztime 5s ./internal/pml
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 5s ./internal/btl/udp
	$(GO) test -run '^$$' -fuzz '^FuzzReduceKernel$$' -fuzztime 5s ./mpi

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke runs every ablation benchmark, the udp frame codec benchmark
# and the reduction-kernel benchmark once — a fast plumbing check that the
# measurement harnesses still execute end to end.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkAblation' -benchtime=1x ./...
	$(GO) test -run '^$$' -bench '^BenchmarkFrameCodec$$' -benchtime=1x ./internal/btl/udp
	$(GO) test -run '^$$' -bench '^BenchmarkReduceKernel$$' -benchtime=1x ./mpi

# bench-harness runs the repo's one benchmark harness (cmd/bench,
# BENCHMARK.json) briefly on every stack: an untraced and a traced run on
# simnet, an untraced run over loopback udp sockets, and one with a process
# per rank — the stack where work added to a fresh process's init path shows.
# The harness checks every result and exits non-zero on a failed operation,
# so this gates correctness; it prints the timings without judging them. The
# traced run's last line is the JSON object of per-layer metrics, and the
# deterministic counts on it are gated here: a per-call or persistent
# allreduce that allocates, or a dropped udp datagram, fails the target
# (below 0.01 reads as 0, which absorbs the odd runtime allocation).
bench-harness:
	$(GO) run ./cmd/bench -workload data-sim -seed 1 -seconds 2
	@mkdir -p .bench_build
	$(GO) run ./cmd/bench -workload data-sim -seed 1 -seconds 2 -trace 1 > .bench_build/traced.out || { cat .bench_build/traced.out; exit 1; }
	@cat .bench_build/traced.out
	@for m in coll.allocs_per_percall_allreduce coll.allocs_per_persistent_start btl.udp.drops; do \
		tail -n 1 .bench_build/traced.out | grep -Eq "\"$$m\":\{\"value\":0(\.00[0-9]*)?," || \
			{ echo "bench-harness: $$m is not 0 in the traced data-sim run"; exit 1; }; \
	done
	$(GO) run ./cmd/bench -workload data-udp -seed 1 -seconds 2
	$(GO) run ./cmd/bench -workload startup-proc -seed 1 -seconds 2

# smoke-udp is the CI process-mode gate: a real multi-process job over
# loopback UDP sockets, with prun's own watchdog bounding the run. The psets
# pair proves the two launch modes agree: the same -pset line must give the
# same members in the same group-rank order under goroutine ranks on simnet
# (one rank per node, as in process mode) and under one process per rank.
smoke-udp:
	$(GO) run ./cmd/prun -np 2 -transport udp -timeout 60s -app ring
	$(GO) run ./cmd/prun -np 4 -transport udp -timeout 60s -app ring
	@mkdir -p .bench_build
	$(GO) run ./cmd/prun -np 4 -ppn 1 -pset app://odd:3,1 -app psets > .bench_build/psets-sim.out
	$(GO) run ./cmd/prun -np 4 -pset app://odd:3,1 -transport udp -timeout 60s -app psets > .bench_build/psets-udp.out
	diff .bench_build/psets-sim.out .bench_build/psets-udp.out

figures:
	$(GO) run ./cmd/figures -table 1 -fig all
