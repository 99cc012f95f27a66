GO ?= go

.PHONY: check fmt vet build lint test test-race chaos pool-guard bubble fuzz-smoke bench bench-smoke bench-harness smoke-udp figures examples clis

# check is the repo's verification gate: gofmt, vet, build, the gompilint
# suite, the full test suite under the race detector, the debug-build arena
# guard, the synctest-bubble tests, and a short fixed-budget run of the
# packet-decoder fuzz targets.
check: fmt vet build lint test-race pool-guard bubble fuzz-smoke

# fmt fails when gofmt would change any Go file outside testdata/ (the
# analyzer fixtures there are inputs, kept as written).
fmt:
	@out=$$(gofmt -l . | grep -Ev '(^|/)testdata/'); \
		if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

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

# pool-guard exercises the -tags debug arena guard: double-putBuf panics,
# recycled packets are poisoned, and a blocking receive's recycled request
# is poisoned and panics if completed, under the race detector.
pool-guard:
	$(GO) test -race -tags debug -run TestPoolGuard ./internal/pml

# bubble runs the testing/synctest tests: a simnet send must take exactly
# its modelled cost, a net BTL upcall that replies must pay the reply on
# its endpoint's pump and never on the sender, a parked receive must be
# durably blocked on a wake channel of its own bubble, bubble after
# bubble, and a Wait on a started collective must park, not spin, while a
# completion hook holds the collective's driver token across a modelled
# delay.
bubble:
	GOEXPERIMENT=synctest $(GO) test -count=1 -run InBubble ./internal/simnet ./internal/btl/net ./internal/pml ./mpi

# fuzz-smoke runs the packet-decoder fuzz targets, the control-plane codec
# fuzzer and the reduction-kernel differential fuzzer for a short fixed budget
# on top of the committed seed corpora (internal/pml/testdata/fuzz,
# internal/btl/udp/testdata/fuzz, internal/opal/testdata/fuzz,
# mpi/testdata/fuzz).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEnvelope$$' -fuzztime 5s ./internal/pml
	$(GO) test -run '^$$' -fuzz '^FuzzMatchHeaderRoundTrip$$' -fuzztime 5s ./internal/pml
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 5s ./internal/btl/udp
	$(GO) test -run '^$$' -fuzz '^FuzzControlCodec$$' -fuzztime 5s ./internal/opal
	$(GO) test -run '^$$' -fuzz '^FuzzReduceKernel$$' -fuzztime 5s ./mpi

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke runs the wall-clock quiesce ablation, the udp frame codec
# benchmark and the reduction-kernel benchmark once — a fast plumbing check
# that the measurement harnesses still execute end to end. (The other
# ablations are modeled protocol costs and render in `make figures`.)
bench-smoke:
	$(GO) test -run '^$$' -bench '^BenchmarkAblationQuiesce$$' -benchtime=1x ./bench
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
# allreduce that allocates, an eager message that allocates, or a dropped
# udp datagram, fails the target (below 0.01 reads as 0, which absorbs the
# odd runtime allocation).
bench-harness:
	$(GO) run ./cmd/bench -workload data-sim -seed 1 -seconds 2
	@mkdir -p .bench_build
	$(GO) run ./cmd/bench -workload data-sim -seed 1 -seconds 2 -trace 1 > .bench_build/traced.out || { cat .bench_build/traced.out; exit 1; }
	@cat .bench_build/traced.out
	@for m in coll.allocs_per_percall_allreduce coll.allocs_per_persistent_start pml.allocs_per_eager_msg btl.udp.drops; do \
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

# examples runs every program under examples/ and checks that it exits 0
# and that its closing line is the expected one. clientserver and
# rollforward close by reporting their deliberate rank failure in one line
# (runtime.RankError keeps the dead rank's stack out of its message).
EXAMPLE_CHECKS = \
	'quickstart|rank-sum=28' \
	'ensemble|ran 4 members; MPI was initialized and torn down 4 times' \
	'clientserver|client job ended with (expected) failure: rank 5: panic: client 5: segfault!' \
	'taskpool|all 5 tasks completed on 8 workers' \
	'rollforward|job ended; launcher saw: rank 3: panic: rank 3: node failure' \
	'coupled|finished 3 coupling steps'

examples:
	@mkdir -p .bench_build
	@for check in $(EXAMPLE_CHECKS); do \
		name=$${check%%|*}; want=$${check#*|}; out=.bench_build/example-$$name.out; \
		echo "examples: $$name"; \
		timeout 60 $(GO) run ./examples/$$name > $$out 2>&1 || \
			{ cat $$out; echo "examples: $$name exited non-zero"; exit 1; }; \
		last=$$(tail -n 1 $$out); \
		case "$$last" in *"$$want"*) ;; \
		*) cat $$out; echo "examples: $$name closed with \"$$last\", want \"$$want\""; exit 1;; esac; \
	done

# clis runs one smoke scenario of each benchmark front-end under timeout 60
# and requires exit 0: cmd/osu latency and bw up to 1 MiB on the simulated
# fabric (above the 64 KiB sm eager limit every message is a rendezvous
# whose DATA packet falls back to an oversize allocation), osu latency up to
# 1 MiB over udp (the receiver rebuilds those packets from datagrams),
# cmd/hpcc's ring benchmark, and cmd/twomesh's tiny problem, which must also
# print its deterministic residual. osu bw over udp is not run: the udp BTL
# does not retransmit, and a window of 64 rendezvous transfers of 256 KiB or
# more overflows the receiver's socket buffer and never completes
# (ROADMAP item 3).
CLI_CHECKS = \
	'osu -bench latency -maxsize 1048576' \
	'osu -bench bw -maxsize 1048576' \
	'osu -bench latency -maxsize 1048576 -transport udp' \
	'hpcc -np 4 -ppn 2 -iters 50 -trials 1'
TWOMESH_TINY = twomesh -problem tiny -np 4 -ppn 2 -threads 2
TWOMESH_TINY_RESIDUAL = 0.8743487431791531

clis:
	@mkdir -p .bench_build/bin
	$(GO) build -o .bench_build/bin/ ./cmd/osu ./cmd/hpcc ./cmd/twomesh
	@for run in $(CLI_CHECKS); do \
		echo "clis: $$run"; \
		timeout 60 .bench_build/bin/$$run > .bench_build/cli.out 2>&1 || \
			{ cat .bench_build/cli.out; echo "clis: $$run exited non-zero"; exit 1; }; \
	done
	@echo "clis: $(TWOMESH_TINY)"
	@timeout 60 .bench_build/bin/$(TWOMESH_TINY) > .bench_build/cli.out 2>&1 || \
		{ cat .bench_build/cli.out; echo "clis: $(TWOMESH_TINY) exited non-zero"; exit 1; }
	@grep -q 'residual: $(TWOMESH_TINY_RESIDUAL)$$' .bench_build/cli.out || \
		{ cat .bench_build/cli.out; echo "clis: residual is not $(TWOMESH_TINY_RESIDUAL)"; exit 1; }

# figures regenerates figures_output.txt: every table and figure of the
# paper's evaluation, run once in model time inside a testing/synctest
# bubble (bench/figures_test.go), with one verdict line per figure.
# TestFigures rewrites a drifted file and fails, so the second run checks
# the regenerated file and the verdicts; `git diff figures_output.txt`
# shows what moved.
figures:
	GOEXPERIMENT=synctest $(GO) test -count=1 -run '^TestFigures$$' ./bench || \
		GOEXPERIMENT=synctest $(GO) test -count=1 -run '^TestFigures$$' ./bench
