// Command bench is gompi's one benchmark harness: the paper's start-up,
// point-to-point and collective kernels as closed loops on four stacks
// (simnet across nodes, simnet inside a node, udp in-process, udp between
// OS processes), with a traced run that attributes each number to the
// layers underneath. README.md in this directory defines every metric.
//
//	go run ./cmd/bench -workload data-sim -seed 1
//	go run ./cmd/bench -workload data-sim -seed 1 -trace 1
//	go run ./cmd/bench -compare a.json b.json
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	goruntime "runtime"
	"time"
)

// config is the command line of one workload run.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string // Chrome trace-event file of a traced run
	jsonOut  string // full record, appended as one JSON line
}

// ballast is live heap the harness holds on purpose, in the harness process
// and in every rank child. The MPI library alone keeps a few megabytes
// alive, and with a heap that small Go's collector runs every few
// milliseconds of a large-message kernel, at a pace that swings with
// whatever else happens to be live — the 64 KiB kernels moved by 15-20 %
// between identical runs. An application has data of its own; 64 MiB of it
// (never touched, so never resident) makes the collector's pace a property
// of the program under test instead of an accident of the harness.
var ballast = make([]byte, 64<<20)

func main() {
	// A rank child or a no-op child is this same binary with its identity
	// in the environment; neither parses flags.
	if os.Getenv(envNoop) != "" {
		return
	}
	if os.Getenv(envRank) != "" {
		os.Exit(childMain())
	}
	os.Exit(harnessMain(os.Args[1:]))
}

func harnessMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: startup-sim, startup-proc, data-sim, data-udp")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed for payloads, tags and kernel order")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "how long the timed rounds last")
	trace := fs.String("trace", "0", "0: end-to-end metrics with tracing off; 1: the traced run, per-layer metrics; any other value: traced run writing its trace-event file there")
	fs.StringVar(&cfg.jsonOut, "json", "", "append the run's full record to this file as one JSON line (input of -compare)")
	compare := fs.Bool("compare", false, "compare two -json files: bench -compare a.json b.json")
	boundsPath := fs.String("bounds", "BENCHMARK.json", "with -compare: the benchmark definition holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two files")
			return 2
		}
		return compareMain(fs.Arg(0), fs.Arg(1), *boundsPath, os.Stdout)
	}
	m, ok := modeByName(cfg.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", cfg.workload)
		fs.Usage()
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}
	switch *trace {
	case "0":
	case "1":
		cfg.trace = true
		// The gate's checkout sets aside .bench_build for what a run leaves
		// behind; .gitignore names it.
		cfg.traceOut = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	default:
		cfg.trace, cfg.traceOut = true, *trace
	}

	base := takeBaseline()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	var layers map[string]float64
	if cfg.trace {
		// The layer probes take the first share of a traced run.
		var err error
		layers, err = runProbes(budget*2/5, m)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: layer probes:", err)
			return 1
		}
		budget = budget * 3 / 5
	}
	r, err := runWorkload(cfg, budget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := base.check(); err != nil {
		r.fail("process hygiene", err)
	}
	rep := r.report(layers)
	if cfg.trace {
		if err := writeChromeTrace(cfg.traceOut, r.l.spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing trace:", err)
			return 1
		}
	}
	rep.print(os.Stdout, r)
	if cfg.jsonOut != "" {
		if err := rep.appendTo(cfg.jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	rep.printResultLine(os.Stdout)
	goruntime.KeepAlive(ballast)
	if !rep.Correct {
		return 1
	}
	return 0
}

// baseline is the process's goroutine and descriptor count before the
// workload; a workload must give back everything it took.
type baseline struct{ goroutines, fds int }

func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1 // not Linux: skip the descriptor check
	}
	return len(ents)
}

func takeBaseline() baseline {
	// The Go runtime opens its network poller's descriptors on first use
	// and keeps them; use it once so they are part of the baseline.
	if ln, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
		ln.Close()
	}
	return baseline{goroutines: goruntime.NumGoroutine(), fds: openFDs()}
}

// check waits briefly for teardown goroutines to finish, then compares.
func (b baseline) check() error {
	var g, f int
	for i := 0; i < 100; i++ {
		g, f = goruntime.NumGoroutine(), openFDs()
		if g <= b.goroutines && f <= b.fds {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("leak: %d goroutines (baseline %d), %d open descriptors (baseline %d)", g, b.goroutines, f, b.fds)
}
