package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	goruntime "runtime"
	"strconv"
	"time"

	"gompi/internal/core"
	"gompi/internal/prrte"
	"gompi/internal/topo"
	"gompi/mpi"
	"gompi/runtime"
)

// mode is how a workload's jobs run: the job shape, the transport, whether
// ranks are goroutines or OS processes, and which two ranks form the
// point-to-point pair.
type mode struct {
	name       string
	nodes, ppn int
	btl        string
	proc       bool
	pair       [2]int
	why        string
}

func (m mode) np() int { return m.nodes * m.ppn }

// modes are the four workloads. Every workload runs every kernel; what
// differs is the stack underneath.
var modes = []mode{
	{name: "startup-sim", nodes: 2, ppn: 2, pair: [2]int{0, 2},
		why: "goroutine ranks on simnet, 2 nodes x 2 ppn, pair across nodes: control plane (opal, prrte DVM, pmix, core) and btl/net carry it"},
	{name: "startup-proc", nodes: 2, ppn: 1, btl: "udp", proc: true, pair: [2]int{0, 1},
		why: "one OS process per rank (np=2), BootServer/BootClient over TCP and udp over host loopback: the other runtime implementation"},
	{name: "data-sim", nodes: 2, ppn: 2, pair: [2]int{0, 1},
		why: "goroutine ranks on simnet, pair inside one node over btl/sm: pml matching and the coll schedule engine are most of each microsecond"},
	{name: "data-udp", nodes: 2, ppn: 2, btl: "udp", pair: [2]int{0, 1},
		why: "the same job with every message on btl/udp over host loopback sockets (no link): frame, hash, syscall, reassembly dominate"},
}

func modeByName(name string) (mode, bool) {
	for _, m := range modes {
		if m.name == name {
			return m, true
		}
	}
	return mode{}, false
}

// Environment of a rank child. The first four are the process-mode contract
// of runtime.RunProcess's launchers (cmd/prun uses the same names).
const (
	envRank  = "GOMPI_RANK"
	envNP    = "GOMPI_NP"
	envBoot  = "GOMPI_BOOT"
	envNonce = "GOMPI_NONCE"
	envPlan  = "GOMPI_BENCH_PLAN"
	envNoop  = "GOMPI_BENCH_NOOP" // child exits at once: the fork/exec floor
)

// Watchdog slack: a job that outlives its planned duration by this much has
// an operation stuck, and is abandoned.
const (
	simSlack  = 5 * time.Second
	procSlack = 10 * time.Second
)

var errWatchdog = errors.New("watchdog: job overran its planned duration")

// launcher runs jobs for one workload and, when tracing, records the
// harness-side spans around them.
type launcher struct {
	m      mode
	epoch  time.Time
	self   string // own executable, re-executed as rank children
	jobSeq int
	spans  []span // everything recorded so far, ranks included
}

func newLauncher(m mode) (*launcher, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own binary: %w", err)
	}
	return &launcher{m: m, epoch: time.Now(), self: self}, nil
}

func cidFor(kind string) core.CIDMode {
	if kind == kindWorld {
		return core.CIDConsensus
	}
	return core.CIDExtended
}

// run launches one job, waits for it, and returns what each rank reported
// and the wall time from the first construction call to the end of
// teardown. planned is how long the ranks are expected to take.
func (l *launcher) run(pl plan, traced bool, planned time.Duration) ([]rankResult, time.Duration, error) {
	l.jobSeq++
	pl.Job, pl.Trace, pl.Pair, pl.Proc = l.jobSeq, traced, l.m.pair, l.m.proc
	pl.EpochUnixNano = l.epoch.UnixNano()
	var tr *tracer
	if traced {
		tr = newTracer(l.epoch, 0, pl.Job, -1)
	}
	var (
		res  []rankResult
		wall time.Duration
		err  error
	)
	if l.m.proc {
		res, wall, err = l.runProc(pl, tr, planned+procSlack)
	} else {
		res, wall, err = l.runSim(pl, tr, planned+simSlack)
	}
	if traced {
		l.spans = append(l.spans, tr.spans...)
		for _, r := range res {
			l.spans = append(l.spans, r.Spans...)
		}
	}
	return res, wall, err
}

func (l *launcher) runSim(pl plan, tr *tracer, limit time.Duration) ([]rankResult, time.Duration, error) {
	opts := runtime.Options{
		Cluster: topo.New(topo.Loopback(l.m.ppn), l.m.nodes),
		NP:      l.m.np(),
		PPN:     l.m.ppn,
		Config:  core.Config{CIDMode: cidFor(pl.Kind), BTL: l.m.btl},
	}
	t0 := time.Now()
	root := tr.begin("job."+pl.Kind, 0)
	sp := tr.begin("runtime.NewJob", tr.id(root))
	job, err := runtime.NewJob(opts)
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	results := make([]rankResult, l.m.np())
	sp = tr.begin("runtime.Launch", tr.id(root))
	pl.Parent = tr.id(sp)
	err = launchWatched(job, limit, func(p *mpi.Process) error {
		r, err := rankMain(p, pl, l.epoch)
		results[p.JobRank()] = r
		return err
	})
	tr.end(sp)
	sp = tr.begin("runtime.Shutdown", tr.id(root))
	job.Shutdown()
	tr.end(sp)
	tr.end(root)
	return results, time.Since(t0), err
}

// launchWatched is Job.Launch under a watchdog. A job that overruns is shut
// down under its ranks, which fails their pending calls; ranks that still
// do not return are abandoned.
func launchWatched(job *runtime.Job, limit time.Duration, main func(*mpi.Process) error) error {
	done := make(chan error, 1)
	go func() { done <- job.Launch(main) }()
	timer := time.NewTimer(limit)
	defer timer.Stop()
	select {
	case err := <-done:
		return err
	case <-timer.C:
		job.Shutdown()
		grace := time.NewTimer(2 * time.Second)
		defer grace.Stop()
		select {
		case <-done:
		case <-grace.C:
		}
		return errWatchdog
	}
}

// childReport is what a rank child prints on stdout.
type childReport struct {
	Result rankResult `json:"result"`
	Err    string     `json:"err,omitempty"`
}

// runProc forks one child per rank, serves their boot rendezvous, and reaps
// every child on every path. Wall time runs from before the fork to the
// last child's exit.
func (l *launcher) runProc(pl plan, tr *tracer, limit time.Duration) ([]rankResult, time.Duration, error) {
	np := l.m.np()
	pl.WatchdogNs = int64(limit)
	t0 := time.Now()
	root := tr.begin("job."+pl.Kind, 0)
	pl.Parent = tr.id(root)
	planJSON, err := json.Marshal(pl)
	if err != nil {
		return nil, 0, err
	}
	sp := tr.begin("prrte.NewBootServer", tr.id(root))
	boot, err := prrte.NewBootServer("127.0.0.1:0")
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	defer boot.Close()
	nonce := runtime.NewJobNonce()

	// The start gate: every child writes one byte to the shared ready pipe
	// (its descriptor 3) once its runtime is up, then waits for a byte on
	// its stdin; the parent answers when all np bytes are in. Ranks thus
	// enter MPI together, as goroutine ranks do, and the start-up metrics
	// time MPI rather than the stagger of fork and exec.
	readyR, readyW, err := os.Pipe()
	if err != nil {
		return nil, 0, err
	}
	defer readyR.Close()

	cmds := make([]*exec.Cmd, 0, np)
	gates := make([]io.WriteCloser, 0, np)
	stdouts := make([]io.Reader, 0, np)
	outs := make([][]byte, np)
	errs := make([]bytes.Buffer, np)
	kill := func() {
		for _, c := range cmds {
			_ = c.Process.Kill() // already-exited children report an error we don't need
		}
	}
	sp = tr.begin("proc.children", tr.id(root))
	for r := 0; r < np; r++ {
		cmd := exec.Command(l.self)
		cmd.Stderr = &errs[r]
		cmd.ExtraFiles = []*os.File{readyW}
		cmd.Env = append(os.Environ(),
			envRank+"="+strconv.Itoa(r),
			envNP+"="+strconv.Itoa(np),
			envBoot+"="+boot.Addr(),
			envNonce+"="+strconv.FormatUint(nonce, 10),
			envPlan+"="+string(planJSON),
			// One rank per core, as a launcher binding ranks would: the
			// ranks share the machine's cores evenly instead of each
			// starting a scheduler as wide as the whole machine.
			"GOMAXPROCS="+strconv.Itoa(max(1, goruntime.NumCPU()/np)),
		)
		gate, err := cmd.StdinPipe()
		var stdout io.Reader
		if err == nil {
			stdout, err = cmd.StdoutPipe()
		}
		if err == nil {
			err = cmd.Start()
		}
		if err != nil {
			readyW.Close()
			kill()
			for _, c := range cmds {
				_ = c.Wait() // reaping only; the start error is what we report
			}
			return nil, 0, fmt.Errorf("starting rank %d: %w", r, err)
		}
		cmds, gates, stdouts = append(cmds, cmd), append(gates, gate), append(stdouts, stdout)
	}
	readyW.Close() // the children hold the only write ends now
	watchdog := time.AfterFunc(limit, kill)
	// A child that dies before it is ready closes its end; the read then
	// fails and the others are released to find that out for themselves.
	_, _ = io.ReadFull(readyR, make([]byte, np))
	for _, gate := range gates {
		_, _ = gate.Write([]byte{1}) // a dead child's pipe is closed; Wait reports it
		gate.Close()
	}
	// Read every child's report to the end before reaping it. While the job
	// runs this goroutine must sleep in the poller, not in wait4: a thread
	// parked in a blocking syscall keeps its P until sysmon takes it back,
	// and in an otherwise idle process sysmon sleeps 10 ms at a time —
	// which the boot server's replies, and so every start-up metric, then
	// pay.
	waitErrs := make([]error, np)
	for r, c := range cmds {
		outs[r], _ = io.ReadAll(stdouts[r]) // a short report fails to parse below
		waitErrs[r] = c.Wait()
	}
	fired := !watchdog.Stop()
	tr.end(sp)
	tr.end(root)
	wall := time.Since(t0)

	results := make([]rankResult, np)
	var first error
	for r := range cmds {
		var rep childReport
		if err := json.Unmarshal(outs[r], &rep); err != nil {
			if first == nil {
				first = fmt.Errorf("rank %d: %v (unreadable report: %v) stderr: %s", r, waitErrs[r], err, bytes.TrimSpace(errs[r].Bytes()))
			}
			continue
		}
		results[r] = rep.Result
		if first == nil && (rep.Err != "" || waitErrs[r] != nil) {
			first = fmt.Errorf("rank %d: %s %v", r, rep.Err, waitErrs[r])
		}
	}
	if fired {
		first = errWatchdog
	}
	return results, wall, first
}

// envInt reads a required integer from the process-mode environment.
func envInt(key string) (int, error) {
	v, err := strconv.Atoi(os.Getenv(key))
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q: %w", key, os.Getenv(key), err)
	}
	return v, nil
}

// childMain is the whole life of a rank child: read identity and plan from
// the environment, run the rank under a watchdog of its own (so an orphaned
// child cannot outlive the job), print the report, and return the exit
// status.
func childMain() int {
	var pl plan
	rep, err := func() (rankResult, error) {
		rank, err := envInt(envRank)
		if err != nil {
			return rankResult{}, err
		}
		np, err := envInt(envNP)
		if err != nil {
			return rankResult{}, err
		}
		nonce, err := strconv.ParseUint(os.Getenv(envNonce), 10, 64)
		if err != nil {
			return rankResult{}, fmt.Errorf("bad %s: %w", envNonce, err)
		}
		if err := json.Unmarshal([]byte(os.Getenv(envPlan)), &pl); err != nil {
			return rankResult{}, fmt.Errorf("bad %s: %w", envPlan, err)
		}
		time.AfterFunc(time.Duration(pl.WatchdogNs), func() {
			fmt.Fprintf(os.Stderr, "bench: rank %d: watchdog fired\n", rank)
			os.Exit(3)
		})
		var res rankResult
		err = runtime.RunProcess(runtime.ProcOptions{
			NP: np, Rank: rank, BootAddr: os.Getenv(envBoot),
			Config: core.Config{CIDMode: cidFor(pl.Kind), BTL: "udp", UDPNonce: nonce},
		}, func(p *mpi.Process) error {
			// The start gate (see runProc): report ready, wait for release.
			// A parent that is gone closes stdin, which releases us too; the
			// watchdog then bounds what follows.
			ready := os.NewFile(3, "ready")
			_, _ = ready.Write([]byte{1})
			ready.Close()
			_, _ = os.Stdin.Read(make([]byte, 1))
			var err error
			res, err = rankMain(p, pl, time.Unix(0, pl.EpochUnixNano))
			return err
		})
		return res, err
	}()
	out := childReport{Result: rep}
	if err != nil {
		out.Err = err.Error()
	}
	if encErr := json.NewEncoder(os.Stdout).Encode(out); encErr != nil {
		fmt.Fprintln(os.Stderr, "bench: child report:", encErr)
		return 1
	}
	if err != nil {
		return 1
	}
	return 0
}
