package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	goruntime "runtime"
	"time"
)

// metricDef names one end-to-end metric.
type metricDef struct {
	name, unit   string
	higherBetter bool
}

// e2eMetrics is the list BENCHMARK.json repeats; every workload reports
// every one of them, measured on that workload's stack.
var e2eMetrics = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "sessions_init_us", unit: "us"},
	{name: "world_init_us", unit: "us"},
	{name: "comm_dup_us", unit: "us"},
	{name: "job_cycle_ms", unit: "ms"},
	{name: "twomesh_tiny_ms", unit: "ms"},
	{name: "latency_8B_us", unit: "us"},
	{name: "latency_64KiB_us", unit: "us"},
	{name: "msg_rate_8B_per_s", unit: "1/s", higherBetter: true},
	{name: "bw_64KiB_MBps", unit: "MB/s", higherBetter: true},
	{name: "allreduce_8B_us", unit: "us"},
	{name: "allreduce_persistent_8B_us", unit: "us"},
	{name: "allreduce_32KiB_us", unit: "us"},
	{name: "gather_1KiB_us", unit: "us"},
}

const (
	rounds       = 5
	setupRepeats = 5
)

// slotsPerRound counts the equal turns of one round: every long kernel, the
// Sessions cycles, the MPI_Init cycles.
var slotsPerRound = len(longKernels) + 2

// series holds one metric's samples, per round, split by whether the round
// was traced.
type series struct {
	plain, traced [][]float64 // one slice per round
}

func (s *series) add(round int, traced bool, v ...float64) {
	dst := &s.plain
	if traced {
		dst = &s.traced
	}
	for len(*dst) <= round {
		*dst = append(*dst, nil)
	}
	(*dst)[round] = append((*dst)[round], v...)
}

func flatten(rounds [][]float64) []float64 {
	var out []float64
	for _, r := range rounds {
		out = append(out, r...)
	}
	return out
}

// run is the state of one workload run.
type run struct {
	cfg      config
	m        mode
	l        *launcher
	est      map[string]float64
	data     map[string]*series
	ops      int
	failed   int
	failures []string
	udpDrops uint64
}

func (r *run) series(name string) *series {
	s := r.data[name]
	if s == nil {
		s = &series{}
		r.data[name] = s
	}
	return s
}

func (r *run) fail(what string, err error) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
	}
	fmt.Fprintf(os.Stderr, "bench: FAILED %s: %v\n", what, err)
}

// cycle runs one start-up job of the given kind and returns the slowest
// rank's initialisation time and the job's wall time.
func (r *run) cycle(kind string, traced bool) (initNs, wall time.Duration, err error) {
	res, wall, err := r.l.run(plan{Kind: kind, Seed: r.cfg.seed}, traced, 0)
	r.ops++
	if err != nil {
		return 0, 0, err
	}
	for _, rr := range res {
		if d := time.Duration(rr.InitNs); d > initNs {
			initNs = d
		}
	}
	return initNs, wall, nil
}

// long runs the long-lived job for one round (or, with a zero slice, for
// calibration only) and folds what the ranks report into the run.
func (r *run) long(round int, slice time.Duration, traced bool) error {
	pl := plan{Kind: kindLong, Seed: r.cfg.seed, Round: round, SliceNs: int64(slice), Est: r.est}
	res, _, err := r.l.run(pl, traced, time.Duration(len(longKernels))*slice)
	for _, rr := range res {
		r.ops += rr.Ops
		r.udpDrops += rr.UDPDrops
	}
	if err != nil {
		r.ops++ // the operation that failed was attempted too
		return err
	}
	if r.udpDrops > 0 {
		return fmt.Errorf("btl/udp dropped %d datagrams", r.udpDrops)
	}
	for name, e := range res[0].Est {
		r.est[name] = e
	}
	if slice == 0 {
		return nil
	}
	for _, k := range longKernels {
		for _, half := range []struct {
			traced bool
			of     func(rankResult) []float64
		}{
			{false, func(rr rankResult) []float64 { return rr.Samples[k.metric] }},
			{true, func(rr rankResult) []float64 { return rr.Traced[k.metric] }},
		} {
			// Point-to-point kernels are timed by the rank that starts each
			// exchange. A collective is done when its slowest rank is: take
			// the element-wise maximum over the ranks.
			worst := append([]float64(nil), half.of(res[r.m.pair[0]])...)
			for _, rr := range res {
				for i, ns := range half.of(rr) {
					if !k.pair && i < len(worst) && ns > worst[i] {
						worst[i] = ns
					}
				}
			}
			for i, ns := range worst {
				worst[i] = k.value(ns)
			}
			r.series(k.metric).add(round, half.traced, worst...)
		}
	}
	return nil
}

// setUp does everything that must happen before the first timed round:
// bring up the long-lived job, whose ranks derive the inputs from the seed
// and calibrate every kernel's batch size (checking results on the way), and
// run one start-up cycle of each kind.
func (r *run) setUp(traced bool) error {
	r.est = map[string]float64{}
	if err := r.long(-1, 0, traced); err != nil {
		return fmt.Errorf("long-lived job: %w", err)
	}
	for _, kind := range []string{kindSessions, kindWorld} {
		if _, _, err := r.cycle(kind, traced); err != nil {
			return fmt.Errorf("%s cycle: %w", kind, err)
		}
	}
	return nil
}

// cycles runs start-up jobs of one kind back to back until the slice is
// spent, one sample per job.
func (r *run) cycles(kind string, round int, slice time.Duration) {
	goruntime.GC()
	deadline := time.Now().Add(slice)
	for n := 0; n < 2 || time.Now().Before(deadline); n++ {
		traced := r.cfg.trace && n%2 == 1
		initNs, wall, err := r.cycle(kind, traced)
		if err != nil {
			r.fail(kind+" cycle", err)
			continue
		}
		if kind == kindSessions {
			r.series("sessions_init_us").add(round, traced, float64(initNs)/1e3)
			r.series("job_cycle_ms").add(round, traced, float64(wall)/1e6)
		} else {
			r.series("world_init_us").add(round, traced, float64(initNs)/1e3)
		}
	}
}

// runWorkload is one whole run: repeated set-up, then the timed rounds. In
// a traced run every other set-up, start-up job and kernel batch records
// spans; the halves with and without give the tracing overhead.
func runWorkload(cfg config, budget time.Duration) (*run, error) {
	m, ok := modeByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	l, err := newLauncher(m)
	if err != nil {
		return nil, err
	}
	r := &run{cfg: cfg, m: m, l: l, data: map[string]*series{}}

	for i := 0; i < setupRepeats; i++ {
		traced := cfg.trace && i%2 == 1
		t0 := time.Now()
		if err := r.setUp(traced); err != nil {
			r.fail("set-up", err)
			return r, nil
		}
		r.series("setup_s").add(i, traced, time.Since(t0).Seconds())
	}

	// The seed also decides in which order the long-lived job and the two
	// kinds of start-up cycles take their turns within a round.
	rng := rand.New(rand.NewPCG(cfg.seed, 0x736c6f7473)) // "slots"
	deadline := time.Now().Add(budget)
	for round := 0; round < rounds; round++ {
		// Re-divide what is left so job start-up and warm-up batches, which
		// no slice pays for, do not push the run past its budget.
		slice := time.Until(deadline) / time.Duration((rounds-round)*slotsPerRound)
		if slice < time.Millisecond {
			slice = time.Millisecond
		}
		for _, slot := range rng.Perm(3) {
			switch slot {
			case 0:
				if err := r.long(round, slice, cfg.trace); err != nil {
					r.fail("long-lived job", err)
				}
			case 1:
				r.cycles(kindSessions, round, slice)
			case 2:
				r.cycles(kindWorld, round, slice)
			}
		}
	}
	return r, nil
}
