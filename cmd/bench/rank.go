package main

import (
	"fmt"
	"time"

	"gompi/mpi"
)

// Job kinds a rank can be asked to run.
const (
	kindLong     = "long"     // the long-lived job taking turns at longKernels
	kindSessions = "sessions" // one Fig. 1 cycle: session, group, communicator, barrier, free, finalize
	kindWorld    = "world"    // one MPI_Init cycle: Init, barrier, Finalize
)

// plan is what the harness hands every rank of a job: in sim mode as a Go
// value, in process mode as JSON in the child's environment. It carries the
// seed, never generated inputs, so both sides derive identical inputs.
type plan struct {
	Kind string `json:"kind"`
	Seed uint64 `json:"seed"`
	// Round selects the seeded kernel order; -1 is set-up (calibration).
	Round int `json:"round"`
	// SliceNs is each kernel's turn length; 0 stops after calibration.
	SliceNs int64 `json:"slice_ns"`
	// Est is the per-operation cost estimate, in ns, per kernel metric.
	Est map[string]float64 `json:"est,omitempty"`
	// Pair holds the job ranks of the point-to-point pair.
	Pair [2]int `json:"pair"`
	// Proc says every rank is its own OS process (and collects its own
	// garbage between kernels).
	Proc bool `json:"proc"`

	Trace         bool   `json:"trace"`
	Job           int    `json:"job"`
	Parent        uint64 `json:"parent,omitempty"`
	EpochUnixNano int64  `json:"epoch_unix_nano"`
	// WatchdogNs is how long a rank child may live before it kills itself.
	WatchdogNs int64 `json:"watchdog_ns"`
}

// rankResult is what one rank reports back.
type rankResult struct {
	Rank int `json:"rank"`
	// Samples are per-batch means, ns per operation, by kernel metric;
	// Traced holds those of the batches that recorded a span.
	Samples map[string][]float64 `json:"samples,omitempty"`
	Traced  map[string][]float64 `json:"traced,omitempty"`
	Est     map[string]float64   `json:"est,omitempty"`
	// InitNs is the timed initialisation sequence of a cycle job.
	InitNs int64 `json:"init_ns,omitempty"`
	Ops    int   `json:"ops"`
	// UDPDrops is the udp BTL's drop counter at the end of the job.
	UDPDrops uint64 `json:"udp_drops"`
	Spans    []span `json:"spans,omitempty"`
}

func spanPrefix(job, rank int) uint64 { return (uint64(job)<<4 | uint64(rank+1)) << 30 }

// rankMain runs one rank's share of a job.
func rankMain(p *mpi.Process, pl plan, epoch time.Time) (rankResult, error) {
	res := rankResult{Rank: p.JobRank(), Samples: map[string][]float64{}, Traced: map[string][]float64{}, Est: map[string]float64{}}
	var tr *tracer
	if pl.Trace {
		tr = newTracer(epoch, spanPrefix(pl.Job, p.JobRank()), pl.Job, p.JobRank())
	}
	var err error
	switch pl.Kind {
	case kindLong:
		err = longJob(p, pl, tr, &res)
	case kindSessions:
		err = sessionsCycle(p, pl, tr, &res)
	case kindWorld:
		err = worldCycle(p, pl, tr, &res)
	default:
		err = fmt.Errorf("unknown job kind %q", pl.Kind)
	}
	if tr != nil {
		res.Spans = tr.spans
	}
	return res, err
}

// sessionsCycle is the Sessions start-up sequence of Fig. 1. The three
// calls up to a usable communicator are timed together (sessions_init_us);
// the barrier proves the communicator works.
func sessionsCycle(p *mpi.Process, pl plan, tr *tracer, res *rankResult) error {
	t0 := time.Now()
	sp := tr.begin("mpi.SessionInit", pl.Parent)
	sess, err := p.SessionInit(nil, mpi.ErrorsReturn())
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("mpi.GroupFromPset", pl.Parent)
	grp, err := sess.GroupFromPset(mpi.PsetWorld)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("mpi.CommCreateFromGroup", pl.Parent)
	comm, err := sess.CommCreateFromGroup(grp, "bench.cycle", nil, nil)
	tr.end(sp)
	res.InitNs = int64(time.Since(t0))
	if err != nil {
		return err
	}
	if comm.Size() != p.JobSize() {
		return fmt.Errorf("world communicator has %d ranks, want %d", comm.Size(), p.JobSize())
	}
	sp = tr.begin("mpi.Barrier", pl.Parent)
	err = comm.Barrier()
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("mpi.CommFree", pl.Parent)
	err = comm.Free()
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("mpi.SessionFinalize", pl.Parent)
	err = sess.Finalize()
	tr.end(sp)
	res.Ops = 1
	return err
}

// worldCycle is the MPI_Init baseline of Fig. 3.
func worldCycle(p *mpi.Process, pl plan, tr *tracer, res *rankResult) error {
	t0 := time.Now()
	sp := tr.begin("mpi.Init", pl.Parent)
	err := p.Init()
	tr.end(sp)
	res.InitNs = int64(time.Since(t0))
	if err != nil {
		return err
	}
	world := p.CommWorld()
	if world.Size() != p.JobSize() {
		return fmt.Errorf("MPI_COMM_WORLD has %d ranks, want %d", world.Size(), p.JobSize())
	}
	sp = tr.begin("mpi.Barrier", pl.Parent)
	err = world.Barrier()
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("mpi.WorldFinalize", pl.Parent)
	err = p.Finalize()
	tr.end(sp)
	res.Ops = 1
	return err
}

// longJob brings up MPI_Init (the 2MESH application side) and a session
// with two communicators — one spanning the job, one holding the
// point-to-point pair — then gives every kernel its turn in the round's
// seeded order.
func longJob(p *mpi.Process, pl plan, tr *tracer, res *rankResult) error {
	in := genInputs(pl.Seed, len(longKernels), rounds)
	if _, err := p.InitThread(mpi.ThreadMultiple); err != nil {
		return err
	}
	sess, err := p.SessionInit(nil, mpi.ErrorsReturn())
	if err != nil {
		return err
	}
	grp, err := sess.GroupFromPset(mpi.PsetWorld)
	if err != nil {
		return err
	}
	all, err := sess.CommCreateFromGroup(grp, "bench.all", nil, nil)
	if err != nil {
		return err
	}
	var pair *mpi.Comm
	if me := p.JobRank(); me == pl.Pair[0] || me == pl.Pair[1] {
		pairGrp, err := grp.Incl(pl.Pair[:])
		if err != nil {
			return err
		}
		if pair, err = sess.CommCreateFromGroup(pairGrp, "bench.pair", nil, nil); err != nil {
			return err
		}
	}

	order := make([]int, len(longKernels))
	for i := range order {
		order[i] = i
	}
	if pl.Round >= 0 {
		order = in.Orders[pl.Round]
	}
	for _, ki := range order {
		k := longKernels[ki]
		// Every rank meets here, so ranks outside the pair sleep in this
		// barrier while a point-to-point kernel runs.
		if err := all.Barrier(); err != nil {
			return err
		}
		c := all
		if k.pair {
			c = pair
		}
		if c == nil {
			continue
		}
		if err := runSlice(c, p, k, in, pl, tr, res); err != nil {
			return fmt.Errorf("%s: %w", k.metric, err)
		}
	}

	res.UDPDrops = p.BTLStatsSnapshot()["udp"].Drops
	if pair != nil {
		if err := pair.Free(); err != nil {
			return err
		}
	}
	if err := all.Free(); err != nil {
		return err
	}
	if err := sess.Finalize(); err != nil {
		return err
	}
	return p.Finalize()
}
