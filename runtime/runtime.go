// Package runtime launches simulated MPI jobs: it stands in for the prun
// launcher and the PRRTE distributed virtual machine of the paper's
// testbed. A Job owns the simulated fabric, one PRRTE daemon and PMIx
// server per node, and the rank goroutines running the application.
//
// Typical use:
//
//	opts := runtime.Options{Cluster: topo.New(topo.Jupiter(), 2), PPN: 4}
//	err := runtime.Run(opts, func(p *mpi.Process) error {
//	    sess, _ := p.SessionInit(nil, nil)
//	    defer sess.Finalize()
//	    ...
//	})
package runtime

import (
	"fmt"
	"runtime/debug"
	"strings"
	"sync"

	"gompi/internal/core"
	"gompi/internal/pmix"
	"gompi/internal/prrte"
	"gompi/internal/simnet"
	"gompi/internal/topo"

	"gompi/mpi"
)

// Options configures a job launch.
type Options struct {
	// Cluster is the simulated machine; defaults to a 1-node loopback.
	Cluster topo.Cluster
	// NP is the total number of ranks; defaults to PPN*nodes.
	NP int
	// PPN is ranks per node; defaults to the cluster's cores per node.
	PPN int
	// Psets are additional named process sets registered with the runtime
	// (the prun --pset analogue), e.g. {"app://ocean": []int{0,1,2,3}}.
	Psets map[string][]int
	// Config is the per-process MPI configuration.
	Config core.Config
}

func (o Options) withDefaults() (Options, error) {
	if o.Cluster.Nodes == 0 {
		o.Cluster = topo.New(topo.Loopback(8), 1)
	}
	if o.PPN == 0 {
		o.PPN = o.Cluster.Profile.CoresPerNode
	}
	if o.PPN <= 0 {
		return o, fmt.Errorf("runtime: PPN must be positive")
	}
	if o.NP == 0 {
		o.NP = o.PPN * o.Cluster.Nodes
	}
	if o.NP <= 0 {
		return o, fmt.Errorf("runtime: NP must be positive")
	}
	nodesNeeded := (o.NP + o.PPN - 1) / o.PPN
	if nodesNeeded > o.Cluster.Nodes {
		return o, fmt.Errorf("runtime: %d ranks at %d ppn need %d nodes; cluster has %d",
			o.NP, o.PPN, nodesNeeded, o.Cluster.Nodes)
	}
	return o, nil
}

// Job is a launched (or launchable) simulated MPI job.
type Job struct {
	opts    Options
	fabric  *simnet.Fabric
	dvm     *prrte.DVM
	servers []*pmix.Server
	insts   []*core.Instance

	mu       sync.Mutex
	shutdown bool
}

// NewJob builds the runtime substrate (fabric, daemons, PMIx servers, one
// MPI instance per rank) without running any application code. Callers that
// need several launches over the same substrate (benchmark re-init loops)
// use this with Launch; one-shot callers use Run.
func NewJob(opts Options) (*Job, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	// Jobs selecting the udp transport need a shared frame nonce; generate
	// one when the caller didn't (every instance gets the same Config).
	if strings.Contains(opts.Config.BTL, "udp") && opts.Config.UDPNonce == 0 {
		opts.Config.UDPNonce = NewJobNonce()
	}
	fabric := simnet.NewFabric(opts.Cluster)
	dvm := prrte.NewDVM(fabric)
	jobMap := prrte.JobMap{NP: opts.NP, PPN: opts.PPN}
	for name, ranks := range opts.Psets {
		dvm.RegisterPset(name, ranks)
	}

	nodes := jobMap.Nodes()
	servers := make([]*pmix.Server, nodes)
	for n := 0; n < nodes; n++ {
		servers[n] = pmix.NewServer(dvm.Daemon(n), jobMap, "job-0")
	}
	insts := make([]*core.Instance, opts.NP)
	for r := 0; r < opts.NP; r++ {
		insts[r] = core.NewInstance(core.Deps{
			Fabric: fabric,
			Server: servers[jobMap.NodeOf(r)],
			Rank:   r,
			Cfg:    opts.Config,
		})
	}
	return &Job{opts: opts, fabric: fabric, dvm: dvm, servers: servers, insts: insts}, nil
}

// NP returns the job's rank count.
func (j *Job) NP() int { return j.opts.NP }

// Fabric exposes the simulated fabric (for traffic statistics).
func (j *Job) Fabric() *simnet.Fabric { return j.fabric }

// RankError carries a per-rank failure. Err is the error the rank
// returned, or "panic: <value>" for a rank that panicked; Stack then holds
// the panicking goroutine's stack, kept out of the one-line message.
type RankError struct {
	Rank  int
	Err   error
	Stack []byte
}

func (e RankError) Error() string { return fmt.Sprintf("rank %d: %v", e.Rank, e.Err) }
func (e RankError) Unwrap() error { return e.Err }

// JobError aggregates rank failures.
type JobError struct{ Errors []RankError }

func (e *JobError) Error() string {
	if len(e.Errors) == 1 {
		return e.Errors[0].Error()
	}
	return fmt.Sprintf("%v (and %d more rank errors)", e.Errors[0], len(e.Errors)-1)
}

// Unwrap returns the rank failures, so errors.Is and errors.As on a
// JobError reach each RankError and, through it, the rank's own error.
func (e *JobError) Unwrap() []error {
	errs := make([]error, len(e.Errors))
	for i, re := range e.Errors {
		errs[i] = re
	}
	return errs
}

// runRank runs main as one incarnation of a rank, on a fresh mpi.Process
// view of inst, and returns its failure (nil when main returns nil). A
// panicking rank is reported to the PMIx runtime as an abnormal
// termination, so surviving ranks observe a process-failure event rather
// than a silent hang.
func runRank(inst *core.Instance, rank int, main func(p *mpi.Process) error) (re *RankError) {
	defer func() {
		if rec := recover(); rec != nil {
			if c := inst.Client(); c != nil {
				c.Abort()
			}
			re = &RankError{Rank: rank, Err: fmt.Errorf("panic: %v", rec), Stack: debug.Stack()}
		}
	}()
	if err := main(mpi.NewProcess(inst)); err != nil {
		return &RankError{Rank: rank, Err: err}
	}
	return nil
}

// Launch runs main once on every rank (see LaunchRanks).
func (j *Job) Launch(main func(p *mpi.Process) error) error {
	ranks := make([]int, j.opts.NP)
	for r := range ranks {
		ranks[r] = r
	}
	return j.LaunchRanks(ranks, main)
}

// LaunchRanks runs main once on each of the given ranks, each on its own
// goroutine with a fresh mpi.Process view of the persistent instance, and
// waits for all of them; the other instances stay idle (client/server-style
// scenarios launch each side separately). A failed or panicking rank comes
// back as a RankError in the returned *JobError.
func (j *Job) LaunchRanks(ranks []int, main func(p *mpi.Process) error) error {
	for _, r := range ranks {
		if r < 0 || r >= j.opts.NP {
			return fmt.Errorf("runtime: rank %d out of range", r)
		}
	}
	j.mu.Lock()
	if j.shutdown {
		j.mu.Unlock()
		return fmt.Errorf("runtime: job is shut down")
	}
	j.mu.Unlock()

	var errs []RankError
	var errMu sync.Mutex
	var wg sync.WaitGroup
	for _, r := range ranks {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			if re := runRank(j.insts[rank], rank, main); re != nil {
				errMu.Lock()
				errs = append(errs, *re)
				errMu.Unlock()
			}
		}(r)
	}
	wg.Wait()
	if len(errs) > 0 {
		return &JobError{Errors: errs}
	}
	return nil
}

// Respawn replaces a crashed rank: the dead incarnation's leaked resources
// (PML engine, shared-memory mailbox, fabric endpoint, PMIx connection) are
// forcibly reclaimed, and main runs as the rank's new incarnation on the
// calling goroutine, blocking until it returns. The fresh SessionInit
// inside main reconnects to the rank's PMIx server, which re-admits the
// rank into gompi://alive and broadcasts EventProcRestarted so surviving
// ranks drop cached routes and addresses of the dead incarnation.
//
// Respawn is meant to be called while Launch is still running the survivor
// ranks — typically from a goroutine triggered once a survivor observes the
// death (e.g. via Session.WatchPset). The target rank must have terminated
// abnormally (its death reported through Abort); respawning a live rank
// corrupts its state.
func (j *Job) Respawn(rank int, main func(p *mpi.Process) error) error {
	if rank < 0 || rank >= j.opts.NP {
		return fmt.Errorf("runtime: rank %d out of range", rank)
	}
	j.mu.Lock()
	if j.shutdown {
		j.mu.Unlock()
		return fmt.Errorf("runtime: job is shut down")
	}
	j.mu.Unlock()

	inst := j.insts[rank]
	inst.ForceTeardown()
	if re := runRank(inst, rank, main); re != nil {
		return *re
	}
	return nil
}

// Instance exposes a rank's core instance (benchmark instrumentation).
func (j *Job) Instance(rank int) *core.Instance { return j.insts[rank] }

// Shutdown tears down the runtime substrate. It first reclaims every rank
// still active: one that died without Finalize still holds its PML engine,
// its BTL modules (the pump goroutine of its served fabric endpoint among
// them) and its PMIx connection. Closing the DVM's daemon endpoints last
// stops their pumps.
func (j *Job) Shutdown() {
	j.mu.Lock()
	if j.shutdown {
		j.mu.Unlock()
		return
	}
	j.shutdown = true
	j.mu.Unlock()
	for _, inst := range j.insts {
		if inst.Active() {
			inst.ForceTeardown()
		}
	}
	for _, s := range j.servers {
		s.Close()
	}
	j.dvm.Shutdown()
}

// Run is the one-shot convenience: build a job, run main on every rank,
// tear everything down.
func Run(opts Options, main func(p *mpi.Process) error) error {
	job, err := NewJob(opts)
	if err != nil {
		return err
	}
	defer job.Shutdown()
	return job.Launch(main)
}
