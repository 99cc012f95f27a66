// Package mpi is the public API of the reproduction: an MPI-like
// message-passing library for simulated jobs, implementing both the classic
// World Process Model (Init / Finalize / CommWorld) and the MPI Sessions
// extensions the paper prototypes (SessionInit, process sets, groups from
// psets, communicators from groups).
//
// Each simulated MPI process is a goroutine holding a *Process — the
// analogue of a linked libmpi instance. Obtain Process values from the
// runtime package's launcher.
package mpi

import (
	"errors"
	"fmt"
	"sync"

	"gompi/internal/core"
)

// ThreadLevel is the requested/provided thread support level.
type ThreadLevel int

// Thread support levels (MPI_THREAD_*). The Go implementation is always
// fully thread-safe, so Provided is always ThreadMultiple; the levels exist
// for API fidelity and for the Sessions isolation discussion (§II-B).
const (
	ThreadSingle ThreadLevel = iota
	ThreadFunneled
	ThreadSerialized
	ThreadMultiple
)

func (t ThreadLevel) String() string {
	switch t {
	case ThreadSingle:
		return "MPI_THREAD_SINGLE"
	case ThreadFunneled:
		return "MPI_THREAD_FUNNELED"
	case ThreadSerialized:
		return "MPI_THREAD_SERIALIZED"
	case ThreadMultiple:
		return "MPI_THREAD_MULTIPLE"
	}
	return fmt.Sprintf("ThreadLevel(%d)", int(t))
}

// Errors reported by lifecycle functions.
var (
	ErrAlreadyInitialized = errors.New("mpi: MPI already initialized in this process")
	ErrNotInitialized     = errors.New("mpi: MPI not initialized")
	ErrFinalized          = errors.New("mpi: MPI already finalized")
	ErrSessionFinalized   = errors.New("mpi: session already finalized")
	ErrUnsupported        = errors.New("mpi: operation unsupported in this CID mode")
)

// Process is one simulated MPI process's library state. All methods are
// safe for concurrent use by multiple goroutines ("threads") of the
// process.
type Process struct {
	inst *core.Instance
	rank int

	mu            sync.Mutex
	worldInited   bool
	worldFinal    bool
	wpmSession    *Session
	world, self   *Comm
	sessionSeq    int
	keyvalSeq     int
	processKeyval map[int]any // process-level attribute cache
}

// NewProcess wraps a core instance; called by the runtime launcher.
func NewProcess(inst *core.Instance) *Process {
	return &Process{
		inst:          inst,
		rank:          inst.Rank(),
		processKeyval: make(map[int]any),
	}
}

// JobRank returns the launcher-assigned global rank of this process (the
// information an unstarted MPI process gets from its environment).
func (p *Process) JobRank() int { return p.rank }

// JobSize returns the number of processes in the job.
func (p *Process) JobSize() int { return p.inst.JobSize() }

// Instance exposes the underlying core instance; intended for the runtime
// and benchmarks, not application code.
func (p *Process) Instance() *core.Instance { return p.inst }

// PMLStats is the MPI_T-style performance snapshot of the messaging layer.
type PMLStats struct {
	// FastSent counts messages sent with the 14-byte match header only.
	FastSent uint64
	// ExtSent counts messages that carried the extended (exCID) header —
	// the first-message handshake traffic of §III-B4.
	ExtSent uint64
	// AcksSent / AcksReceived count CID handshake acknowledgements.
	AcksSent     uint64
	AcksReceived uint64
	// Rendezvous counts large-message transfers.
	Rendezvous uint64
	// PostedHits counts inbound messages that matched an already-posted
	// receive; UnexpectedHits counts receives satisfied from the unexpected
	// queue. Their ratio is the classic late-receiver/late-sender signal.
	PostedHits     uint64
	UnexpectedHits uint64
	// DupsDropped counts wire-duplicated packets screened out by the
	// per-peer sequence numbers, and stale frames addressed to a freed
	// communicator's reused local CID; ReorderStashed counts out-of-order
	// packets parked until their gap filled.
	DupsDropped    uint64
	ReorderStashed uint64
}

// PMLStatsSnapshot returns the process's current messaging counters; zero
// when MPI is not initialized.
func (p *Process) PMLStatsSnapshot() PMLStats {
	e := p.inst.Engine()
	if e == nil {
		return PMLStats{}
	}
	s := e.Stats()
	return PMLStats{
		FastSent:       s.FastSent,
		ExtSent:        s.ExtSent,
		AcksSent:       s.AcksSent,
		AcksReceived:   s.AcksRecved,
		Rendezvous:     s.Rendezvous,
		PostedHits:     s.PostedHits,
		UnexpectedHits: s.UnexpectedHits,
		DupsDropped:    s.DupsDropped,
		ReorderStashed: s.ReorderStashed,
	}
}

// TransportStats counts the traffic one BTL module has carried for this
// process. The receive-side counters (RecvMsgs, RecvBytes) and Drops are
// meaningful only for real-wire transports like udp, where the module owns
// a socket: Drops counts datagrams rejected before the matcher — malformed
// frames, foreign-job traffic, and reassembly evictions.
type TransportStats struct {
	Msgs      uint64
	Bytes     uint64
	RecvMsgs  uint64
	RecvBytes uint64
	Drops     uint64
}

// BTLStatsSnapshot returns per-transport traffic counters keyed by MCA
// component name ("sm", "udp", "net"); nil when MPI is not initialized.
// Intra-node traffic appearing under "sm" confirms the shared-memory fast
// path is carrying it.
func (p *Process) BTLStatsSnapshot() map[string]TransportStats {
	e := p.inst.Engine()
	if e == nil {
		return nil
	}
	out := make(map[string]TransportStats)
	for name, s := range e.BTLStats() {
		out[name] = TransportStats{
			Msgs:      s.Msgs,
			Bytes:     s.Bytes,
			RecvMsgs:  s.RecvMsgs,
			RecvBytes: s.RecvBytes,
			Drops:     s.Drops,
		}
	}
	return out
}

// FaultStats is a snapshot of the simulated fabric's fault-injection
// counters: what the chaos plan actually did to this job's wire. Killed and
// Revived count the process deaths and respawns the plan triggered — the
// pair the recovery soak metrics (ROADMAP item 3(d)) track against completed
// rebuilds.
type FaultStats struct {
	Dropped     uint64
	Duplicated  uint64
	Delayed     uint64
	Reordered   uint64
	Partitioned uint64
	Killed      uint64
	Revived     uint64
}

// FaultStatsSnapshot returns the fabric's injected-fault counters; zero when
// the process is not backed by a simulated fabric. The counters are
// fabric-global (one chaos plan serves the whole job), so every process of a
// job reports the same values.
func (p *Process) FaultStatsSnapshot() FaultStats {
	f := p.inst.Fabric()
	if f == nil {
		return FaultStats{}
	}
	s := f.FaultStats()
	return FaultStats{
		Dropped:     s.Dropped,
		Duplicated:  s.Duplicated,
		Delayed:     s.Delayed,
		Reordered:   s.Reordered,
		Partitioned: s.Partitioned,
		Killed:      s.Killed,
		Revived:     s.Revived,
	}
}

// CollStats counts collective-framework algorithm invocations, keyed
// "operation/algorithm" (e.g. "allreduce/recursive_doubling"). Together
// with the "coll" trace layer it shows which decision-table entries the
// workload actually exercised.
type CollStats map[string]uint64

// CollStatsSnapshot returns the process's collective algorithm counters;
// nil when MPI is not initialized.
func (p *Process) CollStatsSnapshot() CollStats {
	fw := p.inst.Coll()
	if fw == nil {
		return nil
	}
	return CollStats(fw.Snapshot())
}

// Init initializes the World Process Model (MPI_Init): equivalent to
// InitThread(ThreadSingle).
func (p *Process) Init() error {
	_, err := p.InitThread(ThreadSingle)
	return err
}

// InitThread initializes the World Process Model (MPI_Init_thread). As in
// the prototype (§III-B5), it is restructured to create an internal MPI
// session and then build the built-in world/self communicators, so the WPM
// and the Sessions model share one code path. Unlike SessionInit it may be
// called only once per process.
func (p *Process) InitThread(required ThreadLevel) (ThreadLevel, error) {
	p.mu.Lock()
	if p.worldFinal {
		p.mu.Unlock()
		return 0, ErrFinalized
	}
	if p.worldInited {
		p.mu.Unlock()
		return 0, ErrAlreadyInitialized
	}
	p.mu.Unlock()

	sess, err := p.SessionInit(nil, ErrorsAreFatal())
	if err != nil {
		return 0, err
	}
	sess.name = "wpm-internal"

	// The startup modex: a fence over the whole job. Only node-local peers
	// are fully "added" here; remote endpoints resolve on first
	// communication (§III-B1).
	client := p.inst.Client()
	all := make([]int, p.JobSize())
	for i := range all {
		all[i] = i
	}
	if err := client.Fence(all, false, p.inst.Timeout()); err != nil {
		_ = sess.Finalize()
		return 0, fmt.Errorf("mpi: startup fence: %w", err)
	}

	world, err := newBuiltinComm(p, sess, all, builtinWorld)
	if err != nil {
		_ = sess.Finalize()
		return 0, err
	}
	self, err := newBuiltinComm(p, sess, []int{p.rank}, builtinSelf)
	if err != nil {
		world.freeLocal()
		_ = sess.Finalize()
		return 0, err
	}

	p.mu.Lock()
	p.worldInited = true
	p.wpmSession = sess
	p.world = world
	p.self = self
	p.mu.Unlock()
	return ThreadMultiple, nil
}

// Initialized reports whether the World Process Model is live
// (MPI_Initialized).
func (p *Process) Initialized() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.worldInited
}

// Finalized reports whether MPI_Finalize has completed (MPI_Finalized).
func (p *Process) Finalized() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.worldFinal
}

// CommWorld returns the built-in world communicator (MPI_COMM_WORLD); nil
// before Init or after Finalize.
func (p *Process) CommWorld() *Comm {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.world
}

// CommSelf returns the built-in self communicator (MPI_COMM_SELF).
func (p *Process) CommSelf() *Comm {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.self
}

// Finalize tears down the World Process Model (MPI_Finalize). The built-in
// communicators are freed and the internal session finalized; if no other
// session is live, the instance's cleanup callbacks run. Sessions may still
// be created afterwards — the WPM itself, per the MPI standard, cannot be
// re-initialized.
func (p *Process) Finalize() error {
	p.mu.Lock()
	if !p.worldInited {
		p.mu.Unlock()
		if p.worldFinal {
			return ErrFinalized
		}
		return ErrNotInitialized
	}
	world, self, sess := p.world, p.self, p.wpmSession
	p.world, p.self, p.wpmSession = nil, nil, nil
	p.worldInited = false
	p.worldFinal = true
	p.mu.Unlock()

	// A final fence keeps finalize collective, so no peer tears down its
	// endpoint while others still drain traffic.
	client := p.inst.Client()
	all := make([]int, p.JobSize())
	for i := range all {
		all[i] = i
	}
	fenceErr := client.Fence(all, false, p.inst.Timeout())

	world.freeLocal()
	self.freeLocal()
	if err := sess.Finalize(); err != nil {
		return err
	}
	return fenceErr
}

// SessionInit creates a new MPI session (MPI_Session_init). It is local,
// comparatively light-weight, thread-safe, and may be called any number of
// times, including after all previous sessions were finalized — the
// re-initialization capability motivating the proposal (§II-A).
func (p *Process) SessionInit(info *Info, errh *Errhandler) (*Session, error) {
	if errh == nil {
		errh = ErrorsReturn()
	}
	if err := p.inst.Acquire(); err != nil {
		return nil, errh.invoke(err)
	}
	p.mu.Lock()
	p.sessionSeq++
	name := fmt.Sprintf("session-%d", p.sessionSeq)
	p.mu.Unlock()
	return &Session{
		p:    p,
		name: name,
		info: info.Dup(),
		errh: errh,
	}, nil
}

// KeyvalCreate allocates a new attribute key usable on communicators and at
// process level (MPI_Comm_create_keyval). Legal before initialization.
func (p *Process) KeyvalCreate() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.keyvalSeq++
	return p.keyvalSeq
}

// AttrSet caches a process-level attribute; legal before initialization
// and always thread-safe (§III-B5).
func (p *Process) AttrSet(keyval int, value any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.processKeyval[keyval] = value
}

// AttrGet retrieves a process-level attribute.
func (p *Process) AttrGet(keyval int) (any, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	v, ok := p.processKeyval[keyval]
	return v, ok
}

// AttrDelete removes a process-level attribute.
func (p *Process) AttrDelete(keyval int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.processKeyval, keyval)
}
