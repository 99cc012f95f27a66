// Package coll is the collective-communication framework: the analogue of
// Open MPI's coll MCA framework (coll/tuned, coll/basic, coll/han). Every
// collective operation has several registered algorithm variants; a
// component chain — selected through the opal MCA registry exactly like
// the BTLs — decides per call which variant runs, keyed on communicator
// size, message size, and the job placement map:
//
//	basic  one fixed, simple algorithm per operation
//	tuned  size-based decision tables over every flat algorithm
//	hier   hierarchical (node-leader) variants: intra-node phases ride the
//	       sm BTL fast path, only node leaders exchange over the fabric
//
// Since the schedule refactor, an algorithm is an *emitter*: it compiles
// the collective for one rank into a Schedule — a DAG of typed steps with
// explicit dependencies (schedule.go) — and the engine in engine.go runs
// it over an NBTransport, issuing every step whose dependencies have
// completed. Modules cache compiled schedules per call shape together with
// one parked run state (staging + engine state), so a warm per-call
// collective allocates nothing; Prepare* returns an Exec that owns its run
// state outright — the substrate of the mpi persistent collectives.
//
// The package is transport-agnostic: schedules move bytes through the
// NBTransport interface (implemented by mpi.Comm over the PML), so they can
// also run over an in-memory mesh in tests. Emitters never allocate tags:
// the caller passes the base of a 16-tag window and steps use fixed
// negative offsets inside it (tag, tag-1, ...), matching the
// communicator's collective-tag discipline.
package coll

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"gompi/internal/opal"
)

// Transport is the blocking half of NBTransport: it moves bytes between the
// members of one communicator. Ranks are communicator ranks. Implementations
// must provide MPI point-to-point semantics: per-(peer, tag) ordering and
// blocking completion. The engine itself only starts operations; the
// blocking calls serve the sequential reference executor the tests compare
// it against.
type Transport interface {
	Rank() int
	Size() int
	Send(buf []byte, dest, tag int) error
	Recv(buf []byte, src, tag int) error
	Sendrecv(sendBuf []byte, dest int, recvBuf []byte, src, tag int) error
}

// ReduceFunc combines count elements: inout[i] = f(inout[i], in[i]).
// It must be associative; commutativity is declared per call and gates
// the reordering algorithms (ring, hier).
type ReduceFunc func(inout, in []byte, count int) error

// Op identifies a collective operation handled by the framework.
type Op int

// Framework-dispatched operations. Vector collectives (gatherv et al.)
// stay outside the framework: their per-rank counts defeat uniform
// decision tables.
const (
	Barrier Op = iota
	Bcast
	Reduce
	Allreduce
	Allgather
	Alltoall
	numOps
)

func (o Op) String() string {
	switch o {
	case Barrier:
		return "barrier"
	case Bcast:
		return "bcast"
	case Reduce:
		return "reduce"
	case Allreduce:
		return "allreduce"
	case Allgather:
		return "allgather"
	case Alltoall:
		return "alltoall"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Ops lists every framework-dispatched operation.
func Ops() []Op { return []Op{Barrier, Bcast, Reduce, Allreduce, Allgather, Alltoall} }

// Env is what the decision chain sees of one communicator: the transport
// plus the node hosting each communicator rank (nil when placement is
// unknown, which the hierarchical emitters treat as a single node).
type Env struct {
	T     NBTransport
	Nodes []int
}

// Per-operation emitter signatures. An emitter appends this rank's steps
// for one call shape to the builder; buffers arrive as symbolic refs so
// composed shapes can rebase phases. Reduction emitters only reference dst
// at the root; allreduce writes it everywhere.
type (
	barrierEmitter   func(b *builder, sh Shape)
	bcastEmitter     func(b *builder, sh Shape, payload bufRef, root int)
	reduceEmitter    func(b *builder, sh Shape, src, dst bufRef, count, elt, root int)
	allreduceEmitter func(b *builder, sh Shape, src, dst bufRef, count, elt int)
	allgatherEmitter func(b *builder, sh Shape, blk int)
	alltoallEmitter  func(b *builder, sh Shape, blk int)
)

// The algorithm registries. To add a variant: implement the emitter in
// algorithms.go (or hier.go for topology-aware shapes), add it here under
// a unique name, and teach a component's decide function when to pick it
// (or select it per-communicator with an Info hint).
var (
	barrierEmitters = map[string]barrierEmitter{
		"binomial":      barrierBinomialEmit,
		"dissemination": barrierDisseminationEmit,
		"hier":          hierBarrierEmit,
	}
	bcastEmitters = map[string]bcastEmitter{
		"binomial":          bcastBinomialEmit,
		"scatter_allgather": bcastScatterAllgatherEmit,
		"pipeline":          bcastPipelineEmit,
		"hier":              hierBcastEmit,
	}
	reduceEmitters = map[string]reduceEmitter{
		"binomial": reduceBinomialEmit,
		"linear":   reduceLinearEmit,
	}
	allreduceEmitters = map[string]allreduceEmitter{
		"recursive_doubling": allreduceRDEmit,
		"ring":               allreduceRingEmit,
		"reduce_bcast":       allreduceReduceBcastEmit,
		"hier":               hierAllreduceEmit,
	}
	allgatherEmitters = map[string]allgatherEmitter{
		"ring":  allgatherRingEmit,
		"bruck": allgatherBruckEmit,
	}
	alltoallEmitters = map[string]alltoallEmitter{
		"pairwise": alltoallPairwiseEmit,
		"bruck":    alltoallBruckEmit,
	}
)

// reordering names the algorithms that combine operands in non-ascending
// rank order and therefore require a commutative reduction.
var reordering = map[string]bool{"ring": true, "hier": true}

// Algorithms returns the sorted names of every registered variant of op.
func Algorithms(op Op) []string {
	var names []string
	switch op {
	case Barrier:
		for n := range barrierEmitters {
			names = append(names, n)
		}
	case Bcast:
		for n := range bcastEmitters {
			names = append(names, n)
		}
	case Reduce:
		for n := range reduceEmitters {
			names = append(names, n)
		}
	case Allreduce:
		for n := range allreduceEmitters {
			names = append(names, n)
		}
	case Allgather:
		for n := range allgatherEmitters {
			names = append(names, n)
		}
	case Alltoall:
		for n := range alltoallEmitters {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

func knownAlgorithm(op Op, name string) bool {
	for _, n := range Algorithms(op) {
		if n == name {
			return true
		}
	}
	return false
}

// component is one selectable decision policy. decide returns the
// algorithm name to run or "" to pass the call to the next component in
// priority order. The choice must be a pure function of communicator-wide
// values: every member runs decide independently and all must agree.
type component struct {
	name   string
	decide func(op Op, e Env, size, bytes int, commutative bool) string
}

// Framework is one process's collective framework: the selected component
// chain plus per-algorithm invocation counters. One Framework serves every
// communicator of an instance cycle.
type Framework struct {
	comps []component
	trace *opal.Trace // may be nil (tracing disabled at the source)

	persistentStarts atomic.Uint64
	cacheHits        atomic.Uint64
	stepsRun         [numOps]atomic.Uint64

	mu     sync.Mutex
	counts map[string]*atomic.Uint64 // "op/algo" -> calls
}

// NewFramework builds a framework from MCA-selected component names in
// priority order. Unknown names error: the component was registered with
// the MCA but this package does not implement it.
func NewFramework(names []string, trace *opal.Trace) (*Framework, error) {
	f := &Framework{trace: trace, counts: make(map[string]*atomic.Uint64)}
	for _, n := range names {
		switch n {
		case "basic":
			f.comps = append(f.comps, component{name: "basic", decide: basicDecide})
		case "tuned":
			f.comps = append(f.comps, component{name: "tuned", decide: tunedDecide})
		case "hier":
			f.comps = append(f.comps, component{name: "hier", decide: hierDecide})
		default:
			return nil, fmt.Errorf("coll: no implementation for component %q", n)
		}
	}
	if len(f.comps) == 0 {
		return nil, fmt.Errorf("coll: empty component chain")
	}
	return f, nil
}

// Components returns the selected component names in priority order.
func (f *Framework) Components() []string {
	out := make([]string, len(f.comps))
	for i, c := range f.comps {
		out[i] = c.name
	}
	return out
}

// Snapshot returns the framework counters: per-algorithm invocation counts
// keyed "op/algo", cumulative executed step counts keyed "steps/op", and
// the "persistent_starts" / "schedule_cache_hits" totals.
func (f *Framework) Snapshot() map[string]uint64 {
	f.mu.Lock()
	out := make(map[string]uint64, len(f.counts)+int(numOps)+2)
	for k, v := range f.counts {
		out[k] = v.Load()
	}
	f.mu.Unlock()
	for _, op := range Ops() {
		if v := f.stepsRun[op].Load(); v > 0 {
			out["steps/"+op.String()] = v
		}
	}
	out["persistent_starts"] = f.persistentStarts.Load()
	out["schedule_cache_hits"] = f.cacheHits.Load()
	return out
}

// counter returns the invocation counter of one (operation, algorithm)
// pair. Modules resolve it once per compiled schedule, so counting a call
// is one atomic add — no lock, no key to build.
func (f *Framework) counter(op Op, algo string) *atomic.Uint64 {
	key := op.String() + "/" + algo
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.counts[key]
	if c == nil {
		c = new(atomic.Uint64)
		f.counts[key] = c
	}
	return c
}

// record counts one call of a compiled schedule (per-call dispatch or a
// persistent prepare) and, when tracing is on, logs the decision.
func (f *Framework) record(key schedKey, e *compiled, comp, comm string, size, bytes int) {
	e.calls.Add(1)
	f.stepsRun[key.op].Add(uint64(e.s.Steps()))
	if f.trace != nil {
		f.trace.Logf("coll", "%s on %s (size=%d bytes=%d) -> %s/%s (%d steps)",
			key.op, comm, size, bytes, comp, key.algo, e.s.Steps())
	}
}

// schedKey identifies one compiled call shape: everything the emitted
// schedule depends on besides the buffers and the tag base.
type schedKey struct {
	op    Op
	algo  string
	bytes int // bcast payload / allgather block / alltoall block
	count int
	elt   int
	root  int
}

// compiled is one entry of a module's schedule cache: the immutable
// schedule, the framework counter its calls are charged to, and at most one
// idle run state left behind by the last per-call execution that finished
// cleanly (DESIGN.md §5c, "Run-state ownership").
type compiled struct {
	s     *Schedule
	calls *atomic.Uint64
	idle  *runState // guarded by Module.mu
}

// maxParkedStage caps the staging bytes one module keeps parked across all
// its cache entries. A run state that would exceed it is dropped when its
// call returns, so a sweep over many large shapes costs what it did before
// states were parked instead of pinning every arena it ever used.
const maxParkedStage = 1 << 20

// Module is the framework's view of one communicator: the environment the
// schedules run in, the per-communicator algorithm hints (MPI info keys),
// and the compiled-schedule cache with its parked run states. Everything a
// module holds goes with it when the communicator is freed.
type Module struct {
	f    *Framework
	env  Env
	comm string // communicator name, for the trace

	mu     sync.Mutex
	hints  map[Op]string
	cache  map[schedKey]*compiled
	parked int // staging bytes of the idle run states in cache
}

// NewModule binds the framework to one communicator. nodes[i] is the node
// hosting communicator rank i (nil when unknown); comm names the
// communicator in trace events.
func (f *Framework) NewModule(t NBTransport, nodes []int, comm string) *Module {
	return &Module{
		f: f, env: Env{T: t, Nodes: nodes}, comm: comm,
		hints: make(map[Op]string),
		cache: make(map[schedKey]*compiled),
	}
}

// SetHint forces an algorithm for one operation on this communicator,
// overriding the component chain. Hints must be set identically on every
// member (the MPI_Comm_set_info collective discipline). An empty name
// clears the hint; unknown names error.
func (m *Module) SetHint(op Op, algo string) error {
	if algo == "" {
		m.mu.Lock()
		delete(m.hints, op)
		m.mu.Unlock()
		return nil
	}
	if !knownAlgorithm(op, algo) {
		return fmt.Errorf("coll: %s has no algorithm %q (have %v)", op, algo, Algorithms(op))
	}
	m.mu.Lock()
	m.hints[op] = algo
	m.mu.Unlock()
	return nil
}

// Hint returns the forced algorithm for op ("" when unset).
func (m *Module) Hint(op Op) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hints[op]
}

// pick resolves the algorithm for one call: a per-communicator hint wins
// (unless it reorders operands and the reduction is not commutative — then
// it is ignored rather than silently corrupting the result), otherwise the
// component chain is walked in priority order.
func (m *Module) pick(op Op, bytes int, commutative bool) (compName, algo string) {
	if h := m.Hint(op); h != "" && (commutative || !reordering[h]) {
		return "info", h
	}
	for _, c := range m.f.comps {
		if a := c.decide(op, m.env, m.env.T.Size(), bytes, commutative); a != "" {
			return c.name, a
		}
	}
	// Unreachable with a well-formed chain (basic and tuned always answer),
	// but a pure-hier selection can decline: fall back to the simplest shape.
	return "fallback", fallbackAlgo(op)
}

func fallbackAlgo(op Op) string {
	switch op {
	case Barrier:
		return "binomial"
	case Bcast:
		return "binomial"
	case Reduce:
		return "binomial"
	case Allreduce:
		return "reduce_bcast"
	case Allgather:
		return "ring"
	case Alltoall:
		return "pairwise"
	}
	return ""
}

func (m *Module) shape() Shape {
	return Shape{Rank: m.env.T.Rank(), Size: m.env.T.Size(), Nodes: m.env.Nodes}
}

// emitFor runs the emitter selected by key against a fresh builder.
func emitFor(b *builder, sh Shape, key schedKey) error {
	n := key.count * key.elt
	switch key.op {
	case Barrier:
		barrierEmitters[key.algo](b, sh)
	case Bcast:
		bcastEmitters[key.algo](b, sh, bufRef{kind: bufRecv, n: key.bytes}, key.root)
	case Reduce:
		reduceEmitters[key.algo](b, sh,
			bufRef{kind: bufSend, n: n}, bufRef{kind: bufRecv, n: n}, key.count, key.elt, key.root)
	case Allreduce:
		allreduceEmitters[key.algo](b, sh,
			bufRef{kind: bufSend, n: n}, bufRef{kind: bufRecv, n: n}, key.count, key.elt)
	case Allgather:
		allgatherEmitters[key.algo](b, sh, key.bytes)
	case Alltoall:
		alltoallEmitters[key.algo](b, sh, key.bytes)
	default:
		return fmt.Errorf("coll: no emitter for %v", key.op)
	}
	return nil
}

// compile emits and compiles the schedule for a call shape the cache has
// not seen and inserts it. When two callers race on the same new shape the
// first insert wins, so an entry (and whatever it has parked) is never
// replaced.
func (m *Module) compile(key schedKey) (*compiled, error) {
	b := newBuilder()
	if err := emitFor(b, m.shape(), key); err != nil {
		return nil, err
	}
	s, err := b.compile()
	if err != nil {
		return nil, fmt.Errorf("coll: %v/%s: %w", key.op, key.algo, err)
	}
	e := &compiled{s: s, calls: m.f.counter(key.op, key.algo)}
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev := m.cache[key]; prev != nil {
		return prev, nil
	}
	m.cache[key] = e
	return e, nil
}

// checkout returns the compiled schedule for one call shape together with
// a run state the caller owns: the entry's parked state when it is idle, a
// fresh one when the shape is new or its state is out with another call
// (two same-shape nonblocking collectives in flight). Hitting the cache is
// the common case for iterative applications: the emit+compile pipeline
// and every allocation are skipped.
func (m *Module) checkout(key schedKey) (*compiled, *runState, error) {
	m.mu.Lock()
	e := m.cache[key]
	var st *runState
	if e != nil && e.idle != nil {
		st, e.idle = e.idle, nil
		m.parked -= len(st.bind.stage)
	}
	m.mu.Unlock()
	if e != nil {
		m.f.cacheHits.Add(1)
	} else {
		var err error
		if e, err = m.compile(key); err != nil {
			return nil, nil, err
		}
	}
	if st == nil {
		st = newRunState(e.s)
	}
	return e, st, nil
}

// park returns a run state whose run completed cleanly to its cache entry,
// unless the entry already holds one or the module's staging cap is spent;
// then the state is simply dropped.
func (m *Module) park(e *compiled, st *runState) {
	st.rebind(binding{}) // do not pin the caller's buffers
	m.mu.Lock()
	if e.idle == nil && m.parked+len(st.bind.stage) <= maxParkedStage {
		e.idle = st
		m.parked += len(st.bind.stage)
	}
	m.mu.Unlock()
}

// dispatch runs one per-call collective: check out the shape's schedule
// and run state, bind the caller's buffers, execute, park the state again.
// A warm call allocates nothing (TestPerCallCollAllocs). A run that errors
// never parks its state: the engine abandons outstanding requests on error,
// and those may still write into that staging arena.
//
//gompilint:noalloc
func (m *Module) dispatch(key schedKey, comp string, bytes int, bind binding) error {
	e, st, err := m.checkout(key)
	if err != nil {
		return err
	}
	m.f.record(key, e, comp, m.comm, m.env.T.Size(), bytes)
	st.rebind(bind)
	if err := run(m.env.T, e.s, st); err != nil {
		return err
	}
	m.park(e, st)
	return nil
}

// Barrier runs the selected barrier algorithm.
func (m *Module) Barrier(tag int) error {
	comp, algo := m.pick(Barrier, 0, true)
	return m.dispatch(schedKey{op: Barrier, algo: algo}, comp, 0, binding{baseTag: tag})
}

// Bcast broadcasts buf from root.
func (m *Module) Bcast(buf []byte, root, tag int) error {
	comp, algo := m.pick(Bcast, len(buf), true)
	return m.dispatch(schedKey{op: Bcast, algo: algo, bytes: len(buf), root: root}, comp, len(buf),
		binding{recv: buf, baseTag: tag})
}

// Reduce combines count elements of elt bytes into recvBuf at root.
func (m *Module) Reduce(sendBuf, recvBuf []byte, count, elt int, rf ReduceFunc, commutative bool, root, tag int) error {
	comp, algo := m.pick(Reduce, count*elt, commutative)
	return m.dispatch(schedKey{op: Reduce, algo: algo, count: count, elt: elt, root: root}, comp, count*elt,
		binding{send: sendBuf, recv: recvBuf, rf: rf, baseTag: tag})
}

// Allreduce combines count elements of elt bytes into recvBuf everywhere.
func (m *Module) Allreduce(sendBuf, recvBuf []byte, count, elt int, rf ReduceFunc, commutative bool, tag int) error {
	comp, algo := m.pick(Allreduce, count*elt, commutative)
	return m.dispatch(schedKey{op: Allreduce, algo: algo, count: count, elt: elt}, comp, count*elt,
		binding{send: sendBuf, recv: recvBuf, rf: rf, baseTag: tag})
}

// Allgather concatenates each member's sendBuf into recvBuf everywhere.
func (m *Module) Allgather(sendBuf, recvBuf []byte, tag int) error {
	comp, algo := m.pick(Allgather, len(sendBuf), true)
	return m.dispatch(schedKey{op: Allgather, algo: algo, bytes: len(sendBuf)}, comp, len(sendBuf),
		binding{send: sendBuf, recv: recvBuf, baseTag: tag})
}

// Alltoall exchanges block i of sendBuf with member i.
func (m *Module) Alltoall(sendBuf, recvBuf []byte, tag int) error {
	size := m.env.T.Size()
	blk := 0
	if size > 0 {
		blk = len(sendBuf) / size
	}
	comp, algo := m.pick(Alltoall, blk, true)
	return m.dispatch(schedKey{op: Alltoall, algo: algo, bytes: blk}, comp, blk,
		binding{send: sendBuf, recv: recvBuf, baseTag: tag})
}

// Exec is a prepared (persistent) collective: a compiled schedule plus a
// checked-out run state that is never parked again — bound to fixed
// buffers and a reserved tag base for as long as the Exec lives. Run
// executes it synchronously through the same engine entry point as the
// per-call path; every Run performs zero allocations and zero
// decision-table work. The mpi layer wraps Exec in the startable
// persistent-request surface.
type Exec struct {
	m    *Module
	s    *Schedule
	op   Op
	algo string
	st   *runState
}

// prepare compiles, records, and binds one persistent call shape.
func (m *Module) prepare(key schedKey, comp string, bind binding) (*Exec, error) {
	e, st, err := m.checkout(key)
	if err != nil {
		return nil, err
	}
	m.f.record(key, e, comp, m.comm, m.env.T.Size(), key.bytes)
	st.rebind(bind)
	return &Exec{m: m, s: e.s, op: key.op, algo: key.algo, st: st}, nil
}

// PrepareBarrier binds a persistent barrier on the given tag window.
func (m *Module) PrepareBarrier(tag int) (*Exec, error) {
	comp, algo := m.pick(Barrier, 0, true)
	return m.prepare(schedKey{op: Barrier, algo: algo}, comp, binding{baseTag: tag})
}

// PrepareBcast binds a persistent broadcast of buf from root.
func (m *Module) PrepareBcast(buf []byte, root, tag int) (*Exec, error) {
	comp, algo := m.pick(Bcast, len(buf), true)
	return m.prepare(schedKey{op: Bcast, algo: algo, bytes: len(buf), root: root}, comp,
		binding{recv: buf, baseTag: tag})
}

// PrepareReduce binds a persistent reduction into recvBuf at root.
func (m *Module) PrepareReduce(sendBuf, recvBuf []byte, count, elt int, rf ReduceFunc, commutative bool, root, tag int) (*Exec, error) {
	comp, algo := m.pick(Reduce, count*elt, commutative)
	return m.prepare(schedKey{op: Reduce, algo: algo, count: count, elt: elt, root: root}, comp,
		binding{send: sendBuf, recv: recvBuf, rf: rf, baseTag: tag})
}

// PrepareAllreduce binds a persistent allreduce.
func (m *Module) PrepareAllreduce(sendBuf, recvBuf []byte, count, elt int, rf ReduceFunc, commutative bool, tag int) (*Exec, error) {
	comp, algo := m.pick(Allreduce, count*elt, commutative)
	return m.prepare(schedKey{op: Allreduce, algo: algo, count: count, elt: elt}, comp,
		binding{send: sendBuf, recv: recvBuf, rf: rf, baseTag: tag})
}

// PrepareAllgather binds a persistent allgather.
func (m *Module) PrepareAllgather(sendBuf, recvBuf []byte, tag int) (*Exec, error) {
	comp, algo := m.pick(Allgather, len(sendBuf), true)
	return m.prepare(schedKey{op: Allgather, algo: algo, bytes: len(sendBuf)}, comp,
		binding{send: sendBuf, recv: recvBuf, baseTag: tag})
}

// PrepareAlltoall binds a persistent alltoall.
func (m *Module) PrepareAlltoall(sendBuf, recvBuf []byte, tag int) (*Exec, error) {
	size := m.env.T.Size()
	blk := 0
	if size > 0 {
		blk = len(sendBuf) / size
	}
	comp, algo := m.pick(Alltoall, blk, true)
	return m.prepare(schedKey{op: Alltoall, algo: algo, bytes: blk}, comp,
		binding{send: sendBuf, recv: recvBuf, baseTag: tag})
}

// Op returns the prepared operation.
func (e *Exec) Op() Op { return e.op }

// Algorithm returns the algorithm the schedule was compiled from.
func (e *Exec) Algorithm() string { return e.algo }

// Steps returns the number of steps in the bound schedule.
func (e *Exec) Steps() int { return e.s.Steps() }

// Run executes the prepared schedule once, blocking until it completes.
// Safe to call repeatedly (but not concurrently); each call is one
// triggered instance of the persistent collective.
func (e *Exec) Run() error {
	e.m.f.persistentStarts.Add(1)
	e.m.f.stepsRun[e.op].Add(uint64(len(e.s.steps)))
	return run(e.m.env.T, e.s, e.st)
}
