package coll

import (
	"sync"
	"sync/atomic"

	"gompi/internal/opal"
)

// Completion-driven progress (DESIGN.md §5c). A started collective — a
// persistent round or a nonblocking per-call collective — has no goroutine
// of its own. advance runs it, called from two places:
//
//   - the caller's goroutine, in Start (and so in Ibarrier, Ibcast and
//     Iallreduce), Progress and Finish — what the mpi requests' Test and
//     Wait call. Finish keeps driving, blocking on the oldest pending step
//     whenever nothing else can move, as run does;
//   - a step's completion hook, when the request of a step issued outside
//     Finish completes. The PML runs hooks on whichever goroutine completes
//     the request: a transport's pump or receive loop, or another rank's
//     goroutine when a BTL delivers inline (sm always, net on a hop that
//     costs nothing).
//
// One driver token per Exec serialises them. Whoever holds it runs advance;
// a hook that finds it held only raises kick, and the holder, once it has
// let the token go, runs advance again if kick was raised. A completion is
// therefore never lost, and advance never re-enters itself for one run,
// although an inline delivery can nest hooks for other runs (other ranks')
// on the same stack — each run at most once.
//
// Start and Finish must take the token. A hook never blocks, but one that
// sends may sleep in a modelled delay (simnet.Delay) while it holds the
// token, so they park on a channel the holder signals as it lets the
// token go, never spin: inside a synctest bubble a spinner is not durably
// blocked, and the clock would never move.

// Notifier is implemented by transport requests that report their own
// completion. Notify installs h to run once when the request completes and
// reports true, or installs nothing and reports false when the request
// has already completed (then the caller's own poll sees it). The hook
// runs with no transport lock held and must not block. A Req without
// Notify still works; its run then moves only when its caller calls
// Progress or Finish.
type Notifier interface {
	Notify(h *opal.Hook) bool
}

// progress is the part of an Exec that runs it: the driver token and the
// outcome of the current round.
type progress struct {
	hook    opal.Hook   // stepDone on this Exec: every step request's hook
	token   atomic.Bool // held by the goroutine running advance
	kick    atomic.Bool // a step completed while the token was held
	parked  atomic.Bool // Start or Finish waits on free for the token
	running bool        // active, as the token holder sees it

	mu     sync.Mutex
	active bool          // a round has started and not yet finished
	err    error         // the outcome of the last finished round
	done   chan struct{} // made by Done, closed when the round finishes
	free   chan struct{} // made on first contention; drop's wake-up for park
}

func newExec(m *Module, s *Schedule, key schedKey, st *runState, entry *compiled) *Exec {
	ex := &Exec{m: m, s: s, op: key.op, algo: key.algo, st: st, entry: entry}
	ex.hook = opal.Hook{Fn: stepDone, Arg: ex}
	return ex
}

// closedDone is the completion channel of a round that has already
// finished.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Start begins one round of a prepared Exec on the caller's goroutine. It
// issues every step it can, and the round then moves on its steps'
// completions and on Progress and Finish, which report its outcome. An
// Exec runs one round at a time, and a one-shot (nonblocking per-call)
// Exec is started once, by the call that made it.
//
//gompilint:noalloc
func (e *Exec) Start() {
	e.m.f.persistentStarts.Add(1)
	e.m.f.stepsRun[e.op].Add(uint64(len(e.s.steps)))
	e.start()
}

// start resets the run state and drives the round once. A hook of the
// previous round's requests (one abandoned when that round failed) may
// still hold the token for a moment; start parks until it lets go.
//
//gompilint:noalloc
func (e *Exec) start() {
	for !e.token.CompareAndSwap(false, true) {
		e.park()
	}
	e.st.x.reset(e.s)
	e.mu.Lock()
	e.active, e.err, e.done = true, nil, nil
	e.mu.Unlock()
	e.running = true
	e.turn()
	e.release()
}

// Progress drives the round once, unless another goroutine is driving it,
// and reports whether it has finished and with what outcome: the engine
// half of MPI_Test.
func (e *Exec) Progress() (bool, error) {
	if e.token.CompareAndSwap(false, true) {
		e.turn()
		e.release()
	}
	return e.outcome()
}

// Finish drives the round to its end on the caller's goroutine and returns
// its outcome: the engine half of MPI_Wait. Holding the token, it blocks
// on the oldest pending step whenever nothing else can move; the hooks of
// completing steps then find the token held and leave the work to it. On
// an idle Exec it returns the last round's outcome at once.
//
//gompilint:noalloc
func (e *Exec) Finish() error {
	for !e.token.CompareAndSwap(false, true) {
		// A hook is running advance on another goroutine.
		if fin, err := e.outcome(); fin {
			return err
		}
		e.park()
	}
	if e.running {
		e.finish(drain(e.m.env.T, e.s, e.st))
	}
	e.drop()
	_, err := e.outcome()
	return err
}

// park blocks until the token's holder lets it go, unless it already has;
// the caller then retries its compare-and-swap. It announces itself in
// parked before it looks at the token, and drop clears the token before
// it looks at parked, so one of the two sees the other. A stale wake-up
// only costs the caller one more retry.
func (e *Exec) park() {
	e.mu.Lock()
	if e.free == nil {
		e.free = make(chan struct{}, 1)
	}
	w := e.free
	e.mu.Unlock()
	e.parked.Store(true)
	if e.token.Load() {
		<-w
	}
}

// drop lets the token go and wakes a parked Start or Finish.
//
//gompilint:noalloc
func (e *Exec) drop() {
	e.token.Store(false)
	if e.parked.Load() && e.parked.CompareAndSwap(true, false) {
		e.mu.Lock()
		w := e.free
		e.mu.Unlock()
		select {
		case w <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
}

// Run executes one round, blocking until it completes: Start, then Finish.
// Safe to call repeatedly (but not concurrently).
//
//gompilint:noalloc
func (e *Exec) Run() error {
	e.Start()
	return e.Finish()
}

// Done returns a channel that is closed when the current round finishes —
// on whichever goroutine finishes it, so a caller can select on it without
// ever calling Progress. It is made on first use in a round, so rounds
// nobody selects on allocate nothing; an idle Exec returns a closed
// channel.
func (e *Exec) Done() <-chan struct{} {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.active {
		return closedDone
	}
	if e.done == nil {
		e.done = make(chan struct{})
	}
	return e.done
}

// outcome reports whether the round has finished and with what error.
func (e *Exec) outcome() (bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return !e.active, e.err
}

// watch gives r the Exec's completion hook; a nil Exec (a blocking run)
// watches nothing.
//
//gompilint:noalloc
func (e *Exec) watch(r Req) {
	if e == nil {
		return
	}
	if n, ok := r.(Notifier); ok {
		n.Notify(&e.hook)
	}
}

// stepDone is the completion hook of every step request a started round
// issues: the trampoline. It raises kick, then drives the round if no
// goroutine holds the token.
//
//gompilint:noalloc
func stepDone(arg any) {
	e := arg.(*Exec)
	e.kick.Store(true)
	if e.token.CompareAndSwap(false, true) {
		e.turn()
		e.release()
	}
}

// release lets the token go, then takes it back and drives again for as
// long as completions arrived while it was held.
//
//gompilint:noalloc
func (e *Exec) release() {
	for {
		e.drop()
		if !e.kick.Load() || !e.token.CompareAndSwap(false, true) {
			return
		}
		e.turn()
	}
}

// turn is one pass of whoever holds the token: it consumes kick, then
// advances the round, if one is in flight, and finishes it when it is
// over.
//
//gompilint:noalloc
func (e *Exec) turn() {
	e.kick.Store(false)
	if !e.running {
		return
	}
	done, err := advance(e.m.env.T, e.s, e.st, e)
	if done || err != nil {
		e.finish(err)
	}
}

// finish ends the round, holding the token: publish the outcome, close
// Done, and hand a one-shot Exec's cleanly finished run state back to its
// cache entry. A state whose run failed is dropped instead, since an
// abandoned receive may still land in its staging.
func (e *Exec) finish(err error) {
	e.running = false
	if e.entry != nil && err == nil {
		e.m.park(e.entry, e.st)
		e.st = nil
	}
	e.mu.Lock()
	e.active, e.err = false, err
	if e.done != nil {
		close(e.done)
	}
	e.mu.Unlock()
}
