package pml

import (
	"errors"
	"sync"
	"sync/atomic"

	"gompi/internal/opal"
)

// ErrTruncate is reported when an incoming message is longer than the
// posted receive buffer (MPI_ERR_TRUNCATE).
var ErrTruncate = errors.New("pml: message truncated: receive buffer too small")

// ErrClosed is reported on requests outstanding when the engine shuts down.
var ErrClosed = errors.New("pml: engine closed")

// ErrPeerFailed is reported on operations pending toward a process the
// runtime has declared dead (the ULFM-style MPI_ERR_PROC_FAILED), so
// survivors unblock instead of hanging in receives that can never
// complete — a prerequisite of the paper's §II-C roll-forward model.
var ErrPeerFailed = errors.New("pml: peer process failed")

// ErrRevoked is reported on every operation — pending and future — of a
// communicator that any member revoked (the ULFM-style MPI_ERR_REVOKED).
// Revocation is how a rank that observed a process failure interrupts
// survivor-to-survivor operations that would otherwise block forever on a
// peer that already abandoned the communicator.
var ErrRevoked = errors.New("pml: communicator revoked")

// AnySource matches a message from any rank (MPI_ANY_SOURCE).
const AnySource = -1

// AnyTag matches any application tag, i.e. any tag >= 0 (MPI_ANY_TAG).
// Negative tags are reserved for internal (collective) traffic and are
// never matched by AnyTag.
const AnyTag = -2147483648

// Status describes a completed receive (source and tag are comm-relative).
type Status struct {
	Source int
	Tag    int
	Count  int // bytes received
}

// Request is the completion handle for a nonblocking operation.
//
// A request is born with no channel (DESIGN.md §5b). Completion is one mark in
// hook, which Test reads without a lock. A Wait that has to park borrows a
// one-token wake channel from the request's engine and installs it under
// mu; complete takes it under mu and sends the token once mu is released.
// Done makes a closable channel only for select-based callers, and moves
// a parked Wait onto it, so both wake. Statuses are stored narrow (tags
// and ranks travel as 32 bits on the wire) to keep a request at 64 bytes.
//
// The status of a send request is undefined in MPI; here every send
// reports an empty Status, whatever its protocol.
type Request struct {
	mu   sync.Mutex
	hook atomic.Pointer[opal.Hook] // nil or Notify's hook while pending; &fired once complete
	// wake is nil, a parked Wait's one-token channel (cap 1), or Done's
	// closable channel (cap 0). complete takes it.
	wake  chan struct{}
	eng   *Engine // lends parked Waits their wake channels; nil on requests born complete
	err   error
	src   int32
	tag   int32
	count int
}

// fired marks a completed request in its hook field. One field for both
// keeps a request at 64 bytes.
var fired opal.Hook

func newRequest(e *Engine) *Request {
	return &Request{eng: e}
}

// closedChan is what Done returns for an already-completed request.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// completedRequest returns a request born complete (an operation refused
// before it started).
func completedRequest(err error) *Request {
	r := &Request{err: err}
	r.hook.Store(&fired)
	return r
}

// sent is the request of every Isend that finished at injection: one
// shared, pre-completed value, never written after init, so the eager send
// path allocates nothing.
var sent = completedRequest(nil)

// complete publishes the outcome, wakes every waiter, and then runs the
// completion hook, if one is installed. Every caller holds no PML lock, so
// the hook runs with none held too.
//
// The outcome is written before the fired mark is stored, and both happen
// under r.mu: a Notify that reports false (already complete) is always
// followed by a Test or Done that sees the completion. After the unlock
// complete touches only its locals — the wake channel it took and the
// hook — so a blocking Recv may recycle the request the moment its Wait
// returns.
//
//gompilint:noalloc
func (r *Request) complete(st Status, err error) {
	guardComplete(r)
	r.mu.Lock()
	h := r.hook.Load()
	if h == &fired {
		r.mu.Unlock()
		return
	}
	r.src, r.tag, r.count, r.err = int32(st.Source), int32(st.Tag), st.Count, err
	w := r.wake
	r.wake = nil
	r.hook.Store(&fired)
	r.mu.Unlock()
	if raceYield != nil {
		raceYield("complete")
	}
	switch {
	case w == nil:
	case cap(w) == 0:
		close(w) // Done's channel: every select and every Wait on it wakes
	default:
		w <- struct{}{} // the one parked Wait's token
	}
	if h != nil {
		h.Fn(h.Arg)
	}
}

// status reads the published outcome; the caller has seen the fired mark.
func (r *Request) status() Status {
	return Status{Source: int(r.src), Tag: int(r.tag), Count: r.count}
}

// Notify installs h as the request's completion hook and reports true. If
// the request has already completed it installs nothing and reports false:
// the caller handles the completion itself. So a completion is seen
// exactly once, by the hook or by the caller. The hook runs once, on
// whichever goroutine completes the request, after the outcome is
// published and with no PML lock held. It may therefore run on another
// rank's goroutine (the sm BTL delivers inline on the sender's), and it
// must not block.
//
//gompilint:noalloc
func (r *Request) Notify(h *opal.Hook) bool {
	if r.hook.Load() == &fired {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hook.Load() == &fired {
		return false
	}
	r.hook.Store(h)
	return true
}

// Wait blocks until the operation completes and returns its status.
func (r *Request) Wait() (Status, error) {
	if r.hook.Load() != &fired {
		r.park()
	}
	return r.status(), r.err
}

// park blocks on a channel until the request is complete. It never spins
// and never sleeps on a lock: inside a synctest bubble only a goroutine
// blocked on a channel made in the bubble is durably blocked.
func (r *Request) park() {
	r.mu.Lock()
	for r.hook.Load() != &fired {
		w := r.wake
		switch {
		case w == nil:
			// The token channel is exclusively this Wait's: either complete
			// or a Done that takes the request over sends its one token.
			w = r.eng.takeWake()
			r.wake = w
			r.mu.Unlock()
			<-w
			r.eng.putWake(w)
		case cap(w) == 0:
			r.mu.Unlock()
			<-w
		default:
			// Another Wait is parked on its token channel: move both onto
			// a closable channel, which complete closes.
			c := make(chan struct{})
			r.wake = c
			r.mu.Unlock()
			w <- struct{}{}
			<-c
		}
		r.mu.Lock()
	}
	r.mu.Unlock()
}

// Test reports whether the operation has completed, without blocking.
func (r *Request) Test() (bool, Status, error) {
	if r.hook.Load() != &fired {
		return false, Status{}, nil
	}
	return true, r.status(), r.err
}

// Done returns a channel closed once the operation has completed, for
// select-based waiting. The channel is made on first use; a Wait parked
// on its token channel is moved onto it.
func (r *Request) Done() <-chan struct{} {
	if r.hook.Load() == &fired {
		return closedChan
	}
	r.mu.Lock()
	if r.hook.Load() == &fired {
		r.mu.Unlock()
		return closedChan
	}
	w := r.wake
	if w != nil && cap(w) == 0 {
		r.mu.Unlock()
		return w
	}
	c := make(chan struct{})
	r.wake = c
	r.mu.Unlock()
	if w != nil {
		w <- struct{}{} // kick the parked Wait over to c
	}
	return c
}

// recycle readies a blocking receive's request for the next call. The
// caller's Wait has returned, so complete has stored the fired mark and
// touches nothing but r.mu from here on; mu is left alone, and the next
// user's Lock orders behind that Unlock.
func (r *Request) recycle() {
	r.hook.Store(nil)
	r.err = nil
	r.src, r.tag, r.count = 0, 0, 0
}

// maxSpareWakes bounds an engine's cache of idle wake channels: the number
// of Waits parked at once on one engine's requests.
const maxSpareWakes = 16

// takeWake lends a parked Wait a one-token channel from the engine's
// cache. Channels never leave the engine, and so never leave the job (and
// the synctest bubble) that made them. A nil engine makes a fresh one.
func (e *Engine) takeWake() chan struct{} {
	if e != nil {
		e.wakeMu.Lock()
		if n := len(e.wakes); n > 0 {
			w := e.wakes[n-1]
			e.wakes = e.wakes[:n-1]
			e.wakeMu.Unlock()
			return w
		}
		e.wakeMu.Unlock()
	}
	return make(chan struct{}, 1)
}

// putWake returns a drained wake channel to the engine's cache.
func (e *Engine) putWake(w chan struct{}) {
	if e == nil {
		return
	}
	e.wakeMu.Lock()
	if len(e.wakes) < maxSpareWakes {
		e.wakes = append(e.wakes, w)
	}
	e.wakeMu.Unlock()
}

// WaitAll waits for every request and returns the first error encountered.
func WaitAll(reqs ...*Request) error {
	var first error
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if _, err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
