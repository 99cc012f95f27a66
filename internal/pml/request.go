package pml

import (
	"errors"
	"sync"

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
type Request struct {
	mu     sync.Mutex
	done   chan struct{}
	hook   *opal.Hook // nil or Notify's hook while pending; &fired once complete
	err    error
	status Status
}

// fired marks a completed request in its hook field. One field for both
// keeps a request at 64 bytes: a completed flag beside the hook pointer
// would move every request, two per eager message, into the next size
// class.
var fired opal.Hook

func newRequest() *Request {
	return &Request{done: make(chan struct{})}
}

// closedChan is shared by every already-completed request, so the eager
// send path allocates one Request and nothing else.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// completedRequest returns an already-finished request (eager sends).
func completedRequest(st Status, err error) *Request {
	return &Request{done: closedChan, hook: &fired, status: st, err: err}
}

// complete publishes the outcome, wakes every waiter, and then runs the
// completion hook, if one is installed. Every caller holds no PML lock, so
// the hook runs with none held too.
//
// The fired mark and the closed done channel are one event under r.mu: a
// Notify that reports false (already complete) is always followed by a
// Test or Done that sees the completion. Were done closed after the
// unlock, a Notify landing in between would install no hook while the
// caller's Test still read pending, and no one would drive the caller's
// schedule again.
//
//gompilint:noalloc
func (r *Request) complete(st Status, err error) {
	r.mu.Lock()
	h := r.hook
	if h == &fired {
		r.mu.Unlock()
		return
	}
	r.hook = &fired
	r.status = st
	r.err = err
	close(r.done)
	r.mu.Unlock()
	if raceYield != nil {
		raceYield("complete")
	}
	if h != nil {
		h.Fn(h.Arg)
	}
}

// Notify installs h as the request's completion hook and reports true. If
// the request has already completed it installs nothing and reports false:
// the caller handles the completion itself. So a completion is seen
// exactly once, by the hook or by the caller. The hook runs once, on
// whichever goroutine completes the request, after the outcome is
// published and with no PML lock held. It may therefore run on another
// rank's goroutine (the sm BTL delivers inline on the sender's), and it
// must not block.
func (r *Request) Notify(h *opal.Hook) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hook == &fired {
		return false
	}
	r.hook = h
	return true
}

// Wait blocks until the operation completes and returns its status.
func (r *Request) Wait() (Status, error) {
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status, r.err
}

// Test reports whether the operation has completed, without blocking.
func (r *Request) Test() (bool, Status, error) {
	select {
	case <-r.done:
		r.mu.Lock()
		defer r.mu.Unlock()
		return true, r.status, r.err
	default:
		return false, Status{}, nil
	}
}

// Done exposes the completion channel for select-based waiting.
func (r *Request) Done() <-chan struct{} { return r.done }

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
