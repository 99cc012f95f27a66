package mpi

import (
	"errors"
	"sync"
)

// Startable requests: persistent point-to-point (SendInit, SsendInit,
// RecvInit), persistent collectives (BarrierInit ... AlltoallInit) and
// partitioned transfers (PsendInit, PrecvInit) share one lifecycle. A
// request is born inactive; Start makes it active; Wait, or a Test that
// reports completion, makes it inactive again, ready for the next Start;
// Free, legal only while inactive, retires it. The same (state, call)
// gives the same result for every kind:
//
//	state      Start       Wait, Test, Pready, Parrived   Free
//	inactive   nil         ErrNotStarted                  nil
//	active     ErrActive   nil                            ErrActive
//	freed      ErrFreed    ErrFreed                       ErrFreed
//
// A request stays active until it is completed by Wait or Test, even once
// its operation has finished.

// ErrActive is returned by Start or Free on an active request.
var ErrActive = errors.New("mpi: request is active")

// ErrNotStarted is returned by Wait, Test, Pready or Parrived on an
// inactive request.
var ErrNotStarted = errors.New("mpi: request is not started")

// ErrFreed is returned by every call on a freed request.
var ErrFreed = errors.New("mpi: request is freed")

// Startable is anything MPI_Start applies to: persistent point-to-point
// requests, persistent collectives, and partitioned requests.
type Startable interface {
	Start() error
}

// StartAll starts a set of startable requests (MPI_Startall): persistent
// sends and receives, persistent collectives, and partitioned requests
// compose freely. The loop body allocates nothing; callers who reuse the
// argument slice keep the whole call allocation-free.
//
//gompilint:noalloc
func StartAll(reqs ...Startable) error {
	for _, r := range reqs {
		if err := r.Start(); err != nil {
			return err
		}
	}
	return nil
}

type reqState uint8

const (
	inactive reqState = iota
	active
	freed
)

// round is what one kind of startable request does inside the lifecycle.
// arm and poll run with the lifecycle's mu held; finish runs without it,
// so a round can block without stalling a concurrent Pready.
type round interface {
	arm()                        // issue a new round
	poll() (bool, Status, error) // report whether the round has finished
	finish() (Status, error)     // block until the round has finished
}

// lifecycle holds a startable request's state and applies the table
// above. Each kind embeds one and passes itself as the round; the errors
// it returns are the kind's to hand to its communicator's error handler.
type lifecycle struct {
	mu    sync.Mutex
	state reqState
}

// check returns nil when the request is in state want, and otherwise the
// error the table gives a call that needs want. The caller holds mu.
func (l *lifecycle) check(want reqState) error {
	switch {
	case l.state == want:
		return nil
	case l.state == freed:
		return ErrFreed
	case want == active:
		return ErrNotStarted
	}
	return ErrActive
}

// start arms a round of an inactive request.
//
//gompilint:noalloc
func (l *lifecycle) start(r round) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.check(inactive); err != nil {
		return err
	}
	l.state = active
	r.arm()
	return nil
}

// wait finishes the active round and makes the request inactive, whatever
// the round's outcome: a failed round leaves nothing outstanding, and the
// request may be started again or freed.
//
//gompilint:noalloc
func (l *lifecycle) wait(r round) (st Status, err error) {
	l.mu.Lock()
	err = l.check(active)
	l.mu.Unlock()
	if err != nil {
		return st, err
	}
	st, err = r.finish()
	l.mu.Lock()
	l.state = inactive
	l.mu.Unlock()
	return st, err
}

// test polls the active round and makes the request inactive once it has
// finished.
func (l *lifecycle) test(r round) (bool, Status, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.check(active); err != nil {
		return false, Status{}, err
	}
	done, st, err := r.poll()
	if done {
		l.state = inactive
	}
	return done, st, err
}

// free retires an inactive request.
func (l *lifecycle) free() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.check(inactive); err != nil {
		return err
	}
	l.state = freed
	return nil
}

// closedDone is the completion channel of a request with nothing pending.
var closedDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()
