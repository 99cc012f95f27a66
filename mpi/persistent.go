package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
)

// Persistent communication requests (MPI_Send_init / MPI_Recv_init /
// MPI_Start / MPI_Startall): a prepared operation that can be started many
// times, the classic optimization for fixed communication patterns such as
// halo exchanges.

// ErrActive is returned when starting an already-active persistent request
// or freeing one mid-flight.
var ErrActive = errors.New("mpi: persistent request is already active")

type persistentKind int

const (
	persistSend persistentKind = iota
	persistSsend
	persistRecv
)

// PersistentRequest is a reusable communication operation bound to fixed
// arguments. Start it, wait for completion, and start it again.
type PersistentRequest struct {
	c    *Comm
	kind persistentKind
	buf  []byte
	peer int
	tag  int

	mu     sync.Mutex
	active Request
}

// SendInit prepares a persistent standard-mode send (MPI_Send_init).
func (c *Comm) SendInit(buf []byte, dest, tag int) (*PersistentRequest, error) {
	if err := c.checkP2P(dest, tag, false); err != nil {
		return nil, c.errh.invoke(err)
	}
	return &PersistentRequest{c: c, kind: persistSend, buf: buf, peer: dest, tag: tag}, nil
}

// SsendInit prepares a persistent synchronous-mode send (MPI_Ssend_init).
func (c *Comm) SsendInit(buf []byte, dest, tag int) (*PersistentRequest, error) {
	if err := c.checkP2P(dest, tag, false); err != nil {
		return nil, c.errh.invoke(err)
	}
	return &PersistentRequest{c: c, kind: persistSsend, buf: buf, peer: dest, tag: tag}, nil
}

// RecvInit prepares a persistent receive (MPI_Recv_init). src may be
// AnySource and tag AnyTag.
func (c *Comm) RecvInit(buf []byte, src, tag int) (*PersistentRequest, error) {
	if err := c.checkP2P(src, tag, true); err != nil {
		return nil, c.errh.invoke(err)
	}
	return &PersistentRequest{c: c, kind: persistRecv, buf: buf, peer: src, tag: tag}, nil
}

// Start activates the prepared operation (MPI_Start). The request must not
// already be active.
func (r *PersistentRequest) Start() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.active != nil {
		if done, _, _ := r.active.Test(); !done {
			return r.c.errh.invoke(ErrActive)
		}
	}
	switch r.kind {
	case persistSend:
		r.active = r.c.Isend(r.buf, r.peer, r.tag)
	case persistSsend:
		r.active = r.c.Issend(r.buf, r.peer, r.tag)
	case persistRecv:
		r.active = r.c.Irecv(r.buf, r.peer, r.tag)
	default:
		return fmt.Errorf("mpi: unknown persistent kind %d", r.kind)
	}
	return nil
}

// Wait blocks for the active operation (MPI_Wait on a persistent request):
// the request returns to the inactive (startable) state.
func (r *PersistentRequest) Wait() (Status, error) {
	r.mu.Lock()
	active := r.active
	r.mu.Unlock()
	if active == nil {
		return Status{}, fmt.Errorf("mpi: persistent request not started")
	}
	return active.Wait()
}

// Test polls the active operation.
func (r *PersistentRequest) Test() (bool, Status, error) {
	r.mu.Lock()
	active := r.active
	r.mu.Unlock()
	if active == nil {
		return false, Status{}, fmt.Errorf("mpi: persistent request not started")
	}
	return active.Test()
}

// closedDone is what an unstarted persistent request reports as its
// completion channel: already closed, so a waiter falls through to the Test
// that reports "not started".
var closedDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Done returns the completion channel of the active operation.
func (r *PersistentRequest) Done() <-chan struct{} {
	r.mu.Lock()
	active := r.active
	r.mu.Unlock()
	if active == nil {
		return closedDone
	}
	return active.Done()
}

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

// WaitAllPersistent waits for a set of persistent requests, returning the
// first error.
func WaitAllPersistent(reqs ...*PersistentRequest) error {
	var first error
	for _, r := range reqs {
		if _, err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Waitany blocks until one of the requests completes and returns its index
// (MPI_Waitany). Nil entries are skipped; if all entries are nil it returns
// Undefined. It selects over the requests' completion channels, so the
// requests that lose the race leave nothing behind.
func Waitany(reqs []Request) (int, Status, error) {
	// A case whose Chan is the zero Value (a nil entry) is never chosen.
	cases := make([]reflect.SelectCase, len(reqs))
	live := false
	for i, r := range reqs {
		cases[i].Dir = reflect.SelectRecv
		if r != nil {
			cases[i].Chan = reflect.ValueOf(r.Done())
			live = true
		}
	}
	if !live {
		return Undefined, Status{}, nil
	}
	i, _, _ := reflect.Select(cases)
	_, st, err := reqs[i].Test()
	return i, st, err
}

// Testall reports whether every request has completed (MPI_Testall). Nil
// entries count as complete.
func Testall(reqs []Request) (bool, error) {
	for _, r := range reqs {
		if r == nil {
			continue
		}
		done, _, err := r.Test()
		if err != nil {
			return false, err
		}
		if !done {
			return false, nil
		}
	}
	return true, nil
}

// Testany polls the requests and returns the index and status of one that
// has completed, or (Undefined, false) if none has (MPI_Testany).
func Testany(reqs []Request) (int, Status, bool, error) {
	for i, r := range reqs {
		if r == nil {
			continue
		}
		done, st, err := r.Test()
		if err != nil {
			return i, st, true, err
		}
		if done {
			return i, st, true, nil
		}
	}
	return Undefined, Status{}, false, nil
}

// Testsome returns the indices of all currently-completed requests
// (MPI_Testsome).
func Testsome(reqs []Request) ([]int, error) {
	var out []int
	for i, r := range reqs {
		if r == nil {
			continue
		}
		done, _, err := r.Test()
		if err != nil {
			return out, err
		}
		if done {
			out = append(out, i)
		}
	}
	return out, nil
}
