package mpi

import (
	"reflect"

	"gompi/internal/pml"
)

// Persistent communication requests (MPI_Send_init / MPI_Recv_init /
// MPI_Start / MPI_Startall): a prepared operation that can be started many
// times, the classic optimization for fixed communication patterns such as
// halo exchanges.

// PersistentRequest is a reusable communication operation bound to fixed
// arguments. Start it, complete it with Wait or Test, and start it again
// (the lifecycle in startable.go). It satisfies Request, so WaitAll,
// Waitany and the Test family take it. Like the other startable kinds, it
// issues each round on the communicator's channel, its arguments checked
// once at Init, and reports a round's error through the communicator's
// error handler at Wait or Test.
type PersistentRequest struct {
	lifecycle
	c    *Comm
	op   func(ch *pml.Channel, peer, tag int, buf []byte) *pml.Request // Isend, Issend or Irecv
	buf  []byte
	peer int
	tag  int
	cur  *pml.Request // the active round's request
}

// SendInit prepares a persistent standard-mode send (MPI_Send_init).
func (c *Comm) SendInit(buf []byte, dest, tag int) (*PersistentRequest, error) {
	return c.persistentInit((*pml.Channel).Isend, buf, dest, tag, false)
}

// SsendInit prepares a persistent synchronous-mode send (MPI_Ssend_init).
func (c *Comm) SsendInit(buf []byte, dest, tag int) (*PersistentRequest, error) {
	return c.persistentInit((*pml.Channel).Issend, buf, dest, tag, false)
}

// RecvInit prepares a persistent receive (MPI_Recv_init). src may be
// AnySource and tag AnyTag.
func (c *Comm) RecvInit(buf []byte, src, tag int) (*PersistentRequest, error) {
	return c.persistentInit((*pml.Channel).Irecv, buf, src, tag, true)
}

func (c *Comm) persistentInit(op func(*pml.Channel, int, int, []byte) *pml.Request, buf []byte, peer, tag int, recv bool) (*PersistentRequest, error) {
	if err := c.checkP2P(peer, tag, recv); err != nil {
		return nil, c.errh.invoke(err)
	}
	return &PersistentRequest{c: c, op: op, buf: buf, peer: peer, tag: tag}, nil
}

// Start activates the prepared operation (MPI_Start).
func (r *PersistentRequest) Start() error { return r.c.errh.invoke(r.start(r)) }

// Wait blocks for the active operation (MPI_Wait on a persistent request)
// and makes the request inactive.
func (r *PersistentRequest) Wait() (Status, error) {
	st, err := r.wait(r)
	return st, r.c.errh.invoke(err)
}

// Test polls the active operation, making the request inactive once it
// has completed.
func (r *PersistentRequest) Test() (bool, Status, error) {
	done, st, err := r.test(r)
	return done, st, r.c.errh.invoke(err)
}

// Done returns the completion channel of the active operation, and a
// closed channel on an inactive request.
func (r *PersistentRequest) Done() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != active {
		return closedDone
	}
	return r.cur.Done()
}

// Free releases an inactive request (MPI_Request_free).
func (r *PersistentRequest) Free() error { return r.c.errh.invoke(r.free()) }

func (r *PersistentRequest) arm() { r.cur = r.op(r.c.ch, r.peer, r.tag, r.buf) }

func (r *PersistentRequest) poll() (bool, Status, error) {
	done, st, err := r.cur.Test()
	return done, fromPML(st), err
}

func (r *PersistentRequest) finish() (Status, error) {
	st, err := r.cur.Wait()
	return fromPML(st), err
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
