package mpi

import (
	"errors"
	"fmt"
	"sync"

	"gompi/internal/coll"
)

// Persistent collectives (MPI 4.0 MPI_Barrier_init and friends): the
// communicator compiles the collective's schedule once, reserves a private
// tag window, and preallocates every staging buffer and the engine state —
// so each Start replays the bound schedule with no decision-table walk, no
// tag sequencing, and no allocation. The classic use is an iterative
// solver running the same allreduce every timestep.
//
// Like all MPI persistent collectives, the *Init calls are collective and
// must be issued in the same order on every member (that is what lets each
// member reserve the same tag window without communicating), arguments
// must stay bound until Free, and at most one round may be active at a
// time.

// ErrCollNotStarted is returned when Wait or Test is applied to a
// persistent collective with no active round.
var ErrCollNotStarted = errors.New("mpi: persistent collective not started")

// ErrCollFreed is returned when a freed persistent collective is reused.
var ErrCollFreed = errors.New("mpi: persistent collective already freed")

// PersistentColl is a startable, reusable collective operation. It
// satisfies Startable, so StartAll composes it with persistent
// point-to-point requests.
type PersistentColl struct {
	c       *Comm
	ex      *coll.Exec
	baseTag int

	mu      sync.Mutex
	active  bool
	freed   bool
	trigger chan struct{}
	done    chan error
}

// collInit is the shared construction path: reserve a tag window, compile
// and bind the schedule, and hand the Exec to a dedicated worker goroutine
// (one per request, living until Free) so Start never spawns.
func (c *Comm) collInit(prep func(m *coll.Module, baseTag int) (*coll.Exec, error)) (*PersistentColl, error) {
	if err := c.checkLive(); err != nil {
		return nil, c.errh.invoke(err)
	}
	m, err := c.collModule()
	if err != nil {
		return nil, c.errh.invoke(err)
	}
	base, err := c.ch.ReservePersistentWindow()
	if err != nil {
		return nil, c.errh.invoke(err)
	}
	ex, err := prep(m, base)
	if err != nil {
		c.ch.ReleasePersistentWindow(base)
		return nil, c.errh.invoke(err)
	}
	p := &PersistentColl{
		c:       c,
		ex:      ex,
		baseTag: base,
		trigger: make(chan struct{}, 1),
		done:    make(chan error, 1),
	}
	go p.worker()
	return p, nil
}

func (p *PersistentColl) worker() {
	for range p.trigger {
		p.done <- p.ex.Run()
	}
}

// Start begins one round (MPI_Start). The request must be inactive. Start
// is the persistent-collective hot path — all setup happened at *Init time,
// so arming a round allocates nothing (the trigger value is the zero-sized
// struct{}{}); TestPersistentCollStartAllocs corroborates the annotation.
//
//gompilint:noalloc
func (p *PersistentColl) Start() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.freed {
		return p.c.errh.invoke(ErrCollFreed)
	}
	if p.active {
		return p.c.errh.invoke(ErrActive)
	}
	p.active = true
	p.trigger <- struct{}{}
	return nil
}

// Wait blocks until the active round completes and rearms the request.
// After an error (for example ErrClassProcFailed when a member died
// mid-round) the request is back in the inactive state: it may be started
// again or freed, and never leaves outstanding internal receives behind.
func (p *PersistentColl) Wait() error {
	p.mu.Lock()
	if p.freed {
		p.mu.Unlock()
		return p.c.errh.invoke(ErrCollFreed)
	}
	if !p.active {
		p.mu.Unlock()
		return p.c.errh.invoke(ErrCollNotStarted)
	}
	p.mu.Unlock()
	err := <-p.done
	p.mu.Lock()
	p.active = false
	p.mu.Unlock()
	return p.c.errh.invoke(err)
}

// Test polls the active round, rearming the request on completion.
func (p *PersistentColl) Test() (bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.freed {
		return false, p.c.errh.invoke(ErrCollFreed)
	}
	if !p.active {
		return false, p.c.errh.invoke(ErrCollNotStarted)
	}
	select {
	case err := <-p.done:
		p.active = false
		return true, p.c.errh.invoke(err)
	default:
		return false, nil
	}
}

// Free releases the request and its tag window (MPI_Request_free). Freeing
// an active round is an error; Free calls must mirror the Init order on
// every member so the recycled windows keep lining up.
func (p *PersistentColl) Free() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.freed {
		return p.c.errh.invoke(ErrCollFreed)
	}
	if p.active {
		return p.c.errh.invoke(ErrActive)
	}
	p.freed = true
	close(p.trigger)
	p.c.ch.ReleasePersistentWindow(p.baseTag)
	return nil
}

// Algorithm returns the algorithm the schedule was compiled for.
func (p *PersistentColl) Algorithm() string { return p.ex.Algorithm() }

// Steps returns the compiled schedule's step count.
func (p *PersistentColl) Steps() int { return p.ex.Steps() }

// BarrierInit prepares a persistent barrier (MPI_Barrier_init).
func (c *Comm) BarrierInit() (*PersistentColl, error) {
	return c.collInit(func(m *coll.Module, baseTag int) (*coll.Exec, error) {
		return m.PrepareBarrier(baseTag)
	})
}

// BcastInit prepares a persistent broadcast of buf from root
// (MPI_Bcast_init). buf stays bound until Free.
func (c *Comm) BcastInit(buf []byte, root int) (*PersistentColl, error) {
	if root < 0 || root >= c.Size() {
		return nil, c.errh.invoke(fmt.Errorf("mpi: bcast root %d out of range", root))
	}
	return c.collInit(func(m *coll.Module, baseTag int) (*coll.Exec, error) {
		return m.PrepareBcast(buf, root, baseTag)
	})
}

// ReduceInit prepares a persistent reduction to root (MPI_Reduce_init).
func (c *Comm) ReduceInit(sendBuf, recvBuf []byte, count int, dt Datatype, op Op, root int) (*PersistentColl, error) {
	if root < 0 || root >= c.Size() {
		return nil, c.errh.invoke(fmt.Errorf("mpi: reduce root %d out of range", root))
	}
	if err := checkCount("reduce", count); err != nil {
		return nil, c.errh.invoke(err)
	}
	nbytes := count * dt.Size()
	if len(sendBuf) < nbytes {
		return nil, c.errh.invoke(fmt.Errorf("mpi: reduce send buffer %d < %d bytes", len(sendBuf), nbytes))
	}
	if c.Rank() == root && len(recvBuf) < nbytes {
		return nil, c.errh.invoke(fmt.Errorf("mpi: reduce recv buffer %d < %d bytes", len(recvBuf), nbytes))
	}
	return c.collInit(func(m *coll.Module, baseTag int) (*coll.Exec, error) {
		return m.PrepareReduce(sendBuf, recvBuf, count, dt.Size(), builtinReducer(op, dt), true, root, baseTag)
	})
}

// AllreduceInit prepares a persistent allreduce (MPI_Allreduce_init).
func (c *Comm) AllreduceInit(sendBuf, recvBuf []byte, count int, dt Datatype, op Op) (*PersistentColl, error) {
	if err := checkCount("allreduce", count); err != nil {
		return nil, c.errh.invoke(err)
	}
	nbytes := count * dt.Size()
	if len(sendBuf) < nbytes {
		return nil, c.errh.invoke(fmt.Errorf("mpi: allreduce send buffer %d < %d bytes", len(sendBuf), nbytes))
	}
	if len(recvBuf) < nbytes {
		return nil, c.errh.invoke(fmt.Errorf("mpi: allreduce recv buffer %d < %d bytes", len(recvBuf), nbytes))
	}
	return c.collInit(func(m *coll.Module, baseTag int) (*coll.Exec, error) {
		return m.PrepareAllreduce(sendBuf, recvBuf, count, dt.Size(), builtinReducer(op, dt), true, baseTag)
	})
}

// AllgatherInit prepares a persistent allgather (MPI_Allgather_init).
func (c *Comm) AllgatherInit(sendBuf, recvBuf []byte) (*PersistentColl, error) {
	size := c.Size()
	blk := len(sendBuf)
	if len(recvBuf) < size*blk {
		return nil, c.errh.invoke(fmt.Errorf("mpi: allgather recv buffer %d < %d bytes", len(recvBuf), size*blk))
	}
	return c.collInit(func(m *coll.Module, baseTag int) (*coll.Exec, error) {
		return m.PrepareAllgather(sendBuf, recvBuf[:size*blk], baseTag)
	})
}

// AlltoallInit prepares a persistent alltoall (MPI_Alltoall_init).
func (c *Comm) AlltoallInit(sendBuf, recvBuf []byte) (*PersistentColl, error) {
	size := c.Size()
	if len(sendBuf)%size != 0 {
		return nil, c.errh.invoke(fmt.Errorf("mpi: alltoall send buffer %d not divisible by %d", len(sendBuf), size))
	}
	blk := len(sendBuf) / size
	if len(recvBuf) < size*blk {
		return nil, c.errh.invoke(fmt.Errorf("mpi: alltoall recv buffer %d < %d bytes", len(recvBuf), size*blk))
	}
	return c.collInit(func(m *coll.Module, baseTag int) (*coll.Exec, error) {
		return m.PrepareAlltoall(sendBuf, recvBuf[:size*blk], baseTag)
	})
}
