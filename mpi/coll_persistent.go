package mpi

import "gompi/internal/coll"

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

// PersistentColl is a startable, reusable collective operation, with the
// lifecycle of every startable request (startable.go). It satisfies
// Startable, so StartAll composes it with persistent point-to-point
// requests. It has no goroutine: Start runs the round's first steps on the
// caller, and the round moves on from there as its steps complete
// (completion-driven progress, internal/coll) and on Test and Wait.
type PersistentColl struct {
	lifecycle
	c       *Comm
	ex      *coll.Exec
	baseTag int
}

// collInit is the shared construction path: after the operation's checks
// (the ones its blocking form runs), reserve a tag window, then compile
// and bind the schedule into an Exec that owns its run state until Free.
func (c *Comm) collInit(check error, prep func(m *coll.Module, baseTag int) (*coll.Exec, error)) (*PersistentColl, error) {
	if check != nil {
		return nil, c.errh.invoke(check)
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
	return &PersistentColl{c: c, ex: ex, baseTag: base}, nil
}

// Start begins one round (MPI_Start). Start is the persistent-collective
// hot path: all setup happened at *Init time, so it issues the round's
// first steps on the caller's goroutine and allocates nothing
// (TestPersistentCollStartAllocs). A failure the round meets is reported
// by Wait or Test.
//
//gompilint:noalloc
func (p *PersistentColl) Start() error { return p.c.errh.invoke(p.start(p)) }

// Wait drives the active round to completion on the caller's goroutine and
// makes the request inactive. After an error (for example
// ErrClassProcFailed when a member died mid-round) the request may be
// started again or freed, and never leaves outstanding internal receives
// behind.
//
//gompilint:noalloc
func (p *PersistentColl) Wait() error {
	_, err := p.wait(p)
	return p.c.errh.invoke(err)
}

// Test drives the active round once and reports whether it has finished,
// making the request inactive when it has.
func (p *PersistentColl) Test() (bool, error) {
	done, _, err := p.test(p)
	return done, p.c.errh.invoke(err)
}

// Done returns a channel closed once the active round has finished, on
// whichever goroutine finished it; an inactive request returns a closed
// channel. The round still has to be completed with Wait or Test, which
// then return at once.
func (p *PersistentColl) Done() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state != active {
		return closedDone
	}
	return p.ex.Done()
}

// Free releases an inactive request and its tag window
// (MPI_Request_free). Free calls must mirror the Init order on every
// member so the recycled windows keep lining up.
func (p *PersistentColl) Free() error {
	if err := p.free(); err != nil {
		return p.c.errh.invoke(err)
	}
	p.c.ch.ReleasePersistentWindow(p.baseTag)
	return nil
}

func (p *PersistentColl) arm() { p.ex.Start() }

func (p *PersistentColl) poll() (bool, Status, error) {
	done, err := p.ex.Progress()
	return done, Status{}, err
}

func (p *PersistentColl) finish() (Status, error) { return Status{}, p.ex.Finish() }

// Algorithm returns the algorithm the schedule was compiled for.
func (p *PersistentColl) Algorithm() string { return p.ex.Algorithm() }

// Steps returns the compiled schedule's step count.
func (p *PersistentColl) Steps() int { return p.ex.Steps() }

// BarrierInit prepares a persistent barrier (MPI_Barrier_init).
func (c *Comm) BarrierInit() (*PersistentColl, error) {
	return c.collInit(c.checkLive(), func(m *coll.Module, baseTag int) (*coll.Exec, error) {
		return m.PrepareBarrier(baseTag)
	})
}

// BcastInit prepares a persistent broadcast of buf from root
// (MPI_Bcast_init). buf stays bound until Free.
func (c *Comm) BcastInit(buf []byte, root int) (*PersistentColl, error) {
	return c.collInit(c.checkBcast(root), func(m *coll.Module, baseTag int) (*coll.Exec, error) {
		return m.PrepareBcast(buf, root, baseTag)
	})
}

// ReduceInit prepares a persistent reduction to root (MPI_Reduce_init).
func (c *Comm) ReduceInit(sendBuf, recvBuf []byte, count int, dt Datatype, op Op, root int) (*PersistentColl, error) {
	return c.collInit(c.checkReduce(sendBuf, recvBuf, count, dt, root), func(m *coll.Module, baseTag int) (*coll.Exec, error) {
		return m.PrepareReduce(sendBuf, recvBuf, count, dt.Size(), builtinReducer(op, dt), true, root, baseTag)
	})
}

// AllreduceInit prepares a persistent allreduce (MPI_Allreduce_init).
func (c *Comm) AllreduceInit(sendBuf, recvBuf []byte, count int, dt Datatype, op Op) (*PersistentColl, error) {
	return c.collInit(c.checkElementwise("allreduce", sendBuf, recvBuf, count, dt), func(m *coll.Module, baseTag int) (*coll.Exec, error) {
		return m.PrepareAllreduce(sendBuf, recvBuf, count, dt.Size(), builtinReducer(op, dt), true, baseTag)
	})
}

// AllgatherInit prepares a persistent allgather (MPI_Allgather_init).
func (c *Comm) AllgatherInit(sendBuf, recvBuf []byte) (*PersistentColl, error) {
	return c.collInit(c.checkGatherAll("allgather", sendBuf, recvBuf, c.Size()), func(m *coll.Module, baseTag int) (*coll.Exec, error) {
		return m.PrepareAllgather(sendBuf, recvBuf, baseTag)
	})
}

// AlltoallInit prepares a persistent alltoall (MPI_Alltoall_init).
func (c *Comm) AlltoallInit(sendBuf, recvBuf []byte) (*PersistentColl, error) {
	return c.collInit(c.checkExchange("alltoall", sendBuf, recvBuf, c.Size()), func(m *coll.Module, baseTag int) (*coll.Exec, error) {
		return m.PrepareAlltoall(sendBuf, recvBuf, baseTag)
	})
}
