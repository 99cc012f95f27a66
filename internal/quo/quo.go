// Package quo reimplements the parts of the QUO runtime library (Gutiérrez
// et al., IPDPS'17) that the paper's 2MESH evaluation exercises (§IV-E).
//
// QUO ("status quo") helps coupled MPI+X applications whose phases want
// different process/thread mixes: during a threaded phase, one process per
// node expands to a thread team while its node-mates quiesce; QUO_barrier
// is the performance-critical quiescence point.
//
// Two quiescence mechanisms are provided, matching the paper's comparison:
//
//   - BarrierNative: QUO 1.3's low-overhead mechanism — a blocking barrier
//     over the node-local communicator (processes park without polling);
//   - BarrierSessionsIbarrier: the prototype's replacement — a
//     sessions-aware MPI_Barrier emulated by testing an MPI_Ibarrier and
//     parking between tests, the low-perturbation emulation the paper
//     describes. The park stands in for nanosleep but ends on whichever
//     comes first, the barrier's completion or the poll interval, so a
//     rank leaves the barrier when it completes rather than on the next
//     clock tick. A plain sleep cannot do that in Go: with no goroutine
//     spinning, the runtime's netpoller waits in whole milliseconds, so
//     every sub-millisecond sleep lasts about 1 ms.
package quo

import (
	"fmt"
	"sync"
	"time"

	"gompi/mpi"
)

// BarrierMode selects the quiescence mechanism.
type BarrierMode int

const (
	// BarrierNative is QUO 1.3's low-overhead blocking quiesce.
	BarrierNative BarrierMode = iota
	// BarrierSessionsIbarrier is the sessions-aware MPI_Ibarrier +
	// test-and-park emulation used by the prototype (§IV-E).
	BarrierSessionsIbarrier
)

func (m BarrierMode) String() string {
	if m == BarrierNative {
		return "native"
	}
	return "sessions-ibarrier"
}

// DefaultPollInterval bounds how long a quiescing rank parks between
// Ibarrier tests: the nanosleep of §IV-E, and the knob that trades how often
// an idle rank wakes against perturbation of the running thread team. It
// does not delay the exit — a parked rank also wakes when the barrier
// completes. Go's timers round sub-millisecond waits up to about 1 ms on an
// otherwise idle runtime, so the wakes are in practice that far apart.
const DefaultPollInterval = 200 * time.Microsecond

// Policy selects which processes on a node participate in a threaded phase.
type Policy int

const (
	// PolicyOnePerNode selects the lowest-ranked process on each node.
	PolicyOnePerNode Policy = iota
	// PolicyAll selects every process (no quiescence).
	PolicyAll
)

// Context is a QUO context bound to a set of MPI processes.
type Context struct {
	p    *mpi.Process
	sess *mpi.Session // owned session (sessions mode only)
	comm *mpi.Comm    // full-context communicator (owned)
	node *mpi.Comm    // node-local communicator (owned)
	mode BarrierMode
	poll time.Duration

	mu        sync.Mutex
	bindStack []string
	barriers  int
	polls     int
	freed     bool
}

// Create builds a QUO context from an existing communicator (QUO_create in
// its classic form, used by the baseline executable). The communicator is
// duplicated internally.
func Create(p *mpi.Process, comm *mpi.Comm) (*Context, error) {
	dup, err := comm.Dup()
	if err != nil {
		return nil, err
	}
	return finishCreate(p, nil, dup, BarrierNative)
}

// CreateWithSession is the sessions-enabled QUO_create the paper's
// prototype integration adds: the context initializes its own MPI session,
// builds its communicator from the mpi://world process set, and uses the
// sessions-aware Ibarrier quiesce. This is the ~20-SLOC change that made
// 2MESH sessions-enabled without touching the application (§IV-E).
func CreateWithSession(p *mpi.Process) (*Context, error) {
	sess, err := p.SessionInit(nil, mpi.ErrorsReturn())
	if err != nil {
		return nil, err
	}
	grp, err := sess.GroupFromPset(mpi.PsetWorld)
	if err != nil {
		_ = sess.Finalize()
		return nil, err
	}
	comm, err := sess.CommCreateFromGroup(grp, "quo.ctx", nil, nil)
	if err != nil {
		_ = sess.Finalize()
		return nil, err
	}
	return finishCreate(p, sess, comm, BarrierSessionsIbarrier)
}

func finishCreate(p *mpi.Process, sess *mpi.Session, comm *mpi.Comm, mode BarrierMode) (*Context, error) {
	// Node-local communicator: split by node, keyed by rank. Node identity
	// comes from the shared pset size pattern: ranks on one node share a
	// PMIx server; we derive the node id from the job map via local ranks.
	nodeID := nodeOf(p)
	node, err := comm.Split(nodeID, comm.Rank())
	if err != nil {
		_ = comm.Free()
		if sess != nil {
			_ = sess.Finalize()
		}
		return nil, err
	}
	return &Context{p: p, sess: sess, comm: comm, node: node, mode: mode, poll: DefaultPollInterval}, nil
}

func nodeOf(p *mpi.Process) int {
	locals := p.Instance().Client().LocalRanks()
	// All local ranks share the same lowest rank: use it as the node color.
	return locals[0]
}

// Mode returns the context's quiescence mechanism.
func (c *Context) Mode() BarrierMode { return c.mode }

// SetPollInterval adjusts the longest park between Ibarrier tests
// (testing/benchmarks). A non-positive d means no periodic wake: a
// quiescing rank parks until the barrier completes.
func (c *Context) SetPollInterval(d time.Duration) { c.poll = d }

// NumQids returns the number of QUO processes on this node (QUO_nqids).
func (c *Context) NumQids() int { return c.node.Size() }

// ID returns the node-local QUO id of the calling process (QUO_id).
func (c *Context) ID() int { return c.node.Rank() }

// Rank returns the process's rank in the context-wide communicator.
func (c *Context) Rank() int { return c.comm.Rank() }

// Size returns the context-wide communicator size.
func (c *Context) Size() int { return c.comm.Size() }

// Comm exposes the context-wide communicator.
func (c *Context) Comm() *mpi.Comm { return c.comm }

// NodeComm exposes the node-local communicator.
func (c *Context) NodeComm() *mpi.Comm { return c.node }

// Selected reports whether this process participates in a threaded phase
// under the given policy (QUO_auto_distrib simplified).
func (c *Context) Selected(policy Policy) bool {
	switch policy {
	case PolicyAll:
		return true
	case PolicyOnePerNode:
		return c.node.Rank() == 0
	}
	return false
}

// BindPush records a binding-policy push (QUO_bind_push). The simulated
// fabric has no real affinity, so this tracks the stack for API fidelity.
func (c *Context) BindPush(policy string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bindStack = append(c.bindStack, policy)
}

// BindPop undoes the last BindPush (QUO_bind_pop).
func (c *Context) BindPop() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.bindStack) == 0 {
		return fmt.Errorf("quo: bind stack empty")
	}
	c.bindStack = c.bindStack[:len(c.bindStack)-1]
	return nil
}

// BindDepth returns the binding stack depth.
func (c *Context) BindDepth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.bindStack)
}

// Barrier is QUO_barrier: the node-scoped quiescence point. Under
// BarrierNative it blocks directly; under BarrierSessionsIbarrier it starts
// an MPI_Ibarrier and loops test, count a poll, park — until a test finds
// the barrier complete. Each park ends when the barrier completes or the
// poll interval elapses, whichever is first.
func (c *Context) Barrier() error {
	c.mu.Lock()
	c.barriers++
	c.mu.Unlock()
	if c.mode == BarrierNative {
		return c.node.Barrier()
	}
	req, err := c.node.Ibarrier()
	if err != nil {
		return err
	}
	for {
		done, _, err := req.Test()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		c.mu.Lock()
		c.polls++
		c.mu.Unlock()
		c.park(req.Done())
	}
}

// park blocks until done closes or, with a positive poll interval, until
// the interval elapses.
func (c *Context) park(done <-chan struct{}) {
	if c.poll <= 0 {
		<-done
		return
	}
	t := time.NewTimer(c.poll)
	defer t.Stop()
	select {
	case <-done:
	case <-t.C:
	}
}

// Stats reports how many barriers were executed and, in sessions mode, how
// many Ibarrier polls they required.
func (c *Context) Stats() (barriers, polls int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.barriers, c.polls
}

// Free releases the context (QUO_free): communicators and, in sessions
// mode, the owned session.
func (c *Context) Free() error {
	c.mu.Lock()
	if c.freed {
		c.mu.Unlock()
		return fmt.Errorf("quo: context already freed")
	}
	c.freed = true
	c.mu.Unlock()
	if err := c.node.Free(); err != nil {
		return err
	}
	if err := c.comm.Free(); err != nil {
		return err
	}
	if c.sess != nil {
		return c.sess.Finalize()
	}
	return nil
}
