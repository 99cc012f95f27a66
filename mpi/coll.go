package mpi

import (
	"fmt"

	"gompi/internal/coll"
)

// Collective operations. Every intracommunicator collective is a schedule
// run by the internal/coll engine on internal (negative) tags sequenced per
// communicator, so back-to-back collectives and overlapping point-to-point
// traffic cannot cross-match (user tags are non-negative: checkP2P).
//
// Barrier, Bcast, Reduce, Allreduce, Allgather and Alltoall pick their
// algorithm per call through the framework's component chain (hier/tuned/
// basic by default, overridable per communicator with gompi_coll_* Info
// hints); Gather, Scatter, the vector and prefix forms, ReduceScatterBlock
// and the neighbourhood collectives carry one fixed algorithm each. This
// layer validates arguments — each operation's checks are one check
// function shared by its blocking, I*, *Init and user-op entry points —
// claims the collective tag window, and dispatches.

// firstErr returns the first non-nil error of an argument check list.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkRank rejects a rank outside [0, size): a collective's root or a
// point-to-point peer.
func checkRank(what string, rank, size int) error {
	if rank < 0 || rank >= size {
		return fmt.Errorf("%w: %s %d out of range [0,%d)", ErrRank, what, rank, size)
	}
	return nil
}

// checkCount rejects a negative element count: byte lengths computed from
// it would pass every "buffer at least this long" test.
func checkCount(what string, count int) error {
	if count < 0 {
		return fmt.Errorf("%w: %s count %d is negative", ErrBuffer, what, count)
	}
	return nil
}

// checkLen rejects a buffer shorter than the n bytes a call moves through
// it.
func checkLen(op, which string, buf []byte, n int) error {
	if len(buf) < n {
		return fmt.Errorf("%w: %s %s buffer %d < %d bytes", ErrBuffer, op, which, len(buf), n)
	}
	return nil
}

// checkBlocks validates a vector collective's block list against a buffer
// of n bytes: one (count, displacement) pair per member, none negative,
// every block inside the buffer.
func checkBlocks(what string, counts, displs []int, size, n int) error {
	if len(counts) != size || len(displs) != size {
		return fmt.Errorf("%w: %s needs %d counts/displs", ErrBuffer, what, size)
	}
	for i := range counts {
		if counts[i] < 0 || displs[i] < 0 || displs[i] > n || counts[i] > n-displs[i] {
			return fmt.Errorf("%w: %s block %d (%d bytes at %d) is negative or outside the %d-byte buffer",
				ErrBuffer, what, i, counts[i], displs[i], n)
		}
	}
	return nil
}

// The per-operation checks: each is the one body validating its
// operation's arguments. A buffer only the root touches is checked at the
// root only.

func (c *Comm) checkBcast(root int) error {
	return firstErr(c.checkLive(), checkRank("root", root, c.Size()))
}

func (c *Comm) checkReduce(sendBuf, recvBuf []byte, count int, dt Datatype, root int) error {
	n := count * dt.Size()
	err := firstErr(c.checkLive(), checkRank("root", root, c.Size()), checkCount("reduce", count),
		checkLen("reduce", "send", sendBuf, n))
	if err == nil && c.Rank() == root {
		err = checkLen("reduce", "recv", recvBuf, n)
	}
	return err
}

// checkElementwise covers the operations that fold count elements of
// sendBuf into recvBuf at every member: Allreduce, Scan and Exscan.
func (c *Comm) checkElementwise(op string, sendBuf, recvBuf []byte, count int, dt Datatype) error {
	n := count * dt.Size()
	return firstErr(c.checkLive(), checkCount(op, count),
		checkLen(op, "send", sendBuf, n), checkLen(op, "recv", recvBuf, n))
}

func (c *Comm) checkReduceScatter(sendBuf, recvBuf []byte, count int, dt Datatype) error {
	n := count * dt.Size()
	return firstErr(c.checkLive(), checkCount("reduce_scatter", count),
		checkLen("reduce_scatter", "send", sendBuf, c.Size()*n), checkLen("reduce_scatter", "recv", recvBuf, n))
}

// checkGatherAll covers Allgather and NeighborAllgather: recvBuf holds n
// blocks of len(sendBuf) bytes.
func (c *Comm) checkGatherAll(op string, sendBuf, recvBuf []byte, n int) error {
	return firstErr(c.checkLive(), checkLen(op, "recv", recvBuf, n*len(sendBuf)))
}

// checkExchange covers Alltoall and NeighborAlltoall: sendBuf splits into n
// equal blocks and recvBuf holds as many.
func (c *Comm) checkExchange(op string, sendBuf, recvBuf []byte, n int) error {
	if err := c.checkLive(); err != nil {
		return err
	}
	if len(sendBuf)%n != 0 {
		return fmt.Errorf("%w: %s send buffer %d not divisible by %d", ErrBuffer, op, len(sendBuf), n)
	}
	return checkLen(op, "recv", recvBuf, len(sendBuf))
}

// checkRooted covers Gather and Scatter: the root's buffer of all blocks
// (Gather's recvBuf, Scatter's sendBuf) holds size blocks of blk bytes.
func (c *Comm) checkRooted(op string, all []byte, blk, root int) error {
	err := firstErr(c.checkLive(), checkRank("root", root, c.Size()))
	if err == nil && c.Rank() == root {
		err = checkLen(op, "root", all, c.Size()*blk)
	}
	return err
}

// checkVector covers Gatherv and Scatterv: the root's block list must fit
// the root's buffer; other members' counts and displs are not read.
func (c *Comm) checkVector(op string, counts, displs []int, buf []byte, root int) error {
	err := firstErr(c.checkLive(), checkRank("root", root, c.Size()))
	if err == nil && c.Rank() == root {
		err = checkBlocks(op, counts, displs, c.Size(), len(buf))
	}
	return err
}

func (c *Comm) checkAllgatherv(sendBuf, recvBuf []byte, counts, displs []int) error {
	err := firstErr(c.checkLive(), checkBlocks("allgatherv", counts, displs, c.Size(), len(recvBuf)))
	if err == nil {
		err = checkLen("allgatherv", "send", sendBuf, counts[c.Rank()])
	}
	return err
}

// collBegin is the prologue of every per-call collective once its checks
// ran: the communicator's module and a fresh tag window. A rejected call
// claims no tag window, so members that all reject it stay in step.
func (c *Comm) collBegin(check error) (*coll.Module, int, error) {
	if check != nil {
		return nil, 0, check
	}
	m, err := c.collModule()
	if err != nil {
		return nil, 0, err
	}
	return m, c.nextCollTag(), nil
}

// runColl runs one blocking collective: collBegin, then the schedule, with
// every failure through the error handler.
func (c *Comm) runColl(check error, do func(m *coll.Module, tag int) error) error {
	m, tag, err := c.collBegin(check)
	if err == nil {
		err = do(m, tag)
	}
	return c.errh.invoke(err)
}

// startColl is runColl for the nonblocking forms: start returns the
// schedule's Exec after running its first steps on the caller's goroutine,
// and the request is that Exec. No goroutine backs it: the schedule moves
// on as its steps complete (the PML runs each step's completion hook) and
// when the caller tests or waits, and its Done channel closes when the
// last step completes. A failure the schedule meets is reported by Wait
// or Test.
func (c *Comm) startColl(check error, start func(m *coll.Module, tag int) (*coll.Exec, error)) (Request, error) {
	m, tag, err := c.collBegin(check)
	if err != nil {
		return nil, c.errh.invoke(err)
	}
	ex, err := start(m, tag)
	if err != nil {
		return nil, c.errh.invoke(err)
	}
	return collRequest{ex}, nil
}

// collRequest is the Request of a nonblocking collective.
type collRequest struct{ ex *coll.Exec }

func (q collRequest) Wait() (Status, error) { return Status{}, q.ex.Finish() }

func (q collRequest) Test() (bool, Status, error) {
	done, err := q.ex.Progress()
	return done, Status{}, err
}

func (q collRequest) Done() <-chan struct{} { return q.ex.Done() }

// Barrier blocks until every member has entered (MPI_Barrier).
func (c *Comm) Barrier() error {
	return c.runColl(c.checkLive(), func(m *coll.Module, tag int) error { return m.Barrier(tag) })
}

// Ibarrier starts a nonblocking barrier (MPI_Ibarrier). The returned
// request completes once every member has entered. The QUO quiescence
// pattern tests it, then parks on its Done channel with a bounded wake
// between tests (paper §IV-E); the channel closes when the barrier's last
// step completes, whether or not anyone is testing. It dispatches through
// the same framework as Barrier, so both paths always agree on the
// algorithm, and it spawns no goroutine.
func (c *Comm) Ibarrier() (Request, error) {
	return c.startColl(c.checkLive(), func(m *coll.Module, tag int) (*coll.Exec, error) { return m.Ibarrier(tag) })
}

// Bcast broadcasts buf from root to every member (MPI_Bcast).
func (c *Comm) Bcast(buf []byte, root int) error {
	return c.runColl(c.checkBcast(root), func(m *coll.Module, tag int) error { return m.Bcast(buf, root, tag) })
}

// Reduce combines count elements of datatype dt from every member with op,
// leaving the result in recvBuf at root (MPI_Reduce). recvBuf is ignored at
// non-root members (may be nil).
func (c *Comm) Reduce(sendBuf, recvBuf []byte, count int, dt Datatype, op Op, root int) error {
	return c.runColl(c.checkReduce(sendBuf, recvBuf, count, dt, root), func(m *coll.Module, tag int) error {
		// Builtin operations are all commutative; the framework may reorder.
		return m.Reduce(sendBuf, recvBuf, count, dt.Size(), builtinReducer(op, dt), true, root, tag)
	})
}

// Allreduce combines like Reduce but leaves the result at every member
// (MPI_Allreduce). The framework picks recursive doubling for small
// payloads, a bandwidth-optimal ring for large ones, and the node-leader
// hierarchy on multi-node communicators.
func (c *Comm) Allreduce(sendBuf, recvBuf []byte, count int, dt Datatype, op Op) error {
	return c.runColl(c.checkElementwise("allreduce", sendBuf, recvBuf, count, dt), func(m *coll.Module, tag int) error {
		return m.Allreduce(sendBuf, recvBuf, count, dt.Size(), builtinReducer(op, dt), true, tag)
	})
}

// Allgather concatenates each member's sendBuf into recvBuf at every member
// (MPI_Allgather). Every member must pass equal-sized sendBuf; recvBuf must
// hold size*len(sendBuf) bytes.
func (c *Comm) Allgather(sendBuf, recvBuf []byte) error {
	return c.runColl(c.checkGatherAll("allgather", sendBuf, recvBuf, c.Size()), func(m *coll.Module, tag int) error {
		return m.Allgather(sendBuf, recvBuf, tag)
	})
}

// Gather concentrates each member's sendBuf at root (MPI_Gather): member
// i's block lands at recvBuf[i*len(sendBuf):], so recvBuf must hold
// size*len(sendBuf) bytes at root; it is ignored elsewhere. One fixed
// linear schedule: every member sends straight to the root.
func (c *Comm) Gather(sendBuf, recvBuf []byte, root int) error {
	return c.runColl(c.checkRooted("gather", recvBuf, len(sendBuf), root), func(m *coll.Module, tag int) error {
		return m.Gather(sendBuf, recvBuf, root, tag)
	})
}

// Scatter distributes size equal blocks of sendBuf from root (MPI_Scatter),
// len(recvBuf) bytes each. sendBuf is ignored at non-roots.
func (c *Comm) Scatter(sendBuf, recvBuf []byte, root int) error {
	return c.runColl(c.checkRooted("scatter", sendBuf, len(recvBuf), root), func(m *coll.Module, tag int) error {
		return m.Scatter(sendBuf, recvBuf, root, tag)
	})
}

// Alltoall exchanges the i-th block of sendBuf with member i
// (MPI_Alltoall). Both buffers hold size equal blocks of
// len(sendBuf)/size bytes.
func (c *Comm) Alltoall(sendBuf, recvBuf []byte) error {
	return c.runColl(c.checkExchange("alltoall", sendBuf, recvBuf, c.Size()), func(m *coll.Module, tag int) error {
		return m.Alltoall(sendBuf, recvBuf, tag)
	})
}

// Typed convenience collectives used throughout the benchmarks and
// example applications.

// AllreduceFloat64 reduces a single float64 across the communicator.
func (c *Comm) AllreduceFloat64(v float64, op Op) (float64, error) {
	in := PackFloat64s([]float64{v})
	out := make([]byte, 8)
	if err := c.Allreduce(in, out, 1, Float64, op); err != nil {
		return 0, err
	}
	return UnpackFloat64s(out)[0], nil
}

// AllreduceInt64 reduces a single int64 across the communicator.
func (c *Comm) AllreduceInt64(v int64, op Op) (int64, error) {
	in := PackInt64s([]int64{v})
	out := make([]byte, 8)
	if err := c.Allreduce(in, out, 1, Int64, op); err != nil {
		return 0, err
	}
	return UnpackInt64s(out)[0], nil
}
