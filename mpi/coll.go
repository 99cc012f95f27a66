package mpi

import (
	"fmt"
)

// Collective operations. All collectives are implemented over the PML with
// internal (negative) tags sequenced per communicator, so back-to-back
// collectives and overlapping point-to-point traffic cannot cross-match.
//
// Algorithm selection is delegated to the internal/coll framework: the
// component chain chosen through core.Config.Coll (hier/tuned/basic by
// default) picks a shape per call from (communicator size, message size,
// placement), overridable per communicator with gompi_coll_* Info hints.
// This file validates arguments, claims the collective tag window, and
// dispatches; the shapes themselves live in internal/coll.

// checkCount rejects a negative element count: byte lengths computed from
// it would pass every "buffer at least this long" test.
func checkCount(what string, count int) error {
	if count < 0 {
		return fmt.Errorf("%w: %s count %d is negative", ErrBuffer, what, count)
	}
	return nil
}

// checkBlocks validates a vector collective's block list against a buffer
// of n bytes: one (count, displacement) pair per member, none negative,
// every block inside the buffer.
func checkBlocks(what string, counts, displs []int, size, n int) error {
	if len(counts) != size || len(displs) != size {
		return fmt.Errorf("mpi: %s needs %d counts/displs", what, size)
	}
	for i := range counts {
		if counts[i] < 0 || displs[i] < 0 || displs[i] > n || counts[i] > n-displs[i] {
			return fmt.Errorf("%w: %s block %d (%d bytes at %d) is negative or outside the %d-byte buffer",
				ErrBuffer, what, i, counts[i], displs[i], n)
		}
	}
	return nil
}

// Barrier blocks until every member has entered (MPI_Barrier).
func (c *Comm) Barrier() error {
	if err := c.checkLive(); err != nil {
		return c.errh.invoke(err)
	}
	tag := c.nextCollTag()
	return c.errh.invoke(c.barrierWithTag(tag))
}

// Ibarrier starts a nonblocking barrier (MPI_Ibarrier). The returned
// request completes once every member has entered. The QUO quiescence
// pattern tests it, then parks on its Done channel with a bounded wake
// between tests (paper §IV-E). It dispatches through the same framework
// as Barrier, so both paths always agree on the algorithm.
func (c *Comm) Ibarrier() (Request, error) {
	if err := c.checkLive(); err != nil {
		return nil, c.errh.invoke(err)
	}
	tag := c.nextCollTag()
	return startGoRequest(func() error { return c.barrierWithTag(tag) }), nil
}

func (c *Comm) barrierWithTag(tag int) error {
	m, err := c.collModule()
	if err != nil {
		return err
	}
	return m.Barrier(tag)
}

// Bcast broadcasts buf from root to every member (MPI_Bcast).
func (c *Comm) Bcast(buf []byte, root int) error {
	if err := c.checkLive(); err != nil {
		return c.errh.invoke(err)
	}
	if root < 0 || root >= c.Size() {
		return c.errh.invoke(fmt.Errorf("mpi: bcast root %d out of range", root))
	}
	tag := c.nextCollTag()
	return c.errh.invoke(c.bcastWithTag(buf, root, tag))
}

func (c *Comm) bcastWithTag(buf []byte, root, tag int) error {
	m, err := c.collModule()
	if err != nil {
		return err
	}
	return m.Bcast(buf, root, tag)
}

// Reduce combines count elements of datatype dt from every member with op,
// leaving the result in recvBuf at root (MPI_Reduce). recvBuf is ignored at
// non-root members (may be nil).
func (c *Comm) Reduce(sendBuf, recvBuf []byte, count int, dt Datatype, op Op, root int) error {
	if err := c.checkLive(); err != nil {
		return c.errh.invoke(err)
	}
	if root < 0 || root >= c.Size() {
		return c.errh.invoke(fmt.Errorf("mpi: reduce root %d out of range", root))
	}
	if err := checkCount("reduce", count); err != nil {
		return c.errh.invoke(err)
	}
	nbytes := count * dt.Size()
	if len(sendBuf) < nbytes {
		return c.errh.invoke(fmt.Errorf("mpi: reduce send buffer %d < %d bytes", len(sendBuf), nbytes))
	}
	tag := c.nextCollTag()
	return c.errh.invoke(c.reduceWithTag(sendBuf, recvBuf, count, dt, op, root, tag))
}

func (c *Comm) reduceWithTag(sendBuf, recvBuf []byte, count int, dt Datatype, op Op, root, tag int) error {
	nbytes := count * dt.Size()
	if c.Rank() == root && len(recvBuf) < nbytes {
		return fmt.Errorf("mpi: reduce recv buffer %d < %d bytes", len(recvBuf), nbytes)
	}
	m, err := c.collModule()
	if err != nil {
		return err
	}
	// Builtin operations are all commutative; the framework may reorder.
	return m.Reduce(sendBuf, recvBuf, count, dt.Size(), builtinReducer(op, dt), true, root, tag)
}

// Allreduce combines like Reduce but leaves the result at every member
// (MPI_Allreduce). The framework picks recursive doubling for small
// payloads, a bandwidth-optimal ring for large ones, and the node-leader
// hierarchy on multi-node communicators.
func (c *Comm) Allreduce(sendBuf, recvBuf []byte, count int, dt Datatype, op Op) error {
	if err := c.checkLive(); err != nil {
		return c.errh.invoke(err)
	}
	if err := checkCount("allreduce", count); err != nil {
		return c.errh.invoke(err)
	}
	nbytes := count * dt.Size()
	if len(sendBuf) < nbytes {
		return c.errh.invoke(fmt.Errorf("mpi: allreduce send buffer %d < %d bytes", len(sendBuf), nbytes))
	}
	if len(recvBuf) < nbytes {
		return c.errh.invoke(fmt.Errorf("mpi: allreduce recv buffer %d < %d bytes", len(recvBuf), nbytes))
	}
	m, err := c.collModule()
	if err != nil {
		return c.errh.invoke(err)
	}
	tag := c.nextCollTag()
	return c.errh.invoke(m.Allreduce(sendBuf, recvBuf, count, dt.Size(), builtinReducer(op, dt), true, tag))
}

// Allgather concatenates each member's sendBuf into recvBuf at every member
// (MPI_Allgather). Every member must pass equal-sized sendBuf; recvBuf must
// hold size*len(sendBuf) bytes.
func (c *Comm) Allgather(sendBuf, recvBuf []byte) error {
	if err := c.checkLive(); err != nil {
		return c.errh.invoke(err)
	}
	size := c.Size()
	blk := len(sendBuf)
	if len(recvBuf) < size*blk {
		return c.errh.invoke(fmt.Errorf("mpi: allgather recv buffer %d < %d bytes", len(recvBuf), size*blk))
	}
	m, err := c.collModule()
	if err != nil {
		return c.errh.invoke(err)
	}
	tag := c.nextCollTag()
	return c.errh.invoke(m.Allgather(sendBuf, recvBuf[:size*blk], tag))
}

// Gather concentrates each member's sendBuf at root (MPI_Gather). recvBuf
// must hold size*len(sendBuf) bytes at root; it is ignored elsewhere.
// Rooted linear collectives with per-rank buffers stay outside the
// framework (the decision tables have a single shape for them).
func (c *Comm) Gather(sendBuf, recvBuf []byte, root int) error {
	if err := c.checkLive(); err != nil {
		return c.errh.invoke(err)
	}
	rank, size := c.Rank(), c.Size()
	blk := len(sendBuf)
	tag := c.nextCollTag()
	if rank != root {
		return c.errh.invoke(c.sendT(sendBuf, root, tag))
	}
	if len(recvBuf) < size*blk {
		return c.errh.invoke(fmt.Errorf("mpi: gather recv buffer %d < %d bytes", len(recvBuf), size*blk))
	}
	copy(recvBuf[rank*blk:], sendBuf)
	for r := 0; r < size; r++ {
		if r == root {
			continue
		}
		if err := c.recvT(recvBuf[r*blk:r*blk+blk], r, tag); err != nil {
			return c.errh.invoke(err)
		}
	}
	return nil
}

// Scatter distributes size equal blocks of sendBuf from root (MPI_Scatter).
// sendBuf is ignored at non-roots.
func (c *Comm) Scatter(sendBuf, recvBuf []byte, root int) error {
	if err := c.checkLive(); err != nil {
		return c.errh.invoke(err)
	}
	rank, size := c.Rank(), c.Size()
	blk := len(recvBuf)
	tag := c.nextCollTag()
	if rank != root {
		return c.errh.invoke(c.recvT(recvBuf, root, tag))
	}
	if len(sendBuf) < size*blk {
		return c.errh.invoke(fmt.Errorf("mpi: scatter send buffer %d < %d bytes", len(sendBuf), size*blk))
	}
	for r := 0; r < size; r++ {
		if r == root {
			continue
		}
		if err := c.sendT(sendBuf[r*blk:r*blk+blk], r, tag); err != nil {
			return c.errh.invoke(err)
		}
	}
	copy(recvBuf, sendBuf[rank*blk:rank*blk+blk])
	return nil
}

// Alltoall exchanges the i-th block of sendBuf with member i
// (MPI_Alltoall). Both buffers hold size equal blocks of
// len(sendBuf)/size bytes.
func (c *Comm) Alltoall(sendBuf, recvBuf []byte) error {
	if err := c.checkLive(); err != nil {
		return c.errh.invoke(err)
	}
	size := c.Size()
	if len(sendBuf)%size != 0 {
		return c.errh.invoke(fmt.Errorf("mpi: alltoall send buffer %d not divisible by %d", len(sendBuf), size))
	}
	blk := len(sendBuf) / size
	if len(recvBuf) < size*blk {
		return c.errh.invoke(fmt.Errorf("mpi: alltoall recv buffer %d < %d bytes", len(recvBuf), size*blk))
	}
	m, err := c.collModule()
	if err != nil {
		return c.errh.invoke(err)
	}
	tag := c.nextCollTag()
	return c.errh.invoke(m.Alltoall(sendBuf, recvBuf[:size*blk], tag))
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
