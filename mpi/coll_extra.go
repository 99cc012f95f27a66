package mpi

import (
	"fmt"
)

// Additional collectives: prefix reductions, reduce-scatter, vector
// variants, and nonblocking forms. All follow the same internal-tag
// sequencing discipline as coll.go.

// Scan computes the inclusive prefix reduction: member i receives
// op(sendBuf_0, ..., sendBuf_i) (MPI_Scan). Linear chain algorithm.
func (c *Comm) Scan(sendBuf, recvBuf []byte, count int, dt Datatype, op Op) error {
	if err := c.checkLive(); err != nil {
		return c.errh.invoke(err)
	}
	if err := checkCount("scan", count); err != nil {
		return c.errh.invoke(err)
	}
	nbytes := count * dt.Size()
	if len(sendBuf) < nbytes || len(recvBuf) < nbytes {
		return c.errh.invoke(fmt.Errorf("mpi: scan buffers too small for %d x %s", count, dt))
	}
	tag := c.nextCollTag()
	rank, size := c.Rank(), c.Size()
	copy(recvBuf[:nbytes], sendBuf[:nbytes])
	if rank > 0 {
		prev := make([]byte, nbytes)
		if err := c.recvT(prev, rank-1, tag); err != nil {
			return c.errh.invoke(err)
		}
		// recvBuf = prev op mine (prefix order: earlier ranks first).
		if err := reduce(op, dt, prev, recvBuf[:nbytes], count); err != nil {
			return c.errh.invoke(err)
		}
		copy(recvBuf[:nbytes], prev)
	}
	if rank < size-1 {
		if err := c.sendT(recvBuf[:nbytes], rank+1, tag); err != nil {
			return c.errh.invoke(err)
		}
	}
	return nil
}

// Exscan computes the exclusive prefix reduction: member i receives
// op(sendBuf_0, ..., sendBuf_{i-1}); member 0's recvBuf is left untouched
// (MPI_Exscan).
func (c *Comm) Exscan(sendBuf, recvBuf []byte, count int, dt Datatype, op Op) error {
	if err := c.checkLive(); err != nil {
		return c.errh.invoke(err)
	}
	if err := checkCount("exscan", count); err != nil {
		return c.errh.invoke(err)
	}
	nbytes := count * dt.Size()
	if len(sendBuf) < nbytes || len(recvBuf) < nbytes {
		return c.errh.invoke(fmt.Errorf("mpi: exscan buffers too small for %d x %s", count, dt))
	}
	tag := c.nextCollTag()
	rank, size := c.Rank(), c.Size()
	// Running prefix including my contribution, forwarded down the chain.
	acc := make([]byte, nbytes)
	copy(acc, sendBuf[:nbytes])
	if rank > 0 {
		prev := make([]byte, nbytes)
		if err := c.recvT(prev, rank-1, tag); err != nil {
			return c.errh.invoke(err)
		}
		copy(recvBuf[:nbytes], prev)
		// Forwarded accumulator is the inclusive prefix, ordered
		// prefix-first to match Scan for non-commutative ops.
		copy(acc, prev)
		if err := reduce(op, dt, acc, sendBuf[:nbytes], count); err != nil {
			return c.errh.invoke(err)
		}
	}
	if rank < size-1 {
		if err := c.sendT(acc, rank+1, tag); err != nil {
			return c.errh.invoke(err)
		}
	}
	return nil
}

// ReduceScatterBlock reduces size*count elements across all members and
// scatters one count-element block to each (MPI_Reduce_scatter_block):
// member i receives elements [i*count, (i+1)*count) of the reduction.
func (c *Comm) ReduceScatterBlock(sendBuf, recvBuf []byte, count int, dt Datatype, op Op) error {
	if err := c.checkLive(); err != nil {
		return c.errh.invoke(err)
	}
	if err := checkCount("reduce_scatter", count); err != nil {
		return c.errh.invoke(err)
	}
	size := c.Size()
	nbytes := count * dt.Size()
	if len(sendBuf) < size*nbytes {
		return c.errh.invoke(fmt.Errorf("mpi: reduce_scatter send buffer %d < %d bytes", len(sendBuf), size*nbytes))
	}
	if len(recvBuf) < nbytes {
		return c.errh.invoke(fmt.Errorf("mpi: reduce_scatter recv buffer %d < %d bytes", len(recvBuf), nbytes))
	}
	// Reduce the full vector to rank 0, then scatter blocks.
	var full []byte
	if c.Rank() == 0 {
		full = make([]byte, size*nbytes)
	}
	rtag := c.nextCollTag()
	if err := c.reduceWithTag(sendBuf, full, size*count, dt, op, 0, rtag); err != nil {
		return c.errh.invoke(err)
	}
	return c.Scatter(full, recvBuf[:nbytes], 0)
}

// Allgatherv concatenates variable-sized blocks from every member into
// recvBuf at every member (MPI_Allgatherv). counts[i] is the byte length
// contributed by member i; displs[i] its offset in recvBuf.
func (c *Comm) Allgatherv(sendBuf, recvBuf []byte, counts, displs []int) error {
	if err := c.checkLive(); err != nil {
		return c.errh.invoke(err)
	}
	size := c.Size()
	if err := checkBlocks("allgatherv", counts, displs, size, len(recvBuf)); err != nil {
		return c.errh.invoke(err)
	}
	if len(sendBuf) < counts[c.Rank()] {
		return c.errh.invoke(fmt.Errorf("mpi: allgatherv send buffer %d < count %d", len(sendBuf), counts[c.Rank()]))
	}
	tag := c.nextCollTag()
	rank := c.Rank()
	copy(recvBuf[displs[rank]:displs[rank]+counts[rank]], sendBuf)
	if size == 1 {
		return nil
	}
	right := (rank + 1) % size
	left := (rank - 1 + size) % size
	for i := 0; i < size-1; i++ {
		sendBlk := (rank - i + size) % size
		recvBlk := (rank - i - 1 + size) % size
		if err := c.sendrecvT(
			recvBuf[displs[sendBlk]:displs[sendBlk]+counts[sendBlk]], right,
			recvBuf[displs[recvBlk]:displs[recvBlk]+counts[recvBlk]], left, tag); err != nil {
			return c.errh.invoke(err)
		}
	}
	return nil
}

// Gatherv concentrates variable-sized blocks at root (MPI_Gatherv).
func (c *Comm) Gatherv(sendBuf, recvBuf []byte, counts, displs []int, root int) error {
	if err := c.checkLive(); err != nil {
		return c.errh.invoke(err)
	}
	size, rank := c.Size(), c.Rank()
	tag := c.nextCollTag()
	if rank != root {
		return c.errh.invoke(c.sendT(sendBuf, root, tag))
	}
	if err := checkBlocks("gatherv", counts, displs, size, len(recvBuf)); err != nil {
		return c.errh.invoke(err)
	}
	copy(recvBuf[displs[rank]:displs[rank]+counts[rank]], sendBuf)
	for r := 0; r < size; r++ {
		if r == root {
			continue
		}
		if err := c.recvT(recvBuf[displs[r]:displs[r]+counts[r]], r, tag); err != nil {
			return c.errh.invoke(err)
		}
	}
	return nil
}

// Scatterv distributes variable-sized blocks from root (MPI_Scatterv).
func (c *Comm) Scatterv(sendBuf []byte, counts, displs []int, recvBuf []byte, root int) error {
	if err := c.checkLive(); err != nil {
		return c.errh.invoke(err)
	}
	size, rank := c.Size(), c.Rank()
	tag := c.nextCollTag()
	if rank != root {
		return c.errh.invoke(c.recvT(recvBuf, root, tag))
	}
	if err := checkBlocks("scatterv", counts, displs, size, len(sendBuf)); err != nil {
		return c.errh.invoke(err)
	}
	for r := 0; r < size; r++ {
		if r == root {
			continue
		}
		if err := c.sendT(sendBuf[displs[r]:displs[r]+counts[r]], r, tag); err != nil {
			return c.errh.invoke(err)
		}
	}
	copy(recvBuf, sendBuf[displs[rank]:displs[rank]+counts[rank]])
	return nil
}

// Iallreduce is the nonblocking form of Allreduce (MPI_Iallreduce). The
// internal tag window is claimed at call time, so members may overlap it
// with other traffic as long as collective call order stays consistent.
// It dispatches through the same framework module as Allreduce, so the
// nonblocking path cannot diverge from the algorithm the blocking path
// would select.
func (c *Comm) Iallreduce(sendBuf, recvBuf []byte, count int, dt Datatype, op Op) (Request, error) {
	if err := c.checkLive(); err != nil {
		return nil, c.errh.invoke(err)
	}
	if err := checkCount("iallreduce", count); err != nil {
		return nil, c.errh.invoke(err)
	}
	nbytes := count * dt.Size()
	if len(sendBuf) < nbytes {
		return nil, c.errh.invoke(fmt.Errorf("mpi: iallreduce send buffer %d < %d bytes", len(sendBuf), nbytes))
	}
	if len(recvBuf) < nbytes {
		return nil, c.errh.invoke(fmt.Errorf("mpi: iallreduce recv buffer %d < %d bytes", len(recvBuf), nbytes))
	}
	m, err := c.collModule()
	if err != nil {
		return nil, c.errh.invoke(err)
	}
	tag := c.nextCollTag()
	return startGoRequest(func() error {
		return m.Allreduce(sendBuf, recvBuf, count, dt.Size(), builtinReducer(op, dt), true, tag)
	}), nil
}

// Ibcast is the nonblocking form of Bcast (MPI_Ibcast), dispatched through
// the same framework module as Bcast.
func (c *Comm) Ibcast(buf []byte, root int) (Request, error) {
	if err := c.checkLive(); err != nil {
		return nil, c.errh.invoke(err)
	}
	if root < 0 || root >= c.Size() {
		return nil, c.errh.invoke(fmt.Errorf("mpi: ibcast root %d out of range", root))
	}
	m, err := c.collModule()
	if err != nil {
		return nil, c.errh.invoke(err)
	}
	tag := c.nextCollTag()
	return startGoRequest(func() error { return m.Bcast(buf, root, tag) }), nil
}
