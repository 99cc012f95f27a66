package mpi

import "gompi/internal/coll"

// Additional collectives: prefix reductions, reduce-scatter, vector
// variants, and nonblocking forms. Each runs one schedule from
// internal/coll through the same engine and checks as coll.go.

// Scan computes the inclusive prefix reduction: member i receives
// op(sendBuf_0, ..., sendBuf_i) (MPI_Scan), along a chain in rank order.
func (c *Comm) Scan(sendBuf, recvBuf []byte, count int, dt Datatype, op Op) error {
	return c.scan("scan", sendBuf, recvBuf, count, dt, op, false)
}

// Exscan computes the exclusive prefix reduction: member i receives
// op(sendBuf_0, ..., sendBuf_{i-1}); member 0's recvBuf is left untouched
// (MPI_Exscan).
func (c *Comm) Exscan(sendBuf, recvBuf []byte, count int, dt Datatype, op Op) error {
	return c.scan("exscan", sendBuf, recvBuf, count, dt, op, true)
}

func (c *Comm) scan(name string, sendBuf, recvBuf []byte, count int, dt Datatype, op Op, exclusive bool) error {
	return c.runColl(c.checkElementwise(name, sendBuf, recvBuf, count, dt), func(m *coll.Module, tag int) error {
		return m.Scan(sendBuf, recvBuf, count, dt.Size(), builtinReducer(op, dt), exclusive, tag)
	})
}

// ReduceScatterBlock reduces size*count elements across all members and
// scatters one count-element block to each (MPI_Reduce_scatter_block):
// member i receives elements [i*count, (i+1)*count) of the reduction. The
// schedule reduces to rank 0 and scatters from there, in one tag window.
func (c *Comm) ReduceScatterBlock(sendBuf, recvBuf []byte, count int, dt Datatype, op Op) error {
	return c.runColl(c.checkReduceScatter(sendBuf, recvBuf, count, dt), func(m *coll.Module, tag int) error {
		return m.ReduceScatterBlock(sendBuf, recvBuf, count, dt.Size(), builtinReducer(op, dt), tag)
	})
}

// Allgatherv concatenates variable-sized blocks from every member into
// recvBuf at every member (MPI_Allgatherv). counts[i] is the byte length
// contributed by member i; displs[i] its offset in recvBuf.
func (c *Comm) Allgatherv(sendBuf, recvBuf []byte, counts, displs []int) error {
	return c.runColl(c.checkAllgatherv(sendBuf, recvBuf, counts, displs), func(m *coll.Module, tag int) error {
		return m.Allgatherv(sendBuf, recvBuf, counts, displs, tag)
	})
}

// Gatherv concentrates variable-sized blocks at root (MPI_Gatherv): member
// i's sendBuf lands at recvBuf[displs[i]:], counts[i] bytes. counts and
// displs are read at root only.
func (c *Comm) Gatherv(sendBuf, recvBuf []byte, counts, displs []int, root int) error {
	return c.runColl(c.checkVector("gatherv", counts, displs, recvBuf, root), func(m *coll.Module, tag int) error {
		return m.Gatherv(sendBuf, recvBuf, counts, displs, root, tag)
	})
}

// Scatterv distributes variable-sized blocks from root (MPI_Scatterv):
// member i receives sendBuf[displs[i]:], counts[i] bytes, into recvBuf.
func (c *Comm) Scatterv(sendBuf []byte, counts, displs []int, recvBuf []byte, root int) error {
	return c.runColl(c.checkVector("scatterv", counts, displs, sendBuf, root), func(m *coll.Module, tag int) error {
		return m.Scatterv(sendBuf, recvBuf, counts, displs, root, tag)
	})
}

// Iallreduce is the nonblocking form of Allreduce (MPI_Iallreduce). The
// internal tag window is claimed at call time, so members may overlap it
// with other traffic as long as collective call order stays consistent.
// It dispatches through the same framework module as Allreduce, so the
// nonblocking path cannot diverge from the algorithm the blocking path
// would select.
func (c *Comm) Iallreduce(sendBuf, recvBuf []byte, count int, dt Datatype, op Op) (Request, error) {
	return c.startColl(c.checkElementwise("allreduce", sendBuf, recvBuf, count, dt), func(m *coll.Module, tag int) (*coll.Exec, error) {
		return m.Iallreduce(sendBuf, recvBuf, count, dt.Size(), builtinReducer(op, dt), true, tag)
	})
}

// Ibcast is the nonblocking form of Bcast (MPI_Ibcast), dispatched through
// the same framework module as Bcast.
func (c *Comm) Ibcast(buf []byte, root int) (Request, error) {
	return c.startColl(c.checkBcast(root), func(m *coll.Module, tag int) (*coll.Exec, error) { return m.Ibcast(buf, root, tag) })
}
