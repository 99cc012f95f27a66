package mpi

import (
	"fmt"
	"sync"

	"gompi/internal/pml"
)

// Partitioned point-to-point (MPI 4.0 MPI_Psend_init / MPI_Precv_init):
// one persistent transfer whose payload is contributed and consumed in
// independent partitions. The sender marks each partition ready with
// Pready — from any goroutine, in any order, typically as compute tiles
// finish — and the receiver can start consuming any partition the moment
// Parrived reports it, long before the whole transfer completes.
//
// Each partition travels as an ordinary message on a tag derived from the
// (user tag, partition) pair inside a reserved internal region
// (pml.PartTag), so the PML's bucketed matcher handles the reordering, the
// transfer inherits rendezvous flow control per partition, and the
// per-(source, tag) FIFO keeps back-to-back rounds of one request ordered.

// MaxPartitions bounds the partition count of one partitioned request.
const MaxPartitions = pml.MaxPartitions

// PartitionedRequest is a partitioned send or receive request, with the
// lifecycle of every startable request (startable.go). It satisfies
// Startable, so StartAll composes it with other persistent requests.
type PartitionedRequest struct {
	lifecycle
	c     *Comm
	send  bool
	peer  int
	tag   int
	buf   []byte
	chunk int
	// reqs holds the round's per-partition requests: a receive posts them
	// all at Start, a send each at its Pready (nil until then).
	reqs  []*pml.Request
	ready int       // a send's partitions marked ready this round
	full  sync.Cond // on mu: broadcast when ready reaches len(reqs)
}

// PsendInit prepares a partitioned send of buf to dest, split into
// partitions equal chunks (MPI_Psend_init). tag must be a non-negative
// application tag below pml.MaxPartitionedTag.
func (c *Comm) PsendInit(buf []byte, dest, tag, partitions int) (*PartitionedRequest, error) {
	return c.partitionedInit(true, buf, dest, tag, partitions)
}

// PrecvInit prepares a partitioned receive into buf from src
// (MPI_Precv_init). Both sides must agree on tag, total size, and
// partition count.
func (c *Comm) PrecvInit(buf []byte, src, tag, partitions int) (*PartitionedRequest, error) {
	return c.partitionedInit(false, buf, src, tag, partitions)
}

func (c *Comm) partitionedInit(send bool, buf []byte, peer, tag, partitions int) (*PartitionedRequest, error) {
	err := c.checkP2P(peer, tag, false)
	switch {
	case err != nil:
	case tag >= pml.MaxPartitionedTag:
		err = fmt.Errorf("%w: partitioned tag %d is not below %d", ErrTag, tag, pml.MaxPartitionedTag)
	case partitions < 1 || partitions > MaxPartitions:
		err = fmt.Errorf("%w: partition count %d out of range [1,%d]", ErrBuffer, partitions, MaxPartitions)
	case len(buf)%partitions != 0:
		err = fmt.Errorf("%w: buffer length %d not divisible into %d partitions", ErrBuffer, len(buf), partitions)
	}
	if err != nil {
		return nil, c.errh.invoke(err)
	}
	r := &PartitionedRequest{
		c: c, send: send, peer: peer, tag: tag, buf: buf,
		chunk: len(buf) / partitions,
		reqs:  make([]*pml.Request, partitions),
	}
	r.full.L = &r.mu
	return r, nil
}

// Partitions returns the partition count.
func (r *PartitionedRequest) Partitions() int { return len(r.reqs) }

// Start arms a new round (MPI_Start): a receive posts every partition's
// receive, a send reverts every partition to not ready.
func (r *PartitionedRequest) Start() error { return r.c.errh.invoke(r.start(r)) }

// Wait blocks until the active round completes — for a send, once every
// partition has been marked ready and delivered — and makes the request
// inactive.
func (r *PartitionedRequest) Wait() error {
	_, err := r.wait(r)
	return r.c.errh.invoke(err)
}

// Test polls the active round, making the request inactive once it has
// completed.
func (r *PartitionedRequest) Test() (bool, error) {
	done, _, err := r.test(r)
	return done, r.c.errh.invoke(err)
}

// Free releases an inactive request (MPI_Request_free).
func (r *PartitionedRequest) Free() error { return r.c.errh.invoke(r.free()) }

// Pready marks partition p of a send request ready and injects it
// (MPI_Pready). The partition's bytes must not change until the round
// completes.
func (r *PartitionedRequest) Pready(p int) error {
	r.mu.Lock()
	err := r.partition(p, true)
	if err == nil && r.reqs[p] != nil {
		err = fmt.Errorf("mpi: partition %d already marked ready", p)
	}
	if err == nil {
		r.reqs[p] = r.c.ch.Isend(r.peer, pml.PartTag(r.tag, p), r.part(p))
		if r.ready++; r.ready == len(r.reqs) {
			r.full.Broadcast()
		}
	}
	r.mu.Unlock()
	return r.c.errh.invoke(err)
}

// PreadyRange marks partitions [lo, hi] ready (MPI_Pready_range).
func (r *PartitionedRequest) PreadyRange(lo, hi int) error {
	for p := lo; p <= hi; p++ {
		if err := r.Pready(p); err != nil {
			return err
		}
	}
	return nil
}

// Parrived reports whether partition p of a receive request has landed
// (MPI_Parrived); its bytes are readable as soon as this returns true,
// even while other partitions are pending.
func (r *PartitionedRequest) Parrived(p int) (bool, error) {
	r.mu.Lock()
	err := r.partition(p, false)
	arrived := false
	if err == nil {
		arrived, _, err = r.reqs[p].Test()
	}
	r.mu.Unlock()
	return arrived, r.c.errh.invoke(err)
}

// partition checks a Pready (send) or Parrived call on partition p: the
// request is active, of that direction, and p is one of its partitions.
// The caller holds mu.
func (r *PartitionedRequest) partition(p int, send bool) error {
	if err := r.check(active); err != nil {
		return err
	}
	switch {
	case send && !r.send:
		return fmt.Errorf("mpi: Pready on a partitioned receive request")
	case !send && r.send:
		return fmt.Errorf("mpi: Parrived on a partitioned send request")
	case p < 0 || p >= len(r.reqs):
		return fmt.Errorf("mpi: partition %d out of range [0,%d)", p, len(r.reqs))
	}
	return nil
}

func (r *PartitionedRequest) part(p int) []byte { return r.buf[p*r.chunk : (p+1)*r.chunk] }

func (r *PartitionedRequest) arm() {
	r.ready = 0
	for p := range r.reqs {
		if r.send {
			r.reqs[p] = nil
		} else {
			r.reqs[p] = r.c.ch.Irecv(r.peer, pml.PartTag(r.tag, p), r.part(p))
		}
	}
}

func (r *PartitionedRequest) poll() (bool, Status, error) {
	var first error
	for _, q := range r.reqs {
		if q == nil {
			return false, Status{}, nil // a send partition not yet ready
		}
		done, _, err := q.Test()
		if !done {
			return false, Status{}, nil
		}
		if first == nil {
			first = err
		}
	}
	return true, Status{}, first
}

func (r *PartitionedRequest) finish() (Status, error) {
	r.mu.Lock()
	for r.send && r.ready < len(r.reqs) {
		r.full.Wait()
	}
	r.mu.Unlock()
	return Status{}, pml.WaitAll(r.reqs...)
}
