package mpi

import (
	"fmt"

	"gompi/internal/pml"
)

// Wildcards re-exported from the PML.
const (
	AnySource = pml.AnySource
	AnyTag    = pml.AnyTag
)

// Status reports the outcome of a receive.
type Status struct {
	Source int // comm rank of the sender
	Tag    int
	Count  int // bytes received
}

func fromPML(st pml.Status) Status {
	return Status{Source: st.Source, Tag: st.Tag, Count: st.Count}
}

// Request is the completion handle of a nonblocking operation. A send's
// Status is undefined in MPI; the Status of a send request here is always
// empty, whatever protocol carried it.
type Request interface {
	// Wait blocks until completion.
	Wait() (Status, error)
	// Test polls for completion without blocking.
	Test() (bool, Status, error)
	// Done returns a channel closed once the operation has completed, for
	// select-based waiting; Test reports the outcome.
	Done() <-chan struct{}
}

// pmlRequest adapts a PML request.
type pmlRequest struct{ r *pml.Request }

func (q pmlRequest) Wait() (Status, error) {
	st, err := q.r.Wait()
	return fromPML(st), err
}

func (q pmlRequest) Test() (bool, Status, error) {
	ok, st, err := q.r.Test()
	return ok, fromPML(st), err
}

func (q pmlRequest) Done() <-chan struct{} { return q.r.Done() }

// failedRequest is the request a nonblocking call returns when its
// arguments are rejected: already complete, carrying the error the
// communicator's handler was invoked with.
type failedRequest struct{ err error }

func (f *failedRequest) Wait() (Status, error)       { return Status{}, f.err }
func (f *failedRequest) Test() (bool, Status, error) { return true, Status{}, f.err }
func (f *failedRequest) Done() <-chan struct{}       { return closedDone }

// WaitAll waits for every request, returning the first error.
func WaitAll(reqs ...Request) error {
	var first error
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if _, err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// checkP2P validates a user point-to-point call: a live communicator, a
// user tag and a peer inside the group (receives may name AnySource and
// AnyTag).
func (c *Comm) checkP2P(peer, tag int, wildcardOK bool) error {
	if err := c.checkLive(); err != nil {
		return err
	}
	if err := checkTag(tag, wildcardOK); err != nil {
		return err
	}
	if wildcardOK && peer == AnySource {
		return nil
	}
	return checkRank("peer", peer, c.Size())
}

// checkTag rejects a negative user tag other than a receive's AnyTag: the
// negative tags are the collectives' internal space, and a user message
// there would be matched by a collective's receive.
func checkTag(tag int, wildcardOK bool) error {
	if tag < 0 && !(wildcardOK && tag == AnyTag) {
		return fmt.Errorf("%w: %d is negative", ErrTag, tag)
	}
	return nil
}

// Send performs a blocking standard-mode send (MPI_Send).
func (c *Comm) Send(buf []byte, dest, tag int) error {
	if err := c.checkP2P(dest, tag, false); err != nil {
		return c.errh.invoke(err)
	}
	return c.errh.invoke(c.ch.Send(dest, tag, buf))
}

// Isend starts a nonblocking send (MPI_Isend).
func (c *Comm) Isend(buf []byte, dest, tag int) Request {
	if err := c.checkP2P(dest, tag, false); err != nil {
		return &failedRequest{c.errh.invoke(err)}
	}
	return pmlRequest{c.ch.Isend(dest, tag, buf)}
}

// Ssend performs a blocking synchronous-mode send (MPI_Ssend): it returns
// only after the receiver has matched the message.
func (c *Comm) Ssend(buf []byte, dest, tag int) error {
	if err := c.checkP2P(dest, tag, false); err != nil {
		return c.errh.invoke(err)
	}
	return c.errh.invoke(c.ch.Ssend(dest, tag, buf))
}

// Issend starts a nonblocking synchronous-mode send (MPI_Issend).
func (c *Comm) Issend(buf []byte, dest, tag int) Request {
	if err := c.checkP2P(dest, tag, false); err != nil {
		return &failedRequest{c.errh.invoke(err)}
	}
	return pmlRequest{c.ch.Issend(dest, tag, buf)}
}

// Recv performs a blocking receive (MPI_Recv). src may be AnySource and
// tag may be AnyTag.
func (c *Comm) Recv(buf []byte, src, tag int) (Status, error) {
	if err := c.checkP2P(src, tag, true); err != nil {
		return Status{}, c.errh.invoke(err)
	}
	st, err := c.ch.Recv(src, tag, buf)
	return fromPML(st), c.errh.invoke(err)
}

// Irecv posts a nonblocking receive (MPI_Irecv).
func (c *Comm) Irecv(buf []byte, src, tag int) Request {
	if err := c.checkP2P(src, tag, true); err != nil {
		return &failedRequest{c.errh.invoke(err)}
	}
	return pmlRequest{c.ch.Irecv(src, tag, buf)}
}

// Sendrecv performs a combined send and receive (MPI_Sendrecv).
func (c *Comm) Sendrecv(sendBuf []byte, dest, sendTag int, recvBuf []byte, src, recvTag int) (Status, error) {
	if err := c.checkP2P(dest, sendTag, false); err != nil {
		return Status{}, c.errh.invoke(err)
	}
	if err := c.checkP2P(src, recvTag, true); err != nil {
		return Status{}, c.errh.invoke(err)
	}
	rreq := c.ch.Irecv(src, recvTag, recvBuf)
	sreq := c.ch.Isend(dest, sendTag, sendBuf)
	if _, err := sreq.Wait(); err != nil {
		return Status{}, c.errh.invoke(err)
	}
	st, err := rreq.Wait()
	return fromPML(st), c.errh.invoke(err)
}

// Probe blocks until a matching message is pending (MPI_Probe).
func (c *Comm) Probe(src, tag int) (Status, error) {
	if err := c.checkP2P(src, tag, true); err != nil {
		return Status{}, c.errh.invoke(err)
	}
	st, err := c.ch.Probe(src, tag)
	return fromPML(st), c.errh.invoke(err)
}

// Iprobe checks for a matching pending message (MPI_Iprobe).
func (c *Comm) Iprobe(src, tag int) (Status, bool, error) {
	if err := c.checkP2P(src, tag, true); err != nil {
		return Status{}, false, c.errh.invoke(err)
	}
	st, ok, err := c.ch.Iprobe(src, tag)
	return fromPML(st), ok, c.errh.invoke(err)
}
