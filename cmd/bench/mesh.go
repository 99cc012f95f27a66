package main

import (
	"sync"

	"gompi/internal/coll"
)

// mesh is the harness's own in-memory coll.NBTransport: a full mesh of
// mailboxes with rendezvous sends (a send completes when it meets its
// receive, payload copied once between the caller's buffers) and pooled
// operation records, so in steady state it allocates nothing and the coll
// probes' allocation counts belong to the coll layer alone.
type mesh struct {
	boxes []mailbox
	ranks []meshRank
}

type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	recvs []*meshOp // posted receives, oldest first
	sends []*meshOp // sends that found no receive yet
}

// meshOp is one outstanding send or receive; it is also the coll.Req.
type meshOp struct {
	buf      []byte
	src, tag int
	done     bool
	box      *mailbox
	owner    *meshRank
}

type meshRank struct {
	m    *mesh
	rank int
	free []*meshOp // touched only by this rank's goroutine
}

func newMesh(size int) *mesh {
	m := &mesh{boxes: make([]mailbox, size), ranks: make([]meshRank, size)}
	for i := range m.boxes {
		m.boxes[i].cond = sync.NewCond(&m.boxes[i].mu)
		m.ranks[i] = meshRank{m: m, rank: i}
	}
	return m
}

func (t *meshRank) get(buf []byte, src, tag int, box *mailbox) *meshOp {
	var o *meshOp
	if n := len(t.free); n > 0 {
		o, t.free = t.free[n-1], t.free[:n-1]
	} else {
		o = &meshOp{owner: t}
	}
	o.buf, o.src, o.tag, o.done, o.box = buf, src, tag, false, box
	return o
}

// takeMatch removes the oldest operation matching (src, tag) from *l.
func takeMatch(l *[]*meshOp, src, tag int) *meshOp {
	for i, o := range *l {
		if o.src == src && o.tag == tag {
			copy((*l)[i:], (*l)[i+1:])
			*l = (*l)[:len(*l)-1]
			return o
		}
	}
	return nil
}

func (t *meshRank) Rank() int { return t.rank }
func (t *meshRank) Size() int { return len(t.m.ranks) }

func (t *meshRank) Isend(buf []byte, dest, tag int) (coll.Req, error) {
	box := &t.m.boxes[dest]
	o := t.get(buf, t.rank, tag, box)
	box.mu.Lock()
	if r := takeMatch(&box.recvs, t.rank, tag); r != nil {
		copy(r.buf, buf)
		r.done, o.done = true, true
		box.cond.Broadcast()
	} else {
		box.sends = append(box.sends, o)
	}
	box.mu.Unlock()
	return o, nil
}

func (t *meshRank) Irecv(buf []byte, src, tag int) (coll.Req, error) {
	box := &t.m.boxes[t.rank]
	o := t.get(buf, src, tag, box)
	box.mu.Lock()
	if s := takeMatch(&box.sends, src, tag); s != nil {
		copy(buf, s.buf)
		s.done, o.done = true, true
		box.cond.Broadcast()
	} else {
		box.recvs = append(box.recvs, o)
	}
	box.mu.Unlock()
	return o, nil
}

func (t *meshRank) Send(buf []byte, dest, tag int) error {
	r, err := t.Isend(buf, dest, tag)
	if err != nil {
		return err
	}
	return r.Wait()
}

func (t *meshRank) Recv(buf []byte, src, tag int) error {
	r, err := t.Irecv(buf, src, tag)
	if err != nil {
		return err
	}
	return r.Wait()
}

func (t *meshRank) Sendrecv(sendBuf []byte, dest int, recvBuf []byte, src, tag int) error {
	rr, err := t.Irecv(recvBuf, src, tag)
	if err != nil {
		return err
	}
	if err := t.Send(sendBuf, dest, tag); err != nil {
		return err
	}
	return rr.Wait()
}

// Wait blocks until the operation completes and recycles its record.
func (o *meshOp) Wait() error {
	o.box.mu.Lock()
	for !o.done {
		o.box.cond.Wait()
	}
	o.box.mu.Unlock()
	o.owner.free = append(o.owner.free, o)
	return nil
}

// Test polls; a record that reports done is recycled.
func (o *meshOp) Test() (bool, error) {
	o.box.mu.Lock()
	done := o.done
	o.box.mu.Unlock()
	if done {
		o.owner.free = append(o.owner.free, o)
	}
	return done, nil
}
