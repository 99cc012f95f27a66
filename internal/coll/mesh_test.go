package coll

import "sync"

// An in-memory nonblocking mesh with zero steady-state allocation: the
// transport the package tests run the engine over.

// nbOp is one outstanding mesh operation: a pooled record that doubles as
// the Req handle. After completion has been observed through Wait or Test
// the record returns to its owner's freelist (the engine drops spent
// handles by contract).
type nbOp struct {
	buf      []byte
	src, tag int
	done     bool
	next     *nbOp
	box      *nbMailbox
	owner    *NBMeshRank
}

// opList is an intrusive FIFO of operations.
type opList struct{ head, tail *nbOp }

func (l *opList) push(o *nbOp) {
	o.next = nil
	if l.tail == nil {
		l.head, l.tail = o, o
	} else {
		l.tail.next = o
		l.tail = o
	}
}

// takeMatch removes and returns the first operation matching (src, tag),
// preserving per-(src, tag) FIFO order.
func (l *opList) takeMatch(src, tag int) *nbOp {
	var prev *nbOp
	for o := l.head; o != nil; prev, o = o, o.next {
		if o.src == src && o.tag == tag {
			if prev == nil {
				l.head = o.next
			} else {
				prev.next = o.next
			}
			if l.tail == o {
				l.tail = prev
			}
			o.next = nil
			return o
		}
	}
	return nil
}

// nbMailbox is one receiver's matcher: posted receives and unmatched sends
// rendezvous here under a single lock.
type nbMailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	recvs opList // posted receives
	sends opList // unmatched sends (src = sender rank)
}

// NBMesh is an in-memory full mesh implementing the NBTransport seam with
// zero steady-state allocation. Sends complete at match time (rendezvous
// semantics), so payloads move exactly once, directly between the caller
// buffers, with no intermediate copies or buffering. Every emitted
// schedule is synchronous-send safe — the textbook-MPI correctness
// requirement — so the stricter completion rule costs nothing.
type NBMesh struct {
	boxes []nbMailbox
	ranks []NBMeshRank
}

// NewNBMesh builds a mesh of size members.
func NewNBMesh(size int) *NBMesh {
	m := &NBMesh{boxes: make([]nbMailbox, size), ranks: make([]NBMeshRank, size)}
	for i := range m.boxes {
		m.boxes[i].cond = sync.NewCond(&m.boxes[i].mu)
	}
	for i := range m.ranks {
		m.ranks[i] = NBMeshRank{mesh: m, rank: i}
	}
	return m
}

// Rank returns member r's transport endpoint.
func (m *NBMesh) Rank(r int) *NBMeshRank { return &m.ranks[r] }

// NBMeshRank is one member's endpoint. The freelist is touched only by
// this rank's executor goroutine, so it needs no lock.
type NBMeshRank struct {
	mesh *NBMesh
	rank int
	free *nbOp
}

func (t *NBMeshRank) get(buf []byte, src, tag int, box *nbMailbox) *nbOp {
	o := t.free
	if o == nil {
		o = &nbOp{}
	} else {
		t.free = o.next
	}
	o.buf, o.src, o.tag = buf, src, tag
	o.done, o.next, o.box, o.owner = false, nil, box, t
	return o
}

func (t *NBMeshRank) put(o *nbOp) {
	o.buf = nil
	o.box = nil
	o.next = t.free
	t.free = o
}

// Rank implements Transport.
func (t *NBMeshRank) Rank() int { return t.rank }

// Size implements Transport.
func (t *NBMeshRank) Size() int { return len(t.mesh.ranks) }

// Isend starts a nonblocking send to dest.
func (t *NBMeshRank) Isend(buf []byte, dest, tag int) (Req, error) {
	box := &t.mesh.boxes[dest]
	o := t.get(buf, t.rank, tag, box)
	box.mu.Lock()
	if r := box.recvs.takeMatch(t.rank, tag); r != nil {
		copy(r.buf, buf)
		r.done = true
		o.done = true
		box.cond.Broadcast()
	} else {
		box.sends.push(o)
	}
	box.mu.Unlock()
	return o, nil
}

// Irecv starts a nonblocking receive from src.
func (t *NBMeshRank) Irecv(buf []byte, src, tag int) (Req, error) {
	box := &t.mesh.boxes[t.rank]
	o := t.get(buf, src, tag, box)
	box.mu.Lock()
	if s := box.sends.takeMatch(src, tag); s != nil {
		copy(buf, s.buf)
		s.done = true
		o.done = true
		box.cond.Broadcast()
	} else {
		box.recvs.push(o)
	}
	box.mu.Unlock()
	return o, nil
}

// Send implements the blocking Transport seam over Isend.
func (t *NBMeshRank) Send(buf []byte, dest, tag int) error {
	r, err := t.Isend(buf, dest, tag)
	if err != nil {
		return err
	}
	return r.Wait()
}

// Recv implements the blocking Transport seam over Irecv.
func (t *NBMeshRank) Recv(buf []byte, src, tag int) error {
	r, err := t.Irecv(buf, src, tag)
	if err != nil {
		return err
	}
	return r.Wait()
}

// Sendrecv posts the receive, pushes the send, and waits for both.
func (t *NBMeshRank) Sendrecv(sendBuf []byte, dest int, recvBuf []byte, src, tag int) error {
	rr, err := t.Irecv(recvBuf, src, tag)
	if err != nil {
		return err
	}
	sr, err := t.Isend(sendBuf, dest, tag)
	if err != nil {
		return err
	}
	if err := sr.Wait(); err != nil {
		return err
	}
	return rr.Wait()
}

// Wait blocks until the operation completes and recycles the record.
func (o *nbOp) Wait() error {
	box := o.box
	box.mu.Lock()
	for !o.done {
		box.cond.Wait()
	}
	box.mu.Unlock()
	o.owner.put(o)
	return nil
}

// Test polls for completion, recycling the record once it reports done.
func (o *nbOp) Test() (bool, error) {
	box := o.box
	box.mu.Lock()
	done := o.done
	box.mu.Unlock()
	if done {
		o.owner.put(o)
	}
	return done, nil
}
