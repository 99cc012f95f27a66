// Package colltest provides an in-memory nonblocking transport for tests of
// the collective engine and of its callers: a full mesh with pooled
// operation records and completion hooks, so an allocation count taken
// over it belongs to the collective layers alone.
package colltest

import (
	"sync"

	"gompi/internal/opal"
)

// Mesh is an in-memory full mesh implementing the collective engine's
// nonblocking transport seam with zero steady-state allocation. Sends
// complete at match time (rendezvous semantics), so payloads move exactly
// once, directly between the caller buffers, with no intermediate copies
// or buffering. Every emitted schedule is synchronous-send safe — the
// textbook-MPI correctness requirement — so the stricter completion rule
// costs nothing.
//
// R is the request handle type the transport seam names (coll.Req). The
// package cannot import it, since the collective package's own tests use
// this one; every Op converts to R without allocating.
type Mesh[R any] struct {
	boxes []mailbox
	ranks []Rank[R]
}

// NewMesh builds a mesh of size members.
func NewMesh[R any](size int) *Mesh[R] {
	m := &Mesh[R]{boxes: make([]mailbox, size), ranks: make([]Rank[R], size)}
	for i := range m.boxes {
		m.boxes[i].cond = sync.NewCond(&m.boxes[i].mu)
	}
	for i := range m.ranks {
		m.ranks[i] = Rank[R]{mesh: m, rank: i}
	}
	return m
}

// Rank returns member r's transport endpoint.
func (m *Mesh[R]) Rank(r int) *Rank[R] { return &m.ranks[r] }

// Op is one outstanding mesh operation: a pooled record that doubles as
// the request handle. After completion has been observed through Wait or
// Test the record returns to its owner's freelist (the engine drops spent
// handles by contract).
type Op struct {
	buf      []byte
	src, tag int
	done     bool
	next     *Op
	box      *mailbox
	owner    *pool
	hook     *opal.Hook // completion hook (Notify), run once after done
}

// matched marks a queued operation complete, under its mailbox lock, and
// returns its completion hook for the caller to run once it has let the
// lock go.
func (o *Op) matched() *opal.Hook {
	o.done = true
	h := o.hook
	o.hook = nil
	return h
}

// Notify implements the engine's Notifier, so started rounds are driven
// through their completion hooks as the PML drives them.
func (o *Op) Notify(h *opal.Hook) bool {
	o.box.mu.Lock()
	defer o.box.mu.Unlock()
	if o.done {
		return false
	}
	o.hook = h
	return true
}

// Wait blocks until the operation completes and recycles the record.
func (o *Op) Wait() error {
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
func (o *Op) Test() (bool, error) {
	box := o.box
	box.mu.Lock()
	done := o.done
	box.mu.Unlock()
	if done {
		o.owner.put(o)
	}
	return done, nil
}

// opList is an intrusive FIFO of operations.
type opList struct{ head, tail *Op }

func (l *opList) push(o *Op) {
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
func (l *opList) takeMatch(src, tag int) *Op {
	var prev *Op
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

// mailbox is one receiver's matcher: posted receives and unmatched sends
// rendezvous here under a single lock.
type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	recvs opList // posted receives
	sends opList // unmatched sends (src = sender rank)
}

// pool is one member's freelist of operation records. It has a lock of
// its own: a started round may be advanced by a completion hook on another
// member's goroutine, and two started rounds of one member by two.
type pool struct {
	mu   sync.Mutex
	free *Op
}

func (p *pool) get(buf []byte, src, tag int, box *mailbox) *Op {
	p.mu.Lock()
	o := p.free
	if o == nil {
		o = &Op{}
	} else {
		p.free = o.next
	}
	p.mu.Unlock()
	o.buf, o.src, o.tag = buf, src, tag
	o.done, o.next, o.box, o.owner = false, nil, box, p
	return o
}

func (p *pool) put(o *Op) {
	o.buf = nil
	o.box = nil
	p.mu.Lock()
	o.next = p.free
	p.free = o
	p.mu.Unlock()
}

// Rank is one member's endpoint.
type Rank[R any] struct {
	mesh *Mesh[R]
	rank int
	pool pool
}

// Rank returns the member's rank in the mesh.
func (t *Rank[R]) Rank() int { return t.rank }

// Size returns the number of members.
func (t *Rank[R]) Size() int { return len(t.mesh.ranks) }

// Isend starts a nonblocking send to dest.
func (t *Rank[R]) Isend(buf []byte, dest, tag int) (R, error) {
	return any(t.isend(buf, dest, tag)).(R), nil
}

// Irecv starts a nonblocking receive from src.
func (t *Rank[R]) Irecv(buf []byte, src, tag int) (R, error) {
	return any(t.irecv(buf, src, tag)).(R), nil
}

// Send is a blocking send over Isend.
func (t *Rank[R]) Send(buf []byte, dest, tag int) error {
	return t.isend(buf, dest, tag).Wait()
}

// Recv is a blocking receive over Irecv.
func (t *Rank[R]) Recv(buf []byte, src, tag int) error {
	return t.irecv(buf, src, tag).Wait()
}

// Sendrecv posts the receive, pushes the send, and waits for both.
func (t *Rank[R]) Sendrecv(sendBuf []byte, dest int, recvBuf []byte, src, tag int) error {
	rr := t.irecv(recvBuf, src, tag)
	if err := t.isend(sendBuf, dest, tag).Wait(); err != nil {
		return err
	}
	return rr.Wait()
}

func (t *Rank[R]) isend(buf []byte, dest, tag int) *Op {
	box := &t.mesh.boxes[dest]
	o := t.pool.get(buf, t.rank, tag, box)
	var hook *opal.Hook
	box.mu.Lock()
	if r := box.recvs.takeMatch(t.rank, tag); r != nil {
		copy(r.buf, buf)
		hook = r.matched()
		o.done = true
		box.cond.Broadcast()
	} else {
		box.sends.push(o)
	}
	box.mu.Unlock()
	if hook != nil {
		hook.Fn(hook.Arg)
	}
	return o
}

func (t *Rank[R]) irecv(buf []byte, src, tag int) *Op {
	box := &t.mesh.boxes[t.rank]
	o := t.pool.get(buf, src, tag, box)
	var hook *opal.Hook
	box.mu.Lock()
	if s := box.sends.takeMatch(src, tag); s != nil {
		copy(buf, s.buf)
		hook = s.matched()
		o.done = true
		box.cond.Broadcast()
	} else {
		box.recvs.push(o)
	}
	box.mu.Unlock()
	if hook != nil {
		hook.Fn(hook.Arg)
	}
	return o
}
