package simnet

import (
	"sync"
	"time"
)

// A Queue is a modeled resource that serves one request at a time in
// arrival order: a dragonfly global link, or a PMIx server's serialized
// request processing. It never blocks a goroutine; it tells each request
// how long it waits, and the caller charges that with Delay.
//
// Requests that arrive at the same instant are served in key order, not in
// the order their goroutines happened to run. Inside a synctest bubble many
// requests land on one instant, and a queue served in scheduler order would
// make the modeled cost of each depend on the schedule.
type Queue struct {
	mu    sync.Mutex
	busy  int64  // UnixNano until which the batches before batch hold it
	batch *batch // the requests of the latest instant
}

type batch struct {
	at, start int64 // the instant, and when the queue frees for it
	reqs      []request
}

type request struct {
	key uint64
	d   time.Duration
}

// A Ticket is one request's place in a Queue.
type Ticket struct {
	q   *Queue
	b   *batch
	key uint64
}

// Join enqueues a request that holds the queue for d, ordered by key among
// the requests of its instant.
func (q *Queue) Join(key uint64, d time.Duration) *Ticket {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := time.Now().UnixNano()
	if q.batch == nil || q.batch.at != now {
		if q.batch != nil {
			q.busy = q.batch.start
			for _, r := range q.batch.reqs {
				q.busy += int64(r.d)
			}
		}
		q.batch = &batch{at: now, start: max(q.busy, now)}
	}
	q.batch.reqs = append(q.batch.reqs, request{key, d})
	return &Ticket{q: q, b: q.batch, key: key}
}

// Backlog is how long the request waits for earlier instants' requests.
func (t *Ticket) Backlog() time.Duration { return time.Duration(t.b.start - t.b.at) }

// Ahead is how long the request waits for the requests of its own instant
// that go first (lower keys). Call it once the instant has passed — after
// a Delay of Backlog or of the request's own time — so the batch is
// complete.
func (t *Ticket) Ahead() time.Duration {
	t.q.mu.Lock()
	defer t.q.mu.Unlock()
	var d time.Duration
	for _, r := range t.b.reqs {
		if r.key < t.key {
			d += r.d
		}
	}
	return d
}

// Use charges the caller a request of d on q: its wait, then d itself.
func (q *Queue) Use(key uint64, d time.Duration) {
	t := q.Join(key, d)
	Delay(t.Backlog() + d)
	Delay(t.Ahead())
}
