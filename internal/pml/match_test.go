package pml

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// mirror drives a bucketMatcher and a listMatcher with the same logical
// operation stream and asserts they always agree. Record identity is
// tracked by an id per logical record (each matcher gets its own copies),
// so the test checks the full matching semantics — wildcard source/tag,
// FIFO per sender, earliest-posted-first across specific and wildcard
// receives — of the bucketed engine against the original linear reference.
// Failure sweeps run the engine's own marking and failure rule on ch, a
// channel of ranks 0..size-1 (this process is rank 0) on a bare engine.
type mirror struct {
	t      *testing.T
	size   int
	e      *Engine
	ch     *Channel
	bucket *bucketMatcher
	list   *listMatcher
	bpID   map[*postedRecv]int
	lpID   map[*postedRecv]int
	buID   map[*inbound]int
	luID   map[*inbound]int
	nextID int
}

func newMirror(t *testing.T, size int) *mirror {
	e := &Engine{}
	ch := &Channel{eng: e, ranks: make([]int, size)}
	for i := range ch.ranks {
		ch.ranks[i] = i
	}
	e.setChannel(0, ch)
	return &mirror{
		t:      t,
		size:   size,
		e:      e,
		ch:     ch,
		bucket: newBucketMatcher(size),
		list:   newListMatcher(),
		bpID:   map[*postedRecv]int{},
		lpID:   map[*postedRecv]int{},
		buID:   map[*inbound]int{},
		luID:   map[*inbound]int{},
	}
}

func (m *mirror) post(src, tag int) {
	id := m.nextID
	m.nextID++
	bp := &postedRecv{src: src, tag: tag}
	lp := &postedRecv{src: src, tag: tag}
	m.bpID[bp] = id
	m.lpID[lp] = id
	m.bucket.pushPosted(bp)
	m.list.pushPosted(lp)
}

func (m *mirror) postedID(pr *postedRecv, ids map[*postedRecv]int) int {
	if pr == nil {
		return -1
	}
	id, ok := ids[pr]
	if !ok {
		m.t.Fatalf("matcher returned unknown posted record")
	}
	delete(ids, pr)
	return id
}

func (m *mirror) unexID(u *inbound, ids map[*inbound]int, take bool) int {
	if u == nil {
		return -1
	}
	id, ok := ids[u]
	if !ok {
		m.t.Fatalf("matcher returned unknown inbound record")
	}
	if take {
		delete(ids, u)
	}
	return id
}

// arrive simulates an inbound message: match a posted receive or queue it
// unexpected, exactly as handleMatch does.
func (m *mirror) arrive(src, tag int) {
	bid := m.postedID(m.bucket.takePosted(src, tag), m.bpID)
	lid := m.postedID(m.list.takePosted(src, tag), m.lpID)
	if bid != lid {
		m.t.Fatalf("arrive(src=%d tag=%d): bucket matched posted %d, list matched %d", src, tag, bid, lid)
	}
	if bid == -1 {
		id := m.nextID
		m.nextID++
		bu := &inbound{src: src, tag: tag}
		lu := &inbound{src: src, tag: tag}
		m.buID[bu] = id
		m.luID[lu] = id
		m.bucket.pushUnexpected(bu)
		m.list.pushUnexpected(lu)
	}
}

// recv simulates posting a receive: drain a matching unexpected message or
// leave the receive posted, exactly as Irecv does.
func (m *mirror) recv(src, tag int) {
	bid := m.unexID(m.bucket.takeUnexpected(src, tag), m.buID, true)
	lid := m.unexID(m.list.takeUnexpected(src, tag), m.luID, true)
	if bid != lid {
		m.t.Fatalf("recv(src=%d tag=%d): bucket took unexpected %d, list took %d", src, tag, bid, lid)
	}
	if bid == -1 {
		m.post(src, tag)
	}
}

func (m *mirror) probe(src, tag int) {
	bid := m.unexID(m.bucket.peekUnexpected(src, tag), m.buID, false)
	lid := m.unexID(m.list.peekUnexpected(src, tag), m.luID, false)
	if bid != lid {
		m.t.Fatalf("probe(src=%d tag=%d): bucket saw %d, list saw %d", src, tag, bid, lid)
	}
}

// sameBatch checks that a batch removal (a failure sweep) took the same
// records from both matchers (unordered), and each source's records, the
// wildcards counting as one source, in posted order (ordered): the order
// the bucket matcher promises.
func (m *mirror) sameBatch(what string, bucket, list []*postedRecv) {
	ids := func(prs []*postedRecv, idOf map[*postedRecv]int) (all []int, bySrc map[int][]int) {
		bySrc = map[int][]int{}
		for _, pr := range prs {
			id := m.postedID(pr, idOf)
			all = append(all, id)
			bySrc[pr.src] = append(bySrc[pr.src], id)
		}
		sort.Ints(all)
		return all, bySrc
	}
	ball, bsrc := ids(bucket, m.bpID)
	lall, lsrc := ids(list, m.lpID)
	if !slices.Equal(ball, lall) {
		m.t.Fatalf("%s: bucket took %v, list took %v", what, ball, lall)
	}
	for src, l := range lsrc {
		if !slices.Equal(bsrc[src], l) {
			m.t.Fatalf("%s: source %d taken in order %v from the bucket, %v from the list", what, src, bsrc[src], l)
		}
	}
}

// sweep runs the failure sweep's batch removal on both matchers, with the
// predicate the engine's sweep passes: the channel's failure rule.
func (m *mirror) sweep(what string) {
	m.ch.lock.Lock()
	defer m.ch.lock.Unlock()
	m.sameBatch(what, m.bucket.takePostedIf(m.ch.doomed), m.list.takePostedIf(m.ch.doomed))
}

// failPeer marks src dead as FailPeer does, then sweeps.
func (m *mirror) failPeer(src int) {
	m.e.markFailed(src)
	m.sweep(fmt.Sprintf("FailPeer(%d)", src))
}

// teardown ends a trial as Revoke, RemoveChannel or Engine.Close does:
// mark, sweep (the rule now refuses every posted receive), and drop the
// unexpected queue.
func (m *mirror) teardown(kind int) {
	what := [...]string{"Revoke", "RemoveChannel", "Close"}[kind]
	m.ch.lock.Lock()
	switch kind {
	case 0:
		m.ch.revoked = true
	case 1:
		m.ch.removed = true
	default:
		m.e.closed.Store(true)
	}
	m.ch.lock.Unlock()
	m.sweep(what)
	if len(m.bpID) != 0 || len(m.lpID) != 0 {
		m.t.Fatalf("%s left posted receives: bucket %d, list %d", what, len(m.bpID), len(m.lpID))
	}
	collect := func(us []*inbound, ids map[*inbound]int) []int {
		var out []int
		for _, u := range us {
			out = append(out, m.unexID(u, ids, true))
		}
		sort.Ints(out)
		return out
	}
	bu := collect(m.bucket.takeAllUnexpected(), m.buID)
	lu := collect(m.list.takeAllUnexpected(), m.luID)
	if !slices.Equal(bu, lu) {
		m.t.Fatalf("drain unexpected: bucket %v, list %v", bu, lu)
	}
	if len(m.buID) != 0 {
		m.t.Fatalf("bucket leaked %d unexpected records", len(m.buID))
	}
}

// TestMatcherPropertyEquivalence is the matching-semantics property test:
// random streams of posts, arrivals, receives, probes, and peer failures,
// with wildcard sources, wildcard tags, and negative (internal) tags, must
// produce identical decisions from the bucketed matcher and the linear
// reference matcher at every step. Each peer failure sweeps both with the
// predicate FailPeer's sweep passes (dead sources, then every internal
// tag, then the wildcards once every peer is dead), and each trial ends in
// the sweep of a Revoke, RemoveChannel or Close.
func TestMatcherPropertyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		size := 1 + rng.Intn(5)
		m := newMirror(t, size)
		randSrc := func(wild bool) int {
			if wild && rng.Intn(3) == 0 {
				return AnySource
			}
			return rng.Intn(size)
		}
		randTag := func(wild bool) int {
			if wild && rng.Intn(3) == 0 {
				return AnyTag
			}
			// Mostly small application tags (to force collisions), a few
			// negative internal tags that AnyTag must never match.
			if rng.Intn(5) == 0 {
				return -1 - rng.Intn(2)
			}
			return rng.Intn(4)
		}
		steps := 50 + rng.Intn(150)
		for i := 0; i < steps; i++ {
			switch rng.Intn(10) {
			case 0, 1, 2:
				m.recv(randSrc(true), randTag(true))
			case 3, 4, 5, 6:
				m.arrive(rng.Intn(size), randTag(false))
			case 7, 8:
				m.probe(randSrc(true), randTag(true))
			case 9:
				if size > 1 { // rank 0 is this process
					m.failPeer(1 + rng.Intn(size-1))
				}
			}
		}
		m.teardown(rng.Intn(3))
	}
}
