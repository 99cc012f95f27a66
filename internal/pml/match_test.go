package pml

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// mirror drives a bucketMatcher and a listMatcher with the same logical
// operation stream and asserts they always agree. Record identity is
// tracked by an id per logical record (each matcher gets its own copies),
// so the test checks the full matching semantics — wildcard source/tag,
// FIFO per sender, earliest-posted-first across specific and wildcard
// receives — of the bucketed engine against the original linear reference.
type mirror struct {
	t      *testing.T
	size   int
	bucket *bucketMatcher
	list   *listMatcher
	bpID   map[*postedRecv]int
	lpID   map[*postedRecv]int
	buID   map[*inbound]int
	luID   map[*inbound]int
	nextID int
}

func newMirror(t *testing.T, size int) *mirror {
	return &mirror{
		t:      t,
		size:   size,
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

// sameBatch checks that a batch removal (peer failure, channel poisoning)
// took the same records from both matchers — in the same order when the
// bucket matcher promises posted order.
func (m *mirror) sameBatch(what string, ordered bool, bucket, list []*postedRecv) {
	var bids, lids []int
	for _, pr := range bucket {
		bids = append(bids, m.postedID(pr, m.bpID))
	}
	for _, pr := range list {
		lids = append(lids, m.postedID(pr, m.lpID))
	}
	if !ordered {
		sort.Ints(bids)
		sort.Ints(lids)
	}
	if len(bids) != len(lids) {
		m.t.Fatalf("%s: bucket dropped %v, list dropped %v", what, bids, lids)
	}
	for i := range bids {
		if bids[i] != lids[i] {
			m.t.Fatalf("%s: order differs: bucket %v, list %v", what, bids, lids)
		}
	}
}

func (m *mirror) failSrc(src int) {
	m.sameBatch(fmt.Sprintf("failSrc(%d)", src), true, m.bucket.takePostedBySrc(src), m.list.takePostedBySrc(src))
}

func (m *mirror) failWildcard() {
	m.sameBatch("failWildcard", true, m.bucket.takePostedWildcard(), m.list.takePostedWildcard())
}

func (m *mirror) failInternal() {
	m.sameBatch("failInternal", false, m.bucket.takePostedInternal(), m.list.takePostedInternal())
}

func (m *mirror) drain() {
	collectP := func(prs []*postedRecv, ids map[*postedRecv]int) []int {
		var out []int
		for _, pr := range prs {
			out = append(out, m.postedID(pr, ids))
		}
		sort.Ints(out)
		return out
	}
	collectU := func(us []*inbound, ids map[*inbound]int) []int {
		var out []int
		for _, u := range us {
			out = append(out, m.unexID(u, ids, true))
		}
		sort.Ints(out)
		return out
	}
	bp := collectP(m.bucket.takeAllPosted(), m.bpID)
	lp := collectP(m.list.takeAllPosted(), m.lpID)
	bu := collectU(m.bucket.takeAllUnexpected(), m.buID)
	lu := collectU(m.list.takeAllUnexpected(), m.luID)
	equal := func(a, b []int) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !equal(bp, lp) {
		m.t.Fatalf("drain posted: bucket %v, list %v", bp, lp)
	}
	if !equal(bu, lu) {
		m.t.Fatalf("drain unexpected: bucket %v, list %v", bu, lu)
	}
	if len(m.bpID) != 0 || len(m.buID) != 0 {
		m.t.Fatalf("bucket leaked records: %d posted, %d unexpected", len(m.bpID), len(m.buID))
	}
}

// TestMatcherPropertyEquivalence is the matching-semantics property test:
// random streams of posts, arrivals, receives, probes, and peer failures
// (one source, the internal-tag receives, or the wildcards),
// with wildcard sources, wildcard tags, and negative (internal) tags, must
// produce identical decisions from the bucketed matcher and the linear
// reference matcher at every step.
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
				switch rng.Intn(4) {
				case 0:
					m.failWildcard()
				case 1:
					m.failInternal()
				default:
					m.failSrc(rng.Intn(size))
				}
			}
		}
		m.drain()
	}
}
