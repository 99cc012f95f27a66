package udp

// reassembler rebuilds multi-fragment packets. It is touched only by the
// module's progress goroutine, so it needs no locking. State is bounded:
// at most maxPartial packets may be in flight at once, and when a new
// packet would exceed that the oldest partial is evicted (counted as a
// drop) — with no retransmission in v1, a partial whose fragment was lost
// would otherwise pin its buffer forever.
const maxPartial = 64

// maxTombstones bounds the memory of keys whose packets were completed or
// evicted. A fragment arriving for a tombstoned key is a straggler: folding
// it into a fresh partial would pin a reassembly slot forever (its siblings
// are gone) and, for a completed packet, could deliver a corrupt duplicate.
const maxTombstones = 256

type reasmKey struct {
	srcRank uint32
	msgID   uint32
}

type partial struct {
	buf       []byte // destination packet buffer, len == TotalLen
	got       []bool // per-fragment arrival bitmap
	remaining int    // fragments still missing
	fragCount uint16
	totalLen  uint32
}

type reassembler struct {
	partials map[reasmKey]*partial
	order    []reasmKey // insertion order for FIFO eviction
	// spare holds the records of finished partials, bitmap capacity
	// included, for the next multi-fragment packet to reuse: at most
	// maxPartial are ever live, so at most that many are ever made.
	spare    []*partial
	tombs    map[reasmKey]struct{}
	tombRing [maxTombstones]reasmKey // tombstoned keys, oldest overwritten first
	tombSeq  int                     // tombstones recorded so far
	alloc    func(n int) []byte
	free     func(b []byte)
}

func newReassembler(alloc func(int) []byte, free func([]byte)) *reassembler {
	return &reassembler{
		partials: make(map[reasmKey]*partial),
		tombs:    make(map[reasmKey]struct{}),
		alloc:    alloc,
		free:     free,
	}
}

// accept folds one validated frame into its packet. It returns the complete
// packet once the last fragment lands (ownership passes to the caller),
// nil while fragments are still outstanding, and (nil, evicted>0 or
// dropped=true) when the frame was discarded: inconsistent with the
// partial's established geometry, a duplicate, or the victim of an
// eviction. evicted counts partials thrown away to make room. Steady state
// allocates nothing: packet buffers come from the arena and partial records
// from r.spare (TestUDPReceivePathAllocs).
//
//gompilint:noalloc
func (r *reassembler) accept(f Frame) (pkt []byte, dropped bool, evicted int) {
	if f.FragCount == 1 {
		// Single-fragment fast path: copy out of the datagram buffer into
		// an arena packet; no partial state needed.
		pkt = r.alloc(int(f.TotalLen))
		copy(pkt, f.Payload)
		return pkt, false, 0
	}

	key := reasmKey{srcRank: f.SrcRank, msgID: f.MsgID}
	p := r.partials[key]
	if p == nil {
		if _, dead := r.tombs[key]; dead {
			// Straggler of a packet already completed or evicted. Dropping
			// it (rather than opening a fresh partial that can never
			// complete) keeps the 64 slots for live packets.
			return nil, true, 0
		}
		for len(r.partials) >= maxPartial {
			r.evictOldest()
			evicted++
		}
		p = r.open(key, f)
	}

	// Every fragment must agree with the geometry the first one established;
	// a mismatch means corruption that slipped past the hash or a msgID
	// collision, and the safe move is to drop the frame.
	if f.FragCount != p.fragCount || f.TotalLen != p.totalLen {
		return nil, true, evicted
	}
	if p.got[f.FragIndex] {
		return nil, true, evicted // duplicate
	}
	if int(f.FragOff)+len(f.Payload) > len(p.buf) {
		return nil, true, evicted
	}
	copy(p.buf[f.FragOff:], f.Payload)
	p.got[f.FragIndex] = true
	p.remaining--
	if p.remaining > 0 {
		return nil, false, evicted
	}
	pkt = p.buf
	r.finish(key, p)
	return pkt, false, evicted
}

// open starts a partial for key with the geometry f announces, on a recycled
// record when there is one.
func (r *reassembler) open(key reasmKey, f Frame) *partial {
	var p *partial
	if n := len(r.spare); n > 0 {
		p, r.spare = r.spare[n-1], r.spare[:n-1]
	} else {
		p = new(partial)
	}
	if cap(p.got) < int(f.FragCount) {
		p.got = make([]bool, f.FragCount)
	}
	p.got = p.got[:f.FragCount]
	clear(p.got)
	p.buf = r.alloc(int(f.TotalLen))
	p.remaining = int(f.FragCount)
	p.fragCount = f.FragCount
	p.totalLen = f.TotalLen
	r.partials[key] = p
	r.order = append(r.order, key)
	return p
}

// finish retires key's partial, delivered or evicted: the key is tombstoned
// and the record goes back on the spare list. The packet buffer is the
// caller's to deliver or free.
func (r *reassembler) finish(key reasmKey, p *partial) {
	delete(r.partials, key)
	for i, k := range r.order {
		if k == key {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.tombstone(key)
	p.buf = nil
	r.spare = append(r.spare, p)
}

func (r *reassembler) evictOldest() {
	key := r.order[0]
	p := r.partials[key]
	r.free(p.buf)
	r.finish(key, p)
}

// tombstone records that key's packet is finished (delivered or evicted),
// overwriting the oldest record beyond maxTombstones. Senders allocate msgIDs
// monotonically, so by the time a tombstone expires its stragglers — at most
// one wire-latency behind — are long gone.
func (r *reassembler) tombstone(key reasmKey) {
	if _, ok := r.tombs[key]; ok {
		return
	}
	slot := &r.tombRing[r.tombSeq%maxTombstones]
	if r.tombSeq >= maxTombstones {
		delete(r.tombs, *slot)
	}
	*slot = key
	r.tombSeq++
	r.tombs[key] = struct{}{}
}

// close releases every outstanding partial back to the arena.
func (r *reassembler) close() {
	for key, p := range r.partials {
		r.free(p.buf)
		delete(r.partials, key)
	}
	r.order = nil
	r.spare = nil
	r.tombs = make(map[reasmKey]struct{})
	r.tombSeq = 0
}
