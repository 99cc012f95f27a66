package pml

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"gompi/internal/btl"
	"gompi/internal/opal"
)

// DefaultEagerLimit is the message size above which the rendezvous protocol
// is used instead of eager delivery when neither the Config nor the selected
// transport specifies a limit.
const DefaultEagerLimit = 4096

// Config tunes an Engine.
type Config struct {
	// EagerLimit is the eager/rendezvous switch point in bytes. When set
	// (> 0) it overrides every transport's own preference, which keeps
	// protocol tests deterministic; zero defers to the per-BTL limit (sm
	// advertises a much larger one than net).
	EagerLimit int
	// Trace, when non-nil, receives "btl" layer events for route selection:
	// which module carries each peer, and which modules declined it.
	Trace *opal.Trace
}

// Stats counts messages by header kind, used by tests and by the Fig. 5c
// analysis of how many messages travelled with extended headers.
type Stats struct {
	FastSent   uint64 // messages sent with the 14-byte header only
	ExtSent    uint64 // messages sent with the extended header
	AcksSent   uint64
	AcksRecved uint64
	Rendezvous uint64 // rendezvous transfers initiated
	// PostedHits counts inbound messages that matched an already-posted
	// receive; UnexpectedHits counts receives satisfied from the
	// unexpected queue. Their ratio says which side of the race each
	// workload's receivers are winning.
	PostedHits     uint64
	UnexpectedHits uint64
	// DupsDropped counts inbound match/RTS frames discarded because their
	// sequence number was already delivered (a duplicated wire packet);
	// ReorderStashed counts frames that arrived ahead of a gap and were
	// parked until the missing sequence numbers filled in.
	DupsDropped    uint64
	ReorderStashed uint64
}

// engineStats is the internal, atomically-updated form of Stats: counters
// are bumped on the hot path without touching any matching lock, and
// Stats() reads never contend with matching.
type engineStats struct {
	fastSent       atomic.Uint64
	extSent        atomic.Uint64
	acksSent       atomic.Uint64
	acksRecved     atomic.Uint64
	rendezvous     atomic.Uint64
	postedHits     atomic.Uint64
	unexpectedHits atomic.Uint64
	dupsDropped    atomic.Uint64
	reorderStashed atomic.Uint64
}

// Engine is one process's ob1-style messaging engine. It performs MPI tag
// matching for every communicator (Channel) registered with it, and moves
// bytes exclusively through its BTL modules: each peer is routed, on first
// contact, to the highest-priority module whose AddProc accepts it, so
// intra-node peers ride the sm fast path while everything else goes through
// the fabric.
//
// Locking (DESIGN.md §5b). Matching state is per channel: each Channel owns
// a lock covering its posted/unexpected queues and peer (exCID/sequence)
// state, so traffic on different communicators never serializes. The engine
// keeps two narrow locks — regMu for the channel registry, orphan buffers,
// and the CID allocator; pendMu for the rendezvous pending maps — plus
// lock-free structures (sync.Map registries, atomic counters) for the
// read-mostly lookups on the packet path. The hierarchy is flat: no code
// path acquires two of these locks at once, so no lock ordering issues can
// arise; in particular no lock is ever held across a BTL send or a request
// completion.
type Engine struct {
	btls     []btl.Module // in MCA priority order
	cfgEager int          // explicit override; 0 = per-module default
	trace    *opal.Trace  // may be nil (tracing disabled)

	closed  atomic.Bool
	nextReq atomic.Uint64

	// regMu orders channel registry mutations against orphan buffering and
	// the CID allocator. The registries themselves are sync.Maps so the
	// packet path reads them without taking regMu; writers (and the
	// lookup-miss path that buffers orphans) serialize on regMu, which
	// closes the "packet races AddChannel" window.
	regMu     sync.Mutex          //gompilint:lockorder rank=40
	comms     sync.Map            // uint16 -> *Channel
	byEx      sync.Map            // ExCID -> *Channel
	orphans   map[uint16][][]byte // fast-path packets for not-yet-registered CIDs
	orphansEx map[ExCID][][]byte  // ext packets for not-yet-registered exCIDs
	cidHWM    int                 // CIDs below this have been claimed at least once
	cidFree   []uint16            // released CIDs below cidHWM, sorted ascending

	routes sync.Map // int (global rank) -> *route

	// pendMu guards the rendezvous maps: sends awaiting CTS and receives
	// awaiting DATA.
	pendMu   sync.Mutex //gompilint:lockorder rank=42
	pendSend map[uint64]*pendingSend
	pendRecv map[uint64]*postedRecv

	// failedPeers is consulted on every send; failedCount lets the common
	// no-failures case skip the map probe entirely.
	failedPeers sync.Map // int -> struct{}
	failedCount atomic.Int64

	st engineStats
}

// route is the cached transport decision for one peer.
type route struct {
	mod   btl.Module
	ep    btl.Endpoint
	eager int
}

type pendingSend struct {
	req        *Request
	payload    []byte
	destGlobal int
	ch         *Channel // owning channel, so Revoke can fail it
	internal   bool     // negative tag: a collective's send, failed with the channel (FailPeer)
}

// postedRecv is one posted receive. The pseq/pnext/pprev fields are owned
// by the channel's matcher (intrusive queue links; see match.go); records
// are pooled, so a postedRecv must be referenced by exactly one queue or
// pending map at a time and is recycled by whoever takes it out last.
type postedRecv struct {
	ch  *Channel
	src int
	tag int
	buf []byte
	req *Request
	// resSrc/resTag are the matched message's actual source and tag, fixed
	// when a rendezvous match is made (src/tag may be wildcards).
	resSrc int
	resTag int

	pseq         uint64 // global post order within the channel
	pnext, pprev *postedRecv
}

// inbound is one unexpected (not yet matched) message. raw is the wire
// packet backing payload, recycled into the buffer arena when the record is
// consumed. The two link pairs thread the record onto its source's
// arrival-order list and the channel-global arrival-order list.
type inbound struct {
	src          int
	tag          int
	seq          uint16
	payload      []byte
	raw          []byte
	rndv         bool
	rndvLen      uint64
	sendReqID    uint64
	senderGlobal int

	snext, sprev *inbound
	anext, aprev *inbound
}

// peerState tracks the exCID handshake and sequencing with one peer of one
// channel. Guarded by the channel lock.
type peerState struct {
	sendSeq   uint16
	remoteCID uint16 // peer's local CID for this comm, learned from its ACK
	haveACK   bool   // we received the peer's ACK: fast path usable
	ackSent   bool   // we already acknowledged the peer's first ext message

	// recvSeq is the next inbound match/RTS sequence number expected from
	// this peer; stash parks frames that arrived ahead of a gap, keyed by
	// their sequence number, until the missing frames fill it. Together
	// they make matching immune to duplicated and reordered wire packets
	// (sequence comparison uses serial-number arithmetic, so the uint16
	// space wraps cleanly).
	recvSeq uint16
	stash   map[uint16]*inbound
}

// Channel is the PML view of one communicator: a local CID, an optional
// exCID, and the comm-rank to global-rank translation. lock guards the
// matcher and peer state; cond (on lock) is signaled on unexpected-queue
// arrivals and teardown. They sit last, behind the state they guard, so the
// contended lock word never shares a cache line with the immutable header,
// which every send reads without the lock (placed right after ranks it cost
// ~5 % on data-sim's allreduce_32KiB_us).
type Channel struct {
	eng      *Engine
	localCID uint16
	ex       ExCID
	useEx    bool
	myRank   int
	ranks    []int // comm rank -> global rank; immutable

	removed bool
	// deadMember is set by FailPeer when any rank of this channel dies.
	// Internal (negative-tag) receives posted afterwards fail fast with
	// ErrPeerFailed: a collective on a communicator with a failed member
	// can hang on live peers that already bailed out, so it must not start.
	deadMember bool
	// allDead is set by FailPeer when EVERY non-self rank of this channel
	// has died. From then on no message can ever arrive, so wildcard
	// (AnySource) receives — which survive individual peer deaths because
	// another sender might still match them — fail fast too.
	allDead bool
	// revoked is set when any member revokes the communicator (Revoke, or
	// an incoming hdrRevoke notice). Every pending and future operation on
	// a revoked channel fails with ErrRevoked: survivors of a process
	// failure use revocation to interrupt each other's otherwise-valid
	// operations so everyone reaches the rebuild collectively.
	revoked bool
	peers   []peerState
	m       *bucketMatcher

	// persNext/persFree drive the persistent-collective tag-window
	// allocator (partitioned.go): windows are handed out lowest-first so
	// that members reserving in the same program order agree on every
	// window without communicating. Guarded by lock.
	persNext int
	persFree []int

	lock sync.Mutex //gompilint:lockorder rank=44
	cond sync.Cond
}

// NewEngine creates an engine over the given BTL modules, listed in MCA
// priority order: a peer is carried by the first module whose AddProc
// accepts it, decided lazily on first communication and cached, mirroring
// Open MPI's on-demand add_procs (§III-B1). Every module is activated with
// the engine's delivery upcall; the caller transfers ownership and must not
// use the modules afterwards.
func NewEngine(btls []btl.Module, cfg Config) *Engine {
	e := &Engine{
		btls:      btls,
		cfgEager:  cfg.EagerLimit,
		trace:     cfg.Trace,
		orphans:   make(map[uint16][][]byte),
		orphansEx: make(map[ExCID][][]byte),
		pendSend:  make(map[uint64]*pendingSend),
		pendRecv:  make(map[uint64]*postedRecv),
	}
	for _, m := range btls {
		m.Activate(e.deliver)
	}
	return e
}

// deliver is the upcall every BTL invokes for inbound packets. It may run
// on a net progress goroutine or inline on a node-local sender's goroutine.
func (e *Engine) deliver(pkt []byte) {
	if e.closed.Load() {
		return // teardown already failed every pending request
	}
	e.handlePacket(pkt)
}

// Stats returns a snapshot of the engine's message counters.
func (e *Engine) Stats() Stats {
	return Stats{
		FastSent:       e.st.fastSent.Load(),
		ExtSent:        e.st.extSent.Load(),
		AcksSent:       e.st.acksSent.Load(),
		AcksRecved:     e.st.acksRecved.Load(),
		Rendezvous:     e.st.rendezvous.Load(),
		PostedHits:     e.st.postedHits.Load(),
		UnexpectedHits: e.st.unexpectedHits.Load(),
		DupsDropped:    e.st.dupsDropped.Load(),
		ReorderStashed: e.st.reorderStashed.Load(),
	}
}

// BTLStats returns each transport module's traffic counters, keyed by
// component name ("sm", "net").
func (e *Engine) BTLStats() map[string]btl.Stats {
	out := make(map[string]btl.Stats, len(e.btls))
	for _, m := range e.btls {
		out[m.Name()] = m.Stats()
	}
	return out
}

func (e *Engine) peerFailed(globalRank int) bool {
	if e.failedCount.Load() == 0 {
		return false
	}
	_, failed := e.failedPeers.Load(globalRank)
	return failed
}

// Close shuts down the engine: every BTL module is closed (net blocks until
// its progress goroutine has drained and exited, so no goroutine outlives
// Close), and all pending requests fail with ErrClosed. The closed flag is
// published before any queue is drained, and both Irecv and the rendezvous
// registration re-check it under their respective lock, so no request can
// slip into a queue after its drain.
func (e *Engine) Close() {
	if !e.closed.CompareAndSwap(false, true) {
		return
	}
	var reqs []*Request
	var frees []*postedRecv
	e.comms.Range(func(_, v any) bool {
		ch := v.(*Channel)
		ch.lock.Lock()
		posted := ch.m.takeAllPosted()
		unex := ch.m.takeAllUnexpected()
		unex = append(unex, ch.drainStashLocked()...)
		ch.cond.Broadcast()
		ch.lock.Unlock()
		for _, pr := range posted {
			reqs = append(reqs, pr.req)
			frees = append(frees, pr)
		}
		for _, m := range unex {
			e.putBuf(m.raw)
			e.freeInbound(m)
		}
		return true
	})
	e.pendMu.Lock()
	for _, ps := range e.pendSend {
		reqs = append(reqs, ps.req)
	}
	for _, pr := range e.pendRecv {
		reqs = append(reqs, pr.req)
		frees = append(frees, pr)
	}
	e.pendSend = map[uint64]*pendingSend{}
	e.pendRecv = map[uint64]*postedRecv{}
	e.pendMu.Unlock()
	for _, m := range e.btls {
		m.Close()
	}
	for _, r := range reqs {
		r.complete(Status{}, ErrClosed)
	}
	for _, pr := range frees {
		e.freePostedRecv(pr)
	}
}

// AllocCID returns the lowest unused local CID at or above min, reserving
// nothing: the caller must register a channel to claim it. It mirrors Open
// MPI's "lowest available index in the local communicator array" step of
// the consensus algorithm.
func (e *Engine) AllocCID(min uint16) uint16 {
	e.regMu.Lock()
	defer e.regMu.Unlock()
	return e.lowestFreeCID(min)
}

// lowestFreeCID answers from the free list plus a high-water mark instead
// of rescanning the registry per candidate: every CID below cidHWM that is
// not currently claimed sits in the sorted cidFree slice, so the lowest
// free CID >= min is one binary search away. Caller holds regMu.
func (e *Engine) lowestFreeCID(min uint16) uint16 {
	i := sort.Search(len(e.cidFree), func(i int) bool { return e.cidFree[i] >= min })
	if i < len(e.cidFree) {
		return e.cidFree[i]
	}
	if int(min) > e.cidHWM {
		return min
	}
	return uint16(e.cidHWM)
}

// claimCID marks cid in use. Claims above the high-water mark push the
// skipped range onto the free list (the appended values exceed every
// existing entry, so the list stays sorted). Caller holds regMu.
func (e *Engine) claimCID(cid uint16) {
	if int(cid) >= e.cidHWM {
		for v := e.cidHWM; v < int(cid); v++ {
			e.cidFree = append(e.cidFree, uint16(v))
		}
		e.cidHWM = int(cid) + 1
		return
	}
	i := sort.Search(len(e.cidFree), func(i int) bool { return e.cidFree[i] >= cid })
	if i < len(e.cidFree) && e.cidFree[i] == cid {
		e.cidFree = append(e.cidFree[:i], e.cidFree[i+1:]...)
	}
}

// releaseCID returns cid to the allocator (sorted insert). Caller holds
// regMu.
func (e *Engine) releaseCID(cid uint16) {
	if int(cid) >= e.cidHWM {
		return
	}
	i := sort.Search(len(e.cidFree), func(i int) bool { return e.cidFree[i] >= cid })
	if i < len(e.cidFree) && e.cidFree[i] == cid {
		return // already free
	}
	e.cidFree = append(e.cidFree, 0)
	copy(e.cidFree[i+1:], e.cidFree[i:])
	e.cidFree[i] = cid
}

// AddChannel registers a communicator with the matching engine. localCID
// must be unused. For exCID communicators (useEx), ex must be unique.
// Packets that raced ahead of the registration (a peer finished creating
// the communicator first and already sent) are replayed.
func (e *Engine) AddChannel(localCID uint16, ex ExCID, useEx bool, myRank int, ranks []int) (*Channel, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	ch := &Channel{
		eng:      e,
		localCID: localCID,
		ex:       ex,
		useEx:    useEx,
		myRank:   myRank,
		ranks:    append([]int(nil), ranks...),
		peers:    make([]peerState, len(ranks)),
		m:        newBucketMatcher(len(ranks)),
	}
	ch.cond.L = &ch.lock
	e.regMu.Lock()
	if _, dup := e.comms.Load(localCID); dup {
		e.regMu.Unlock()
		return nil, fmt.Errorf("pml: local CID %d already in use", localCID)
	}
	if useEx {
		if _, dup := e.byEx.Load(ex); dup {
			e.regMu.Unlock()
			return nil, fmt.Errorf("pml: exCID %v already in use", ex)
		}
	}
	e.comms.Store(localCID, ch)
	e.claimCID(localCID)
	var replay [][]byte
	if useEx {
		e.byEx.Store(ex, ch)
		replay = e.orphansEx[ex]
		delete(e.orphansEx, ex)
	} else {
		replay = e.orphans[localCID]
		delete(e.orphans, localCID)
	}
	e.regMu.Unlock()
	for _, pkt := range replay {
		e.handlePacket(pkt)
	}
	return ch, nil
}

// RemoveChannel deregisters a communicator. Posted receives on it fail.
// The registry entries go first so in-flight packets fall through to the
// orphan buffers; a handler that captured the channel pointer before the
// delete observes the removed flag under the channel lock and retries its
// lookup.
func (e *Engine) RemoveChannel(ch *Channel) {
	e.regMu.Lock()
	if cur, ok := e.comms.Load(ch.localCID); ok && cur.(*Channel) == ch {
		e.comms.Delete(ch.localCID)
		if ch.useEx {
			e.byEx.Delete(ch.ex)
		}
		e.releaseCID(ch.localCID)
	}
	e.regMu.Unlock()
	ch.lock.Lock()
	if ch.removed {
		ch.lock.Unlock()
		return
	}
	ch.removed = true
	posted := ch.m.takeAllPosted()
	unex := ch.m.takeAllUnexpected()
	unex = append(unex, ch.drainStashLocked()...)
	ch.cond.Broadcast()
	ch.lock.Unlock()
	for _, m := range unex {
		e.putBuf(m.raw)
		e.freeInbound(m)
	}
	for _, pr := range posted {
		pr.req.complete(Status{}, ErrClosed)
		e.freePostedRecv(pr)
	}
}

// drainStashLocked empties every peer's out-of-order stash for teardown.
// Caller holds the channel lock. Stashed RTS records have a nil raw, which
// putBuf treats as a no-op, so the caller can recycle uniformly.
func (ch *Channel) drainStashLocked() []*inbound {
	var out []*inbound
	for i := range ch.peers {
		for _, m := range ch.peers[i].stash {
			out = append(out, m)
		}
		ch.peers[i].stash = nil
	}
	return out
}

// LocalCID returns the channel's local communicator ID.
func (ch *Channel) LocalCID() uint16 { return ch.localCID }

// Ex returns the channel's extended CID (zero-valued if not in use).
func (ch *Channel) Ex() ExCID { return ch.ex }

// Size returns the number of ranks in the channel.
func (ch *Channel) Size() int { return len(ch.ranks) }

// Rank returns the calling process's rank within the channel.
func (ch *Channel) Rank() int { return ch.myRank }

// GlobalRank translates a comm rank to the job-global rank.
func (ch *Channel) GlobalRank(commRank int) int { return ch.ranks[commRank] }

// routeTo returns the cached transport for a peer, selecting one on first
// use: modules are tried in priority order and the first whose AddProc
// accepts the peer wins; ErrUnreachable falls through to the next module,
// any other resolution error aborts. AddProc may block on the modex
// exchange, so the cache is a sync.Map — the steady-state hit takes no lock.
func (e *Engine) routeTo(globalRank int) (*route, error) {
	if v, ok := e.routes.Load(globalRank); ok {
		return v.(*route), nil
	}
	for _, m := range e.btls {
		ep, err := m.AddProc(globalRank)
		if errors.Is(err, btl.ErrUnreachable) {
			if e.trace != nil {
				e.trace.Logf("btl", "%s cannot reach rank %d, falling back", m.Name(), globalRank)
			}
			continue
		}
		if err != nil {
			return nil, err
		}
		eager := e.cfgEager
		if eager <= 0 {
			eager = m.EagerLimit()
		}
		if eager <= 0 {
			eager = DefaultEagerLimit
		}
		if e.trace != nil {
			e.trace.Logf("btl", "rank %d routed via %s (eager=%d)", globalRank, m.Name(), eager)
		}
		rt := &route{mod: m, ep: ep, eager: eager}
		if prior, loaded := e.routes.LoadOrStore(globalRank, rt); loaded {
			rt = prior.(*route) // a concurrent caller routed this peer first
		}
		return rt, nil
	}
	return nil, fmt.Errorf("pml: no btl module reaches rank %d", globalRank)
}

// handlePacket decodes and dispatches one wire packet. It runs on whatever
// goroutine the carrying BTL delivers from and holds no locks across sends.
// The engine owns pkt from here on (btl.DeliverFunc contract) and recycles
// it once nothing references the backing array.
func (e *Engine) handlePacket(pkt []byte) {
	env, err := decodeEnvelope(pkt)
	if err != nil {
		return // truncated or unknown: drop, as ob1 does for corrupt frames
	}
	hdr := env.hdr

	switch hdr.typ {
	case hdrMatch, hdrRTS:
		e.handleMatch(pkt, env)

	case hdrCTS:
		e.pendMu.Lock()
		ps := e.pendSend[env.cts.sendReqID]
		delete(e.pendSend, env.cts.sendReqID)
		e.pendMu.Unlock()
		if ps == nil {
			e.putBuf(pkt) // duplicate or stale CTS: the send already resolved
			return
		}
		// Ship the payload tagged with the receiver's request ID.
		data := e.getBuf(matchHeaderLen + dataInfoLen + len(ps.payload))
		putMatchHeader(data, matchHeader{typ: hdrData})
		putUint64(data[matchHeaderLen:], env.cts.recvReqID)
		copy(data[matchHeaderLen+dataInfoLen:], ps.payload)
		e.putBuf(pkt)
		rt, err := e.routeTo(ps.destGlobal)
		if err == nil {
			err = rt.ep.Send(data)
		}
		if err != nil {
			ps.req.complete(Status{}, e.wrapSendErr(ps.destGlobal, err))
			return
		}
		ps.req.complete(Status{Count: len(ps.payload)}, nil)

	case hdrData:
		e.pendMu.Lock()
		pr := e.pendRecv[env.dataReqID]
		delete(e.pendRecv, env.dataReqID)
		e.pendMu.Unlock()
		if pr == nil {
			e.putBuf(pkt) // duplicate DATA or failed receive: nothing to fill
			return
		}
		n := copy(pr.buf, env.payload)
		st := Status{Source: pr.resSrc, Tag: pr.resTag, Count: n}
		var cerr error
		if len(env.payload) > len(pr.buf) {
			cerr = ErrTruncate
		}
		e.putBuf(pkt)
		pr.req.complete(st, cerr)
		e.freePostedRecv(pr)

	case hdrRevoke:
		e.handleRevoke(pkt, env)

	case hdrCIDAck:
		if v, ok := e.byEx.Load(env.ack.ex); ok {
			ch := v.(*Channel)
			if int(env.ack.commRank) < len(ch.peers) {
				ch.lock.Lock()
				ps := &ch.peers[env.ack.commRank]
				ps.remoteCID = env.ack.localCID
				ps.haveACK = true
				ch.lock.Unlock()
			}
		}
		e.st.acksRecved.Add(1)
		e.putBuf(pkt)
	}
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getUint64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}
