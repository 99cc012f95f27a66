package pml

import "sync"

// Buffer arena for the packet hot path (DESIGN.md §5b). Wire packets are
// built by the sender and, per the BTL ownership contract (btl.Endpoint.Send),
// owned exclusively by the receiving engine once delivered, so the receiver
// recycles them after the payload has been copied out. Buffers live in three
// size-classed sync.Pools shared by every engine in the process; a class is
// identified by its exact capacity, so putBuf silently drops any slice that
// did not come from the arena: a udp module built without the arena
// allocator, a simnet fault-plan duplicate, an oversize packet that fell
// back to make.
//
// A packet is header + payload, and payload sizes cluster at powers of two
// (a BTL's eager limit, a benchmark's message size), so each payload class
// carries arenaHeaderRoom on top: a packet whose payload is exactly the
// class's power of two still fits with the longest header in front of it.
// Sized without the room, a 64 KiB message misses the arena by 14 bytes and
// pays make + a 64 KiB memclr + GC on every send, and a 4 KiB eager message
// borrows a 64 KiB buffer.
const (
	// arenaHeaderRoom covers the longest header the engine prepends
	// (matchHeaderLen + extHeaderLen + rndvInfoLen = 52 bytes), rounded up
	// to a cache line.
	arenaHeaderRoom = 64

	bufClassSmall = 256                     // control packets and small eager messages, header included
	bufClassMed   = 4096 + arenaHeaderRoom  // header + net/udp eager limit
	bufClassLarge = 65536 + arenaHeaderRoom // header + sm eager limit or a 64 KiB rendezvous DATA payload; larger packets fall back to make
)

// The pools hold *[N]byte array pointers, not []byte: a pointer stores
// directly in sync.Pool's interface word, while a slice header would be
// boxed — one heap allocation per Put, which is exactly the traffic the
// arena exists to remove.
var (
	bufPoolSmall = sync.Pool{New: func() any { return new([bufClassSmall]byte) }}
	bufPoolMed   = sync.Pool{New: func() any { return new([bufClassMed]byte) }}
	bufPoolLarge = sync.Pool{New: func() any { return new([bufClassLarge]byte) }}
)

// ArenaGet returns a length-n buffer from the process-wide packet arena;
// its contents are undefined and every caller fully overwrites [0:n].
// Sizes above the largest class fall back to a fresh allocation. The arena
// is shared with the BTL layer: transport modules that materialize inbound
// packets themselves (udp reassembly) draw from it so the buffers they
// deliver recycle through the same pools the engine drains into.
func ArenaGet(n int) []byte {
	switch {
	case n > bufClassLarge:
		return make([]byte, n)
	case n <= bufClassSmall:
		p := bufPoolSmall.Get().(*[bufClassSmall]byte)
		guardCheckout(p)
		return p[:n]
	case n <= bufClassMed:
		p := bufPoolMed.Get().(*[bufClassMed]byte)
		guardCheckout(p)
		return p[:n]
	default:
		p := bufPoolLarge.Get().(*[bufClassLarge]byte)
		guardCheckout(p)
		return p[:n]
	}
}

// ArenaPut recycles a packet buffer into the arena. Only exact class
// capacities are accepted; anything else (foreign allocation, oversize
// make) is left to the garbage collector.
func ArenaPut(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	switch len(b) {
	case bufClassSmall:
		p := (*[bufClassSmall]byte)(b)
		guardRecycle(p, b)
		bufPoolSmall.Put(p)
	case bufClassMed:
		p := (*[bufClassMed]byte)(b)
		guardRecycle(p, b)
		bufPoolMed.Put(p)
	case bufClassLarge:
		p := (*[bufClassLarge]byte)(b)
		guardRecycle(p, b)
		bufPoolLarge.Put(p)
	}
}

// getBuf returns a length-n buffer whose contents are undefined; every
// caller fully overwrites [0:n] (see ArenaGet).
func (e *Engine) getBuf(n int) []byte { return ArenaGet(n) }

// putBuf recycles a packet buffer (see ArenaPut).
func (e *Engine) putBuf(b []byte) { ArenaPut(b) }

// Matching-record pools: postedRecv and inbound records cycle through the
// queues on every message, so they are recycled once no queue or pending-map
// references them. A record is freed exactly once because every removal from
// a queue or map happens under the owning lock — whoever takes it out owns it.
var (
	postedRecvPool = sync.Pool{New: func() any { return new(postedRecv) }}
	inboundPool    = sync.Pool{New: func() any { return new(inbound) }}
)

func (e *Engine) newPostedRecv() *postedRecv {
	return postedRecvPool.Get().(*postedRecv)
}

func (e *Engine) freePostedRecv(pr *postedRecv) {
	*pr = postedRecv{}
	postedRecvPool.Put(pr)
}

func (e *Engine) newInbound() *inbound {
	return inboundPool.Get().(*inbound)
}

func (e *Engine) freeInbound(m *inbound) {
	*m = inbound{}
	inboundPool.Put(m)
}
