//go:build debug

package pml

import (
	"errors"
	"fmt"
	"sync"
)

// Debug-build arena guard (enabled with -tags debug). Every class-pool
// buffer is tracked by its array pointer: recycling a buffer that is
// already in the pool panics immediately instead of corrupting two
// future owners, and every recycled buffer is filled with poolPoison so
// a stale reader observes garbage (and, under -race, a write/read race)
// rather than silently reading the next owner's packet.
//
// Blocking receives' recycled requests get the same treatment: a request
// parked in its engine's spare slot reads as complete with a poisoned
// status and error, and completing it panics, since only a completion
// that outlived the Wait it belonged to can reach a parked request.
const poolPoison = 0xDB

// poisonedStatus is what a stale reader of a parked request sees.
const poisonedStatus = -0x24242424

var errPoisonedRequest = errors.New("pml: recycled receive request read after its Wait returned")

var (
	guardMu     sync.Mutex
	guardInPool = map[any]bool{}
	guardParked = map[*Request]bool{}
)

// guardRecvPark poisons r as it enters its engine's spare slot.
func guardRecvPark(r *Request) {
	guardMu.Lock()
	guardParked[r] = true
	guardMu.Unlock()
	r.src, r.tag, r.count, r.err = poisonedStatus, poisonedStatus, poisonedStatus, errPoisonedRequest
	r.hook.Store(&fired)
}

// guardRecvTake readies a parked request for its next blocking receive.
func guardRecvTake(r *Request) {
	guardMu.Lock()
	delete(guardParked, r)
	guardMu.Unlock()
	r.recycle()
}

// guardComplete panics on the completion of a parked request.
func guardComplete(r *Request) {
	guardMu.Lock()
	parked := guardParked[r]
	guardMu.Unlock()
	if parked {
		panic(fmt.Sprintf("pml: complete of recycled receive request %p after its Wait returned", r))
	}
}

// guardCheckout marks p as owned by a caller again.
func guardCheckout(p any) {
	guardMu.Lock()
	delete(guardInPool, p)
	guardMu.Unlock()
}

// guardRecycle poisons b and marks p as pooled, panicking on a double
// recycle.
func guardRecycle(p any, b []byte) {
	guardMu.Lock()
	if guardInPool[p] {
		guardMu.Unlock()
		panic(fmt.Sprintf("pml: arena buffer %p recycled twice (double putBuf)", p))
	}
	guardInPool[p] = true
	guardMu.Unlock()
	for i := range b {
		b[i] = poolPoison
	}
}
