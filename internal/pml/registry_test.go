package pml

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gompi/internal/btl"
)

// stampModule is a sink transport for the registry stress test. Every
// endpoint it resolves carries its peer's incarnation at resolve time, so a
// send that went out on a route RevivePeer had cleared shows up as a stale
// stamp. Packets sent to it are recorded (ACKs, the last stamp toward each
// peer) and recycled.
type stampModule struct {
	inc       [3]atomic.Uint64 // per global rank: the incarnation AddProc stamps
	lastStamp [3]atomic.Uint64 // per global rank: the stamp of the last send
	acks      chan cidAck
}

type stampEndpoint struct {
	m     *stampModule
	peer  int
	stamp uint64
}

func (m *stampModule) Name() string             { return "stamp" }
func (m *stampModule) EagerLimit() int          { return DefaultEagerLimit }
func (m *stampModule) Activate(btl.DeliverFunc) {}
func (m *stampModule) Stats() btl.Stats         { return btl.Stats{} }
func (m *stampModule) Close()                   {}

// AddProc yields after taking the stamp, as a real module may block on the
// modex, which widens the window for a revive to land mid-resolution.
func (m *stampModule) AddProc(globalRank int) (btl.Endpoint, error) {
	ep := &stampEndpoint{m: m, peer: globalRank, stamp: m.inc[globalRank].Load()}
	runtime.Gosched()
	return ep, nil
}

func (ep *stampEndpoint) Send(pkt []byte) error {
	ep.m.lastStamp[ep.peer].Store(ep.stamp)
	if env, err := decodeEnvelope(pkt); err == nil && env.hdr.typ == hdrCIDAck {
		ep.m.acks <- env.ack
	}
	ArenaPut(pkt)
	return nil
}

// frame builds the wire frame peer comm rank 1 would send on a channel of
// ranks {0, 1}: fast-path when ex is zero, extended otherwise.
func frame(ctx uint16, ex ExCID, seq uint16, round, i int) []byte {
	hdr := matchHeader{typ: hdrMatch, ctx: ctx, src: 1, tag: 7, seq: seq}
	n := matchHeaderLen
	if !ex.IsZero() {
		hdr.flags |= flagExt
		n += extHeaderLen
	}
	pkt := ArenaGet(n + 8)
	putMatchHeader(pkt, hdr)
	if !ex.IsZero() {
		putExtHeader(pkt[matchHeaderLen:], extHeader{ex: ex, localCID: 500, commSize: 2})
	}
	binary.LittleEndian.PutUint32(pkt[n:], uint32(round))
	binary.LittleEndian.PutUint32(pkt[n+4:], uint32(i))
	return pkt
}

// TestRegistryStress races the copy-on-write channel and route tables
// against the packet path, for the race detector and for accounting. One
// goroutine adds channels (consensus and exCID, on reused local CIDs),
// receives their frames and removes them. Another delivers those frames,
// half the rounds after the channel is registered and half racing its
// registration, so many are orphaned and replayed. A third revives peers
// and reads a churned CID slot, a fourth sends, and a fifth churns that
// slot. Every frame must end in exactly one place: received once, in
// order, by its own channel (directly, or after an orphan replay; a frame
// that overtakes a replay in progress waits in the reorder stash), or, for
// the stale fast-path frame each exCID round sends ahead of its first
// extended frame, counted in DupsDropped. No send may go out on a route
// that a RevivePeer which returned before the send started had cleared.
func TestRegistryStress(t *testing.T) {
	const (
		rounds   = 400
		perRound = 4 // real frames per round
		inFlight = 4 // rounds delivered ahead of their removal; CIDs repeat every inFlight rounds
		timeout  = 10 * time.Second
	)
	mod := &stampModule{acks: make(chan cidAck, 1)}
	e := NewEngine([]btl.Module{mod}, Config{})
	defer e.Close()
	pair := []int{0, 1}
	cidOf := func(r int) uint16 {
		if r%2 == 1 {
			return 40 + uint16(r%inFlight) // exCID rounds
		}
		return 10 + uint16(r%inFlight)
	}
	exOf := func(r int) ExCID {
		if r%2 == 1 {
			return ExCID{PGCID: uint64(r + 1)}
		}
		return ExCID{}
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, 8) // the first failures of any goroutine; fail drops the rest
	fail := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}
	slots := make(chan struct{}, inFlight-1) // rounds delivered but not yet removed
	added := make(chan int, rounds)          // rounds whose channel is registered, in order

	wg.Add(1)
	go func() { // adder: add, receive every real frame, remove
		defer wg.Done()
		buf := make([]byte, 8)
		for r := 0; r < rounds; r++ {
			ch, err := e.AddChannel(cidOf(r), exOf(r), r%2 == 1, 0, pair)
			if err != nil {
				fail("round %d: AddChannel: %v", r, err)
				return
			}
			added <- r
			for i := 0; i < perRound; i++ {
				req := ch.Irecv(1, 7, buf)
				select {
				case <-req.Done():
				case <-time.After(timeout):
					fail("round %d: frame %d never arrived", r, i)
					return
				}
				if _, err := req.Wait(); err != nil {
					fail("round %d frame %d: %v", r, i, err)
					return
				}
				if gr, gi := binary.LittleEndian.Uint32(buf), binary.LittleEndian.Uint32(buf[4:]); gr != uint32(r) || gi != uint32(i) {
					fail("round %d frame %d: channel received round %d frame %d", r, i, gr, gi)
					return
				}
			}
			e.RemoveChannel(ch)
			<-slots
		}
	}()

	var staleSent uint64
	wg.Add(1)
	go func() { // deliverer
		defer wg.Done()
		addedThrough := -1
		for r := 0; r < rounds; r++ {
			select {
			case slots <- struct{}{}:
			case <-time.After(timeout):
				fail("round %d: the adder stopped removing", r)
				return
			}
			// Half the rounds go out once their channel is registered, so
			// frames meet it directly; the rest race its registration.
			for r%4 >= 2 && addedThrough < r {
				select {
				case addedThrough = <-added:
				case <-time.After(timeout):
					fail("round %d: the adder stopped adding", r)
					return
				}
			}
			if r%2 == 0 {
				for i := 0; i < perRound; i++ {
					e.deliver(frame(cidOf(r), ExCID{}, uint16(i), r, i))
				}
				continue
			}
			// A stale fast-path frame on the CID, then the first extended
			// frame; after the ACK, the rest on the fast path.
			staleSent++
			e.deliver(frame(cidOf(r), ExCID{}, 0, r, 0xffff))
			e.deliver(frame(0, exOf(r), 0, r, 0))
			var ack cidAck
			select {
			case ack = <-mod.acks:
			case <-time.After(timeout):
				fail("round %d: no ACK", r)
				return
			}
			if ack.ex != exOf(r) || ack.localCID != cidOf(r) {
				fail("round %d: ACK for %v CID %d, want %v CID %d", r, ack.ex, ack.localCID, exOf(r), cidOf(r))
				return
			}
			for i := 1; i < perRound; i++ {
				e.deliver(frame(ack.localCID, ExCID{}, uint16(i), r, i))
			}
		}
	}()

	var floor [3]atomic.Uint64 // per global rank: incarnation a returned RevivePeer guarantees
	var background sync.WaitGroup
	background.Add(3)
	go func() { // reviver
		defer background.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for g := 1; g <= 2; g++ {
				inc := mod.inc[g].Add(1)
				e.RevivePeer(g)
				floor[g].Store(inc)
			}
			// A revocation notice for the churned CID: its lookup takes no
			// lock on a hit or a miss.
			pkt := ArenaGet(matchHeaderLen)
			putMatchHeader(pkt, matchHeader{typ: hdrRevoke, ctx: 2, src: 1})
			e.deliver(pkt)
			time.Sleep(50 * time.Microsecond)
		}
	}()
	go func() { // churn: a CID slot rewritten with nothing ordering it against the reviver's reads
		defer background.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			ch, err := e.AddChannel(2, ExCID{}, false, 0, pair)
			if err != nil {
				fail("churn channel: %v", err)
				return
			}
			e.RemoveChannel(ch)
		}
	}()
	go func() { // sender toward global rank 2
		defer background.Done()
		ch, err := e.AddChannel(1, ExCID{}, false, 0, []int{0, 2})
		if err != nil {
			fail("sender channel: %v", err)
			return
		}
		for {
			select {
			case <-done:
				return
			default:
			}
			want := floor[2].Load()
			if err := ch.Send(1, 3, []byte("x")); err != nil {
				fail("send: %v", err)
				return
			}
			if got := mod.lastStamp[2].Load(); got < want {
				fail("send used incarnation %d's route after RevivePeer returned for %d", got, want)
				return
			}
		}
	}()

	wg.Wait()
	close(done)
	background.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.DupsDropped != staleSent {
		t.Errorf("DupsDropped = %d, want the %d stale frames", st.DupsDropped, staleSent)
	}
	if got := st.PostedHits + st.UnexpectedHits; got != rounds*perRound {
		t.Errorf("matched %d frames, want %d", got, rounds*perRound)
	}
	e.regMu.Lock()
	left := len(e.orphans) + len(e.orphansEx)
	e.regMu.Unlock()
	if left != 0 {
		t.Errorf("%d orphan lists left over, want none", left)
	}
}
