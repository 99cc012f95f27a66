package pml

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"gompi/internal/btl"
	btlsm "gompi/internal/btl/sm"
	btludp "gompi/internal/btl/udp"
	"gompi/internal/simnet"
	"gompi/internal/topo"
)

// payloadProbe wraps a BTL module and records, for each packet it delivers,
// the address of the packet's payload, before the engine takes the packet.
type payloadProbe struct {
	btl.Module
	mu   sync.Mutex
	addr map[probeKey]uintptr
}

type probeKey struct {
	typ uint8
	n   int // payload length
}

func newPayloadProbe(m btl.Module) *payloadProbe {
	return &payloadProbe{Module: m, addr: map[probeKey]uintptr{}}
}

func (p *payloadProbe) Activate(deliver btl.DeliverFunc) {
	p.Module.Activate(func(pkt []byte) {
		if env, err := decodeEnvelope(pkt); err == nil && len(env.payload) > 0 {
			p.mu.Lock()
			p.addr[probeKey{env.hdr.typ, len(env.payload)}] = uintptr(unsafe.Pointer(unsafe.SliceData(env.payload)))
			p.mu.Unlock()
		}
		deliver(pkt)
	})
}

// payloadAddr returns where the last delivered payload of type typ and
// length n started.
func (p *payloadProbe) payloadAddr(t *testing.T, typ uint8, n int) uintptr {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	a, ok := p.addr[probeKey{typ, n}]
	if !ok {
		t.Fatalf("no packet of type %d with a %d-byte payload was delivered", typ, n)
	}
	return a
}

// probedPair builds two engines, each over the one module mk makes for it,
// wrapped in a payloadProbe, with a world channel on each.
func probedPair(t *testing.T, mk func(i int) btl.Module) ([]*Channel, []*payloadProbe, *testNet) {
	t.Helper()
	tn := &testNet{}
	probes := make([]*payloadProbe, 2)
	for i := range probes {
		probes[i] = newPayloadProbe(mk(i))
		tn.engines = append(tn.engines, NewEngine([]btl.Module{probes[i]}, Config{}))
	}
	t.Cleanup(tn.close)
	return tn.worldChannels(t, 0), probes, tn
}

// TestPayloadAlignment pins the arena's payload skew (pool.go): every bulk
// payload a receiver copies out of a packet starts on an 8-byte boundary,
// whichever BTL carried it and whichever path matched it, so the copy never
// runs memmove's REP MOVSQ path from a misaligned source.
func TestPayloadAlignment(t *testing.T) {
	if (matchHeaderLen+dataInfoLen)%8 != matchHeaderLen%8 {
		t.Fatalf("a DATA payload (byte %d) and an eager payload (byte %d) need different skews",
			matchHeaderLen+dataInfoLen, matchHeaderLen)
	}
	aligned := func(t *testing.T, what string, addr uintptr) {
		t.Helper()
		if addr%8 != 0 {
			t.Errorf("%s: payload at %#x, %d bytes past an 8-byte boundary", what, addr, addr%8)
		}
	}
	payload := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*7 + 1)
		}
		return b
	}
	// transfer moves n bytes from rank 0 to rank 1 on the posted path (the
	// receive is posted first) or the unexpected one (the eager send lands
	// first), and checks the bytes and the path taken.
	transfer := func(t *testing.T, chs []*Channel, tn *testNet, n int, posted bool) {
		t.Helper()
		src, dst := payload(n), make([]byte, n)
		before := tn.engines[1].Stats()
		if posted {
			req := chs[1].Irecv(0, 3, dst)
			if err := chs[0].Send(1, 3, src); err != nil {
				t.Fatal(err)
			}
			if _, err := req.Wait(); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := chs[0].Send(1, 3, src); err != nil {
				t.Fatal(err)
			}
			if _, err := chs[1].Recv(0, 3, dst); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(dst, src) {
			t.Fatalf("%d-byte payload corrupted", n)
		}
		after := tn.engines[1].Stats()
		if posted && after.PostedHits == before.PostedHits {
			t.Fatalf("%d bytes: the receive did not take the posted path", n)
		}
		if !posted && after.UnexpectedHits == before.UnexpectedHits {
			t.Fatalf("%d bytes: the receive did not take the unexpected path", n)
		}
	}

	t.Run("sm eager", func(t *testing.T) {
		fabric := simnet.NewFabric(topo.New(topo.Loopback(2), 1))
		chs, probes, tn := probedPair(t, func(i int) btl.Module {
			return btlsm.New(fabric.Segment(0), 0, i, func(int) int { return 0 }, 0)
		})
		for _, n := range []int{4 << 10, btlsm.DefaultEagerLimit} {
			for _, posted := range []bool{true, false} {
				transfer(t, chs, tn, n, posted)
				aligned(t, fmt.Sprintf("%d B eager, posted=%v", n, posted), probes[1].payloadAddr(t, hdrMatch, n))
			}
		}
		if s := tn.engines[0].Stats(); s.Rendezvous != 0 {
			t.Fatalf("sm used rendezvous (%+v); this case covers eager packets", s)
		}
	})

	t.Run("net rendezvous DATA", func(t *testing.T) {
		tn := newWrappedNet(t, 2, Config{}, func(_ int, m btl.Module) btl.Module { return newPayloadProbe(m) })
		chs := tn.worldChannels(t, 0)
		probe := tn.engines[1].btls[0].(*payloadProbe)
		// 64 KiB fills the large class; 200 KiB falls back to an oversize
		// allocation.
		for _, n := range []int{64 << 10, 200 << 10} {
			transfer(t, chs, tn, n, true)
			aligned(t, fmt.Sprintf("%d B DATA", n), probe.payloadAddr(t, hdrData, n))
		}
		if s := tn.engines[0].Stats(); s.Rendezvous != 2 {
			t.Fatalf("%d rendezvous transfers, want 2", s.Rendezvous)
		}
	})

	t.Run("udp reassembled", func(t *testing.T) {
		cards := make([]string, 2)
		chs, probes, tn := probedPair(t, func(i int) btl.Module {
			m, err := btludp.New(btludp.Config{
				Rank:    i,
				Nonce:   0xa11a,
				Resolve: func(r int) (string, error) { return cards[r], nil },
				Alloc:   ArenaGet,
				Free:    ArenaPut,
			})
			if err != nil {
				t.Fatal(err)
			}
			cards[i] = m.Card()
			return m
		})
		// The receiving module rebuilds each packet from its datagrams into
		// a buffer it draws from the arena.
		transfer(t, chs, tn, btludp.DefaultEagerLimit, true)
		aligned(t, "udp eager", probes[1].payloadAddr(t, hdrMatch, btludp.DefaultEagerLimit))
		transfer(t, chs, tn, 64<<10, true)
		aligned(t, "udp DATA", probes[1].payloadAddr(t, hdrData, 64<<10))
	})
}
