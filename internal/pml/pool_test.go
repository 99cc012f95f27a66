package pml

import (
	"bytes"
	"runtime"
	"testing"

	btlnet "gompi/internal/btl/net"
	btlsm "gompi/internal/btl/sm"
	btludp "gompi/internal/btl/udp"
)

// TestArenaCoversEagerLimits pins the header-room rule: the largest packet
// the engine builds at each BTL's eager limit — with and without the exCID
// extended header — and a 64 KiB rendezvous DATA packet all come out of an
// arena class, and the smallest class that holds them.
func TestArenaCoversEagerLimits(t *testing.T) {
	if room := matchHeaderLen + extHeaderLen + rndvInfoLen; arenaHeaderRoom < room {
		t.Fatalf("arenaHeaderRoom = %d, the longest header is %d bytes", arenaHeaderRoom, room)
	}
	cases := []struct {
		name string
		n    int
		want int
	}{
		{"sm eager", matchHeaderLen + btlsm.DefaultEagerLimit, bufClassLarge},
		{"sm eager ext", matchHeaderLen + extHeaderLen + btlsm.DefaultEagerLimit, bufClassLarge},
		{"net eager", matchHeaderLen + btlnet.DefaultEagerLimit, bufClassMed},
		{"net eager ext", matchHeaderLen + extHeaderLen + btlnet.DefaultEagerLimit, bufClassMed},
		{"udp eager", matchHeaderLen + btludp.DefaultEagerLimit, bufClassMed},
		{"udp eager ext", matchHeaderLen + extHeaderLen + btludp.DefaultEagerLimit, bufClassMed},
		{"64KiB rendezvous DATA", matchHeaderLen + dataInfoLen + 64<<10, bufClassLarge},
	}
	for _, tc := range cases {
		b := ArenaGet(tc.n)
		if len(b) != tc.n || cap(b) != tc.want {
			t.Errorf("%s: ArenaGet(%d) has len %d cap %d, want the %d-byte class", tc.name, tc.n, len(b), cap(b), tc.want)
		}
		ArenaPut(b)
	}
}

// TestLargeEagerPingPongAllocs is the 64 KiB cliff as a count: once the arena
// is warm, a 64 KiB eager message over sm must not allocate its packet. A
// miss costs the whole packet (~64 KiB per message); what remains is the
// request and status records.
func TestLargeEagerPingPongAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool discards Puts at random under -race")
	}
	tn := newMixedNet(t, 1, 2, Config{})
	chs := tn.worldChannels(t, 0)
	payload := bytes.Repeat([]byte("p"), btlsm.DefaultEagerLimit)
	echo := make([]byte, len(payload))
	back := make([]byte, len(payload))

	pingPong := func(iters int) {
		done := make(chan error, 1)
		go func() {
			for i := 0; i < iters; i++ {
				if _, err := chs[1].Irecv(0, 5, echo).Wait(); err != nil {
					done <- err
					return
				}
				if err := chs[1].Send(0, 5, echo); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		for i := 0; i < iters; i++ {
			if err := chs[0].Send(1, 5, payload); err != nil {
				t.Fatal(err)
			}
			if _, err := chs[0].Irecv(1, 5, back).Wait(); err != nil {
				t.Fatal(err)
			}
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	pingPong(16) // warm the large class
	if s := tn.engines[0].Stats(); s.Rendezvous != 0 {
		t.Fatalf("64 KiB over sm used rendezvous (%+v); this test measures the eager path", s)
	}
	const iters = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pingPong(iters)
	runtime.ReadMemStats(&after)
	if !bytes.Equal(back, payload) {
		t.Fatal("payload corrupted on the way round")
	}
	perMsg := (after.TotalAlloc - before.TotalAlloc) / (2 * iters)
	t.Logf("%d bytes allocated per 64 KiB eager message", perMsg)
	if perMsg >= 4096 {
		t.Errorf("%d bytes allocated per 64 KiB eager message, want < 4096: the packet is missing the arena", perMsg)
	}
}

// TestEagerSendAllocDrop pins the eager path's allocation count: once routes
// and pools are warm, an 8-byte Isend over sm — packet build, inline
// delivery, match against a pre-posted receive and completion, all on the
// sender's goroutine — allocates at most one object (the sender's completed
// Request). Packets and matching records come from the pools; the unpooled
// single-lock engine this replaced read 3.0 here.
func TestEagerSendAllocDrop(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool discards Puts at random under -race")
	}
	tn := newMixedNet(t, 1, 2, Config{})
	chs := tn.worldChannels(t, 0)
	sbuf := make([]byte, 8)
	rbuf := make([]byte, 8)
	for i := 0; i < 8; i++ { // warm routes and pools
		r := chs[1].Irecv(0, 1, rbuf)
		if _, err := chs[0].Isend(1, 1, sbuf).Wait(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 200
	reqs := make([]*Request, 0, runs+1)
	for i := 0; i < runs+1; i++ { // +1: AllocsPerRun's warm-up call
		reqs = append(reqs, chs[1].Irecv(0, 1, rbuf))
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := chs[0].Isend(1, 1, sbuf).Wait(); err != nil {
			t.Fatal(err)
		}
	})
	if err := WaitAll(reqs...); err != nil {
		t.Fatal(err)
	}
	t.Logf("eager send allocs/op: %.1f", allocs)
	if allocs > 1.0 {
		t.Errorf("warmed 8 B eager send allocates %.1f objects per message, want <= 1.0", allocs)
	}
}
