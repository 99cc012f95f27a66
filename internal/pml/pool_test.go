package pml

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

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
// and pools are warm, an 8-byte send over sm — packet build, inline
// delivery, match against a pre-posted receive and completion, all on the
// sender's goroutine — allocates nothing, blocking Send and Isend alike.
// Packets and matching records come from the pools, a blocking Send
// constructs no request, and an Isend that finished at injection returns
// the shared pre-completed one. The unpooled single-lock engine read 3.0
// here, the pooled one 1.0 (the sender's completed Request).
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
	for _, tc := range []struct {
		name string
		send func() error
	}{
		{"Send", func() error { return chs[0].Send(1, 1, sbuf) }},
		{"Isend", func() error { _, err := chs[0].Isend(1, 1, sbuf).Wait(); return err }},
	} {
		reqs := make([]*Request, 0, runs+1)
		for i := 0; i < runs+1; i++ { // +1: AllocsPerRun's warm-up call
			reqs = append(reqs, chs[1].Irecv(0, 1, rbuf))
		}
		allocs := testing.AllocsPerRun(runs, func() {
			if err := tc.send(); err != nil {
				t.Fatal(err)
			}
		})
		if err := WaitAll(reqs...); err != nil {
			t.Fatal(err)
		}
		t.Logf("eager %s allocs/op: %.2f", tc.name, allocs)
		if allocs > 0 {
			t.Errorf("warmed 8 B eager %s allocates %.2f objects per message, want 0", tc.name, allocs)
		}
	}
}

// postedRequest returns the request of the oldest receive posted on ch for
// src, or nil.
func postedRequest(ch *Channel, src int) *Request {
	ch.lock.Lock()
	defer ch.lock.Unlock()
	if pr := ch.m.postSrc[src].head; pr != nil {
		return pr.req
	}
	return nil
}

// parked reports whether a Wait is parked on r.
func parked(r *Request) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wake != nil
}

// awaitParked spins until a receive from src is posted on ch and a Wait is
// parked on it, so the next message takes the posted path and completes a
// parked request.
func awaitParked(t *testing.T, ch *Channel, src int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if r := postedRequest(ch, src); r != nil && parked(r) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no parked receive appeared")
		}
		runtime.Gosched()
	}
}

// TestBlockingRecvAllocs pins the recycled blocking receive: once the
// engine's spare request and wake channel are warm, Recv allocates
// nothing, whether the message was already waiting (unexpected path) or
// arrives while Recv is parked (posted path).
func TestBlockingRecvAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool discards Puts at random under -race")
	}
	tn := newMixedNet(t, 1, 2, Config{})
	chs := tn.worldChannels(t, 0)
	sbuf, rbuf := make([]byte, 8), make([]byte, 8)
	const runs = 200

	unexpected := func() {
		if err := chs[0].Send(1, 1, sbuf); err != nil { // sm delivers inline: queued unexpected
			t.Fatal(err)
		}
		if st, err := chs[1].Recv(0, 1, rbuf); err != nil || st.Count != 8 {
			t.Fatalf("Recv = %+v, %v", st, err)
		}
	}
	for i := 0; i < 8; i++ {
		unexpected()
	}
	if allocs := testing.AllocsPerRun(runs, unexpected); allocs > 0 {
		t.Errorf("warmed blocking Recv on the unexpected path allocates %.2f objects, want 0", allocs)
	}

	start, done := make(chan struct{}), make(chan error)
	go func() {
		for range start {
			st, err := chs[1].Recv(0, 2, rbuf)
			if err == nil && st.Count != 8 {
				err = errors.New("short receive")
			}
			done <- err
		}
	}()
	defer close(start)
	posted := func() {
		start <- struct{}{}
		awaitParked(t, chs[1], 0)
		if err := chs[0].Send(1, 2, sbuf); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	before := tn.engines[1].Stats().PostedHits
	for i := 0; i < 8; i++ {
		posted()
	}
	allocs := testing.AllocsPerRun(runs, posted)
	if hits := tn.engines[1].Stats().PostedHits - before; hits != 8+runs+1 {
		t.Fatalf("%d posted hits, want %d: the loop missed the posted path", hits, 8+runs+1)
	}
	if allocs > 0 {
		t.Errorf("warmed blocking Recv on the posted path allocates %.2f objects, want 0", allocs)
	}
}

// TestIrecvParkedWaitAllocs pins the nonblocking receive: the request the
// caller keeps is the one allocation; the wake channel its parked Wait
// borrows comes from the engine.
func TestIrecvParkedWaitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool discards Puts at random under -race")
	}
	tn := newMixedNet(t, 1, 2, Config{})
	chs := tn.worldChannels(t, 0)
	sbuf, rbuf := make([]byte, 8), make([]byte, 8)
	start, done := make(chan struct{}), make(chan error)
	go func() {
		for range start {
			_, err := chs[1].Irecv(0, 3, rbuf).Wait()
			done <- err
		}
	}()
	defer close(start)
	round := func() {
		start <- struct{}{}
		awaitParked(t, chs[1], 0)
		if err := chs[0].Send(1, 3, sbuf); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(200, round); allocs > 1 {
		t.Errorf("Irecv + parked Wait allocates %.2f objects, want <= 1", allocs)
	}
}
