package pml

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"gompi/internal/opal"
)

// TestRequestLayout pins the size the hot path was tuned for: a request
// fits one 64-byte size class.
func TestRequestLayout(t *testing.T) {
	if n := unsafe.Sizeof(Request{}); n > 64 {
		t.Errorf("Request is %d bytes, want <= 64", n)
	}
}

// TestChannelLayout pins where a channel's contended lock and cond sit:
// last, and at least a cache line past the last byte of the immutable
// header (eng through ranks) that every send reads without the lock. A
// heap object's start is not cache-line aligned, so only that distance
// keeps the two apart wherever the channel lands; with the lock right
// after ranks, data-sim's allreduce_32KiB_us read 4–5 % slower.
func TestChannelLayout(t *testing.T) {
	ct := reflect.TypeOf(Channel{})
	n := ct.NumField()
	if got := ct.Field(n-2).Name + "," + ct.Field(n-1).Name; got != "lock,cond" {
		t.Errorf("Channel's last fields are %s, want lock,cond", got)
	}
	var ch Channel
	const cacheLine = 64
	headerLast := unsafe.Offsetof(ch.ranks) + unsafe.Sizeof(ch.ranks) - 1
	for _, f := range []struct {
		name string
		off  uintptr
	}{{"eng", unsafe.Offsetof(ch.eng)}, {"localCID", unsafe.Offsetof(ch.localCID)}, {"ex", unsafe.Offsetof(ch.ex)},
		{"useEx", unsafe.Offsetof(ch.useEx)}, {"myRank", unsafe.Offsetof(ch.myRank)}} {
		if f.off > headerLast {
			t.Errorf("header field %s at offset %d lies past ranks (last byte %d)", f.name, f.off, headerLast)
		}
	}
	if lock := unsafe.Offsetof(ch.lock); lock < headerLast+cacheLine {
		t.Errorf("Channel.lock at offset %d shares a cache line with the header ending at %d; want >= %d",
			lock, headerLast, headerLast+cacheLine)
	}
}

// TestRequestConcurrentWaiters completes one request under every kind of
// observer at once — parked Waits, Done selects, Test pollers and a Notify
// hook — and checks that each sees the one status, that the hook runs
// exactly when Notify accepted it, and that no goroutine is left behind.
func TestRequestConcurrentWaiters(t *testing.T) {
	base := runtime.NumGoroutine()
	e := &Engine{}
	want := Status{Source: 3, Tag: -34, Count: 8}
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		r := newRequest(e)
		var wg sync.WaitGroup
		var bad atomic.Int32
		check := func(st Status, err error) {
			if st != want || err != nil {
				bad.Add(1)
			}
		}
		var hookRuns atomic.Int32
		var accepted atomic.Bool
		observers := []func(){
			func() { check(r.Wait()) },
			func() { check(r.Wait()) },
			func() {
				<-r.Done()
				ok, st, err := r.Test()
				if !ok {
					bad.Add(1)
				}
				check(st, err)
			},
			func() {
				for {
					if ok, st, err := r.Test(); ok {
						check(st, err)
						return
					}
					runtime.Gosched()
				}
			},
			func() {
				if r.Notify(&opal.Hook{Fn: func(any) { hookRuns.Add(1) }}) {
					accepted.Store(true)
				}
			},
			func() { <-r.Done(); check(r.Wait()) },
		}
		rng.Shuffle(len(observers), func(i, j int) { observers[i], observers[j] = observers[j], observers[i] })
		for _, f := range observers {
			wg.Add(1)
			go func() { defer wg.Done(); f() }()
		}
		if rng.Intn(2) == 0 {
			for !parked(r) { // let an observer park first
				runtime.Gosched()
			}
		}
		r.complete(want, nil)
		wg.Wait()
		if n := bad.Load(); n != 0 {
			t.Fatalf("iteration %d: %d observers saw a wrong or missing status", iter, n)
		}
		if runs, acc := hookRuns.Load(), accepted.Load(); (acc && runs != 1) || (!acc && runs != 0) {
			t.Fatalf("iteration %d: Notify accepted=%v, hook ran %d times", iter, acc, runs)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left behind", runtime.NumGoroutine()-base)
		}
		time.Sleep(time.Millisecond)
	}
	if n := len(e.wakes); n > maxSpareWakes {
		t.Errorf("engine caches %d wake channels, want <= %d", n, maxSpareWakes)
	}
	for _, w := range e.wakes {
		if len(w) != 0 {
			t.Fatal("a cached wake channel still holds a token")
		}
	}
}

// TestSentRequestIsShared pins the eager Isend's request: the shared
// pre-completed value, with an empty status, that no observer can change.
func TestSentRequestIsShared(t *testing.T) {
	tn := newMixedNet(t, 1, 2, Config{})
	chs := tn.worldChannels(t, 0)
	rr := chs[1].Irecv(0, 1, make([]byte, 4))
	r := chs[0].Isend(1, 1, []byte("data"))
	if r != sent {
		t.Fatal("a finished eager Isend did not return the shared request")
	}
	if r.Notify(&opal.Hook{Fn: func(any) { t.Error("hook ran on the shared request") }}) {
		t.Fatal("Notify accepted a hook on the shared request")
	}
	if st, err := r.Wait(); st != (Status{}) || err != nil {
		t.Fatalf("shared request reports %+v, %v", st, err)
	}
	if st, err := rr.Wait(); st.Count != 4 || err != nil {
		t.Fatalf("receive = %+v, %v", st, err)
	}
	// A rendezvous send reports an empty status too.
	big := make([]byte, 1<<17)
	rr = chs[1].Irecv(0, 2, make([]byte, len(big)))
	if st, err := chs[0].Isend(1, 2, big).Wait(); st != (Status{}) || err != nil {
		t.Fatalf("rendezvous send reports %+v, %v", st, err)
	}
	if st, err := rr.Wait(); st.Count != len(big) || err != nil {
		t.Fatalf("rendezvous receive = %+v, %v", st, err)
	}
}

// TestParkedRecvSweeps parks blocking Recvs and completes them with each
// failure sweep — FailPeer, Revoke, RemoveChannel and Close. Each Recv must
// return the sweep's error, and the recycled request must come through
// untouched: the next Recv on it reports its own message's status. Under
// -race a sweep that wrote the request after its Wait returned is a
// reported race; under -tags debug it panics (guardComplete).
func TestParkedRecvSweeps(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sweep func(tn *testNet, ch *Channel)
		want  error
	}{
		{"FailPeer", func(tn *testNet, _ *Channel) { tn.engines[1].FailPeer(0) }, ErrPeerFailed},
		{"Revoke", func(tn *testNet, ch *Channel) { tn.engines[1].Revoke(ch) }, ErrRevoked},
		{"RemoveChannel", func(tn *testNet, ch *Channel) { tn.engines[1].RemoveChannel(ch) }, ErrClosed},
		{"Close", func(tn *testNet, _ *Channel) { tn.engines[1].Close() }, ErrClosed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tn := newMixedNet(t, 1, 3, Config{})
			chs := tn.worldChannels(t, 0)
			spare := tn.worldChannels(t, 1)
			e := tn.engines[1]

			// Warm the spare slot, and remember which request it holds.
			if err := spare[2].Send(1, 1, []byte("w")); err != nil {
				t.Fatal(err)
			}
			if _, err := spare[1].Recv(2, 1, make([]byte, 1)); err != nil {
				t.Fatal(err)
			}
			req := e.recvSpare.Load()

			done := make(chan error, 1)
			go func() {
				_, err := chs[1].Recv(0, 5, make([]byte, 1))
				done <- err
			}()
			awaitParked(t, chs[1], 0)
			if postedRequest(chs[1], 0) != req {
				t.Fatal("the blocking Recv did not reuse the engine's spare request")
			}
			tc.sweep(tn, chs[1])
			if err := <-done; !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if e.recvSpare.Load() != req {
				t.Fatal("the request did not return to the spare slot")
			}
			if tc.name == "Close" {
				return
			}
			// A channel the sweep left alone: the recycled request carries
			// the next message's status, not the sweep's.
			if err := spare[2].Send(1, 4, []byte("ok")); err != nil {
				t.Fatal(err)
			}
			st, err := spare[1].Recv(2, 4, make([]byte, 2))
			if err != nil || st != (Status{Source: 2, Tag: 4, Count: 2}) {
				t.Fatalf("Recv after the sweep = %+v, %v", st, err)
			}
		})
	}
}
