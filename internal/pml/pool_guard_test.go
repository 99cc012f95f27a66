//go:build debug

package pml

import "testing"

// These tests only exist in the -tags debug build, where the arena
// guard (pool_guard.go) tracks buffer ownership and poisons recycled
// packets. Run them under the race detector:
//
//	go test -race -tags debug -run TestPoolGuard ./internal/pml
func TestPoolGuardDoublePut(t *testing.T) {
	e := &Engine{}
	b := e.getBuf(bufClassSmall)
	e.putBuf(b)
	defer func() {
		if recover() == nil {
			t.Fatal("double putBuf of the same arena buffer did not panic")
		}
	}()
	e.putBuf(b)
}

func TestPoolGuardPoisonOnRecycle(t *testing.T) {
	e := &Engine{}
	b := e.getBuf(bufClassMed)
	for i := range b {
		b[i] = 0xAA
	}
	e.putBuf(b)
	// A use-after-Put reader must see poison, never its stale payload.
	for i, c := range b {
		if c != poolPoison {
			t.Fatalf("byte %d = %#x after recycle, want poison %#x", i, c, poolPoison)
		}
	}
}

func TestPoolGuardReuseAfterCheckout(t *testing.T) {
	e := &Engine{}
	b := e.getBuf(bufClassSmall)
	e.putBuf(b)
	// A legitimate checkout clears the in-pool mark, so the next recycle
	// of the same backing array is fine.
	c := e.getBuf(bufClassSmall)
	e.putBuf(c)
}

// TestPoolGuardRecvRequestPoisoned covers the recycled blocking receive: a
// request parked in its engine's spare slot reads as a poisoned outcome,
// completing it panics, and the next Recv takes it back clean.
func TestPoolGuardRecvRequestPoisoned(t *testing.T) {
	tn := newMixedNet(t, 1, 2, Config{})
	chs := tn.worldChannels(t, 0)
	if err := chs[0].Send(1, 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := chs[1].Recv(0, 1, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	r := tn.engines[1].recvSpare.Load()
	if r == nil {
		t.Fatal("Recv left no spare request")
	}
	if ok, st, err := r.Test(); !ok || st.Source != poisonedStatus || err != errPoisonedRequest {
		t.Fatalf("parked request reads %v, %+v, %v; want the poison", ok, st, err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("complete of a parked receive request did not panic")
			}
		}()
		r.complete(Status{}, nil)
	}()
	if err := chs[0].Send(1, 2, []byte("bc")); err != nil {
		t.Fatal(err)
	}
	st, err := chs[1].Recv(0, 2, make([]byte, 2))
	if err != nil || st != (Status{Source: 0, Tag: 2, Count: 2}) {
		t.Fatalf("Recv on the recycled request = %+v, %v", st, err)
	}
}
