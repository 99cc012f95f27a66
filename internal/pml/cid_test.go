package pml

import (
	"testing"
	"time"
)

// TestCIDFreeListReuse covers the free-list allocator's release-and-reuse
// order: released CIDs must be handed out again lowest-first, claims above
// the high-water mark must leave the skipped range allocatable, and the
// "lowest unused >= min" contract of the consensus algorithm must hold
// throughout.
func TestCIDFreeListReuse(t *testing.T) {
	e := NewEngine(nil, Config{})
	ranks := []int{0}
	add := func(cid uint16) *Channel {
		t.Helper()
		ch, err := e.AddChannel(cid, ExCID{}, false, 0, ranks)
		if err != nil {
			t.Fatalf("AddChannel(%d): %v", cid, err)
		}
		return ch
	}
	expect := func(min, want uint16) {
		t.Helper()
		if got := e.AllocCID(min); got != want {
			t.Fatalf("AllocCID(%d) = %d, want %d", min, got, want)
		}
	}

	ch0 := add(0)
	ch1 := add(1)
	ch2 := add(2)
	expect(0, 3)

	// Release the middle CID: it must be the next one reused.
	e.RemoveChannel(ch1)
	expect(0, 1)
	ch1 = add(1)
	expect(0, 3)

	// Release in scrambled order; reuse is still lowest-first.
	e.RemoveChannel(ch2)
	e.RemoveChannel(ch0)
	expect(0, 0)
	expect(1, 2) // 1 is still claimed by the re-added channel
	expect(2, 2)
	expect(3, 3)

	// A claim above the high-water mark leaves the gap allocatable.
	ch10 := add(10)
	expect(0, 0)
	ch0 = add(0)
	expect(0, 2)
	expect(5, 5)
	expect(11, 11)

	// min above everything ever claimed.
	expect(200, 200)

	// Releasing the high claim keeps order: 2..9 then 10 then 11.
	e.RemoveChannel(ch10)
	expect(9, 9)
	expect(10, 10)

	// Double-remove must not corrupt the free list.
	e.RemoveChannel(ch0)
	e.RemoveChannel(ch0)
	expect(0, 0)
	add(0)
	expect(0, 2)
	_ = ch1
}

// TestStaleFastFrameAfterCIDReuse replays a hang seen in the twomesh
// recovery chaos test. A survivor frees an exCID communicator and at once
// registers the rebuilt one; a fast-path frame of the old communicator,
// still in flight, then arrives addressed to the old local CID. Had the
// successor taken that CID, the frame would be parked as "ahead" in the
// successor's sequence space, delivered in place of the real frame of its
// number, and the real frame dropped as a duplicate: the receive for it
// would never complete. Two mechanisms keep the frame out, and each case
// pins one: a just-freed exCID local CID is not reused at once, and an
// exCID channel drops fast-path frames from a peer before that peer's
// first extended frame on it.
func TestStaleFastFrameAfterCIDReuse(t *testing.T) {
	for _, tc := range []struct {
		name string
		// successorCID picks the receiver's local CID for the rebuilt
		// communicator; the old one had CID 0.
		successorCID func(e *Engine) uint16
		wantCID      func(cid uint16) bool
	}{
		{"next allocation", func(e *Engine) uint16 { return e.AllocCID(0) },
			func(cid uint16) bool { return cid != 0 }},
		{"forced reuse", func(*Engine) uint16 { return 0 },
			func(cid uint16) bool { return cid == 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tn := newTestNet(t, 2, Config{})
			snd, rcv := tn.engines[0], tn.engines[1]
			ranks := []int{0, 1}
			add := func(e *Engine, cid uint16, ex ExCID, rank int) *Channel {
				t.Helper()
				ch, err := e.AddChannel(cid, ex, true, rank, ranks)
				if err != nil {
					t.Fatal(err)
				}
				return ch
			}

			// The old communicator: one message, then the ACK turns the
			// sender's fast path on.
			old0 := add(snd, snd.AllocCID(0), ExCID{PGCID: 1}, 0)
			old1 := add(rcv, rcv.AllocCID(0), ExCID{PGCID: 1}, 1)
			if old1.LocalCID() != 0 {
				t.Fatalf("old receiver channel has CID %d, want 0", old1.LocalCID())
			}
			if err := old0.Send(1, 1, []byte("x")); err != nil {
				t.Fatal(err)
			}
			if _, err := old1.Recv(0, 1, make([]byte, 1)); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(2 * time.Second)
			for !old0.PeerConnected(1) {
				if time.Now().After(deadline) {
					t.Fatal("handshake never completed")
				}
				time.Sleep(time.Millisecond)
			}

			// The sender's next frame on the old communicator, as it
			// would go out on the fast path: sequence 1, internal tag.
			stale := snd.buildPacket(matchHeader{typ: hdrMatch, ctx: old1.LocalCID(), src: 0, tag: -50, seq: 1},
				old0, false, []byte("s"), nil)

			rcv.RemoveChannel(old1)
			snd.RemoveChannel(old0)
			cid := tc.successorCID(rcv)
			if !tc.wantCID(cid) {
				t.Errorf("successor CID = %d", cid)
			}
			new1 := add(rcv, cid, ExCID{PGCID: 2}, 1)
			rcv.handlePacket(stale) // the late frame lands first
			new0 := add(snd, snd.AllocCID(0), ExCID{PGCID: 2}, 0)

			// The rebuilt communicator's first two frames: sequence 0 and 1.
			r1 := new1.Irecv(0, 7, make([]byte, 1))
			r2 := new1.Irecv(0, -34, make([]byte, 1))
			if err := new0.Send(1, 7, []byte("a")); err != nil {
				t.Fatal(err)
			}
			if err := new0.Send(1, -34, []byte("b")); err != nil {
				t.Fatal(err)
			}
			for _, r := range []*Request{r1, r2} {
				select {
				case <-r.Done():
				case <-time.After(2 * time.Second):
					t.Fatal("a frame of the rebuilt communicator was displaced by the stale frame")
				}
				if _, err := r.Wait(); err != nil {
					t.Fatal(err)
				}
			}
			if _, ok, _ := new1.Iprobe(0, -50); ok {
				t.Fatal("the stale frame was delivered to the rebuilt communicator")
			}
		})
	}
}
