package pml

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

func TestPersistentWindowReservation(t *testing.T) {
	tn := newTestNet(t, 2, Config{})
	chans := tn.worldChannels(t, 7)
	ch := chans[0]

	w0, err := ch.ReservePersistentWindow()
	if err != nil {
		t.Fatal(err)
	}
	w1, err := ch.ReservePersistentWindow()
	if err != nil {
		t.Fatal(err)
	}
	if w0 != persistentTagBase {
		t.Fatalf("first window = %d, want %d", w0, persistentTagBase)
	}
	if w1 != persistentTagBase-persistentTagWidth {
		t.Fatalf("second window = %d, want %d", w1, persistentTagBase-persistentTagWidth)
	}
	// Release and re-reserve: the allocator must hand the lowest-numbered
	// window back first, so same-order Init/Free sequences on different
	// members agree on every base tag.
	ch.ReleasePersistentWindow(w0)
	w2, err := ch.ReservePersistentWindow()
	if err != nil {
		t.Fatal(err)
	}
	if w2 != w0 {
		t.Fatalf("re-reserved window = %d, want recycled %d", w2, w0)
	}
	// Double release and junk bases are ignored.
	ch.ReleasePersistentWindow(w1)
	ch.ReleasePersistentWindow(w1)
	ch.ReleasePersistentWindow(w1 - 3) // not a window base
	w3, err := ch.ReservePersistentWindow()
	if err != nil {
		t.Fatal(err)
	}
	if w3 != w1 {
		t.Fatalf("after double release got %d, want %d", w3, w1)
	}
	// The other member runs the same sequence and must agree.
	peer := chans[1]
	seq := func(c *Channel) []int {
		var out []int
		a, _ := c.ReservePersistentWindow()
		b, _ := c.ReservePersistentWindow()
		c.ReleasePersistentWindow(a)
		cc, _ := c.ReservePersistentWindow()
		out = append(out, a, b, cc)
		return out
	}
	got := seq(peer)
	ch2 := tn.engines[0] // fresh channel on engine 0 for a clean allocator
	chA, err := ch2.AddChannel(9, ExCID{}, false, 0, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := seq(chA)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("allocation sequence diverges at step %d: %d vs %d", i, got[i], want[i])
		}
	}
}

// TestPartitionedRoundTrip runs partitioned transfers the way
// mpi.PartitionedRequest issues them: one message per partition, tagged
// PartTag(userTag, partition). Two transfers share the channel, their
// partitions go out in shuffled order, and three rounds are sent before
// the receiver posts anything, once on the eager path and once on the
// rendezvous path. Every partition must land in its own slot of its own
// round: the tags of different (user tag, partition) pairs never match
// each other, and per-(source, tag) order keeps the rounds apart.
func TestPartitionedRoundTrip(t *testing.T) {
	const parts = 8
	const chunk = 512
	const rounds = 3
	userTags := []int{5, MaxPartitionedTag - 1}
	payload := func(round, tag, i int) byte { return byte(i*31 + tag*7 + round*13 + 1) }
	seen := map[int]bool{}
	for _, tag := range userTags {
		for p := 0; p < parts; p++ {
			wire := PartTag(tag, p)
			if wire > partitionedTagBase || seen[wire] {
				t.Fatalf("PartTag(%d, %d) = %d: outside the partitioned region or reused", tag, p, wire)
			}
			seen[wire] = true
		}
	}
	for _, eager := range []int{4 * chunk, chunk / 2} {
		tn := newTestNet(t, 2, Config{EagerLimit: eager})
		chans := tn.worldChannels(t, 3)
		var sends []*Request
		for round := 0; round < rounds; round++ {
			type part struct{ tag, p int }
			var order []part
			for _, tag := range userTags {
				for p := 0; p < parts; p++ {
					order = append(order, part{tag, p})
				}
			}
			rand.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			for _, x := range order {
				wire := PartTag(x.tag, x.p)
				buf := make([]byte, chunk)
				for i := range buf {
					buf[i] = payload(round, x.tag, x.p*chunk+i)
				}
				sends = append(sends, chans[0].Isend(1, wire, buf))
			}
		}
		for round := 0; round < rounds; round++ {
			for _, tag := range userTags {
				recvBuf := make([]byte, parts*chunk)
				var recvs []*Request
				for p := parts - 1; p >= 0; p-- {
					recvs = append(recvs, chans[1].Irecv(0, PartTag(tag, p), recvBuf[p*chunk:(p+1)*chunk]))
				}
				if err := WaitAll(recvs...); err != nil {
					t.Fatalf("eager limit %d, round %d, tag %d: %v", eager, round, tag, err)
				}
				for i, b := range recvBuf {
					if b != payload(round, tag, i) {
						t.Fatalf("eager limit %d, round %d, tag %d: byte %d = %d, want %d",
							eager, round, tag, i, b, payload(round, tag, i))
					}
				}
			}
		}
		if err := WaitAll(sends...); err != nil {
			t.Fatalf("eager limit %d: sends: %v", eager, err)
		}
		if eager < chunk && tn.engines[0].Stats().Rendezvous == 0 {
			t.Fatalf("eager limit %d: no partition took the rendezvous path", eager)
		}
	}
}

// TestPartitionedStateErrors checks the errors partitioned traffic meets
// in the PML when its channel is in a failed state. Partition tags are
// internal, so they follow the internal-traffic rule: a user wildcard
// receive never takes a partition, a partition receive fails fast once any
// member of the channel has died, even when its own peer lives, and a
// revoked channel refuses partitions in both directions and fails those
// already posted.
func TestPartitionedStateErrors(t *testing.T) {
	tn := newTestNet(t, 3, Config{})
	chans := tn.worldChannels(t, 3)

	// A wildcard receive is passed over; the partition receive gets it.
	wild := chans[0].Irecv(AnySource, AnyTag, make([]byte, 4))
	if err := chans[1].Send(0, PartTag(2, 1), []byte("part")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if err := waitErr(t, chans[0].Irecv(1, PartTag(2, 1), got), 5*time.Second); err != nil || string(got) != "part" {
		t.Fatalf("partition receive: %q, %v", got, err)
	}
	if done, _, _ := wild.Test(); done {
		t.Fatal("a user wildcard receive matched a partition")
	}
	if err := chans[1].Send(0, 0, []byte("user")); err != nil {
		t.Fatal(err)
	}
	if err := waitErr(t, wild, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Revocation fails a posted partition receive and refuses new ones.
	posted := chans[0].Irecv(1, PartTag(2, 0), make([]byte, 4))
	tn.engines[0].Revoke(chans[0])
	if err := waitErr(t, posted, 5*time.Second); !errors.Is(err, ErrRevoked) {
		t.Fatalf("posted partition receive after Revoke: %v, want ErrRevoked", err)
	}
	if err := waitErr(t, chans[0].Isend(1, PartTag(2, 0), []byte("x")), 5*time.Second); !errors.Is(err, ErrRevoked) {
		t.Fatalf("partition send on a revoked channel: %v, want ErrRevoked", err)
	}
	if err := waitErr(t, chans[0].Irecv(1, PartTag(2, 0), make([]byte, 4)), 5*time.Second); !errors.Is(err, ErrRevoked) {
		t.Fatalf("partition receive on a revoked channel: %v, want ErrRevoked", err)
	}

	// On a fresh channel, rank 2's death fails a partition receive from
	// live rank 1 and refuses a partition send to rank 2.
	fresh := tn.worldChannels(t, 4)
	pending := fresh[0].Irecv(1, PartTag(3, 0), make([]byte, 4))
	tn.engines[0].FailPeer(2)
	if err := waitErr(t, pending, 5*time.Second); !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("posted partition receive from a live peer after a member died: %v, want ErrPeerFailed", err)
	}
	if err := waitErr(t, fresh[0].Irecv(1, PartTag(3, 1), make([]byte, 4)), 5*time.Second); !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("partition receive from a live peer after a member died: %v, want ErrPeerFailed", err)
	}
	if err := waitErr(t, fresh[0].Isend(2, PartTag(3, 0), []byte("x")), 5*time.Second); !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("partition send to a dead peer: %v, want ErrPeerFailed", err)
	}
}
