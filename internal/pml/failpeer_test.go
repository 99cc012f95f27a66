package pml

import (
	"errors"
	"testing"
	"time"
)

func TestFailPeerCompletesSpecificRecvs(t *testing.T) {
	tn := newTestNet(t, 3, Config{})
	chs := tn.worldChannels(t, 0)
	// Engine 0 posts a receive from rank 1 (will die) and one from rank 2.
	fromDead := chs[0].Irecv(1, 5, make([]byte, 4))
	fromAlive := chs[0].Irecv(2, 5, make([]byte, 4))

	tn.engines[0].FailPeer(1)

	st, err := fromDead.Wait()
	if !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("recv from dead rank: st=%+v err=%v, want ErrPeerFailed", st, err)
	}
	if done, _, _ := fromAlive.Test(); done {
		t.Fatal("receive from a live rank was failed")
	}
	// The live receive still completes normally.
	if err := chs[2].Send(0, 5, []byte("okay")); err != nil {
		t.Fatal(err)
	}
	if _, err := fromAlive.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestFailPeerSparesWildcardRecvs(t *testing.T) {
	tn := newTestNet(t, 3, Config{})
	chs := tn.worldChannels(t, 0)
	wild := chs[0].Irecv(AnySource, AnyTag, make([]byte, 4))
	tn.engines[0].FailPeer(1)
	if done, _, _ := wild.Test(); done {
		t.Fatal("wildcard receive failed on peer death")
	}
	if err := chs[2].Send(0, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	st, err := wild.Wait()
	if err != nil || st.Source != 2 {
		t.Fatalf("wildcard recv: st=%+v err=%v", st, err)
	}
}

func TestFailPeerCompletesPendingRendezvous(t *testing.T) {
	tn := newTestNet(t, 2, Config{EagerLimit: 8})
	chs := tn.worldChannels(t, 0)
	// A rendezvous send whose receiver never posts: RTS pending for CTS.
	sreq := chs[0].Isend(1, 3, make([]byte, 100))
	time.Sleep(10 * time.Millisecond)
	if done, _, _ := sreq.Test(); done {
		t.Fatal("rendezvous completed without a receive")
	}
	tn.engines[0].FailPeer(1)
	if _, err := sreq.Wait(); !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("pending rendezvous err = %v, want ErrPeerFailed", err)
	}
}

func TestRevivePeerRestoresSends(t *testing.T) {
	tn := newTestNet(t, 2, Config{})
	chs := tn.worldChannels(t, 0)
	tn.engines[0].FailPeer(1)
	if err := chs[0].Send(1, 1, []byte("x")); !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("send to failed peer err = %v, want ErrPeerFailed", err)
	}
	tn.engines[0].RevivePeer(1)
	req := chs[1].Irecv(0, 1, make([]byte, 1))
	if err := chs[0].Send(1, 1, []byte("y")); err != nil {
		t.Fatalf("send after revive: %v", err)
	}
	if _, err := req.Wait(); err != nil {
		t.Fatal(err)
	}
	// The channel that saw the death stays poisoned for collectives even
	// after the revive: its state straddles two incarnations.
	if err := waitErr(t, chs[0].Irecv(1, -3, make([]byte, 1)), 2*time.Second); !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("internal recv on poisoned channel err = %v, want ErrPeerFailed", err)
	}
}

func TestFailPeerUnknownRankIsNoop(t *testing.T) {
	tn := newTestNet(t, 2, Config{})
	chs := tn.worldChannels(t, 0)
	req := chs[0].Irecv(1, 1, make([]byte, 1))
	tn.engines[0].FailPeer(99) // not in any channel
	if done, _, _ := req.Test(); done {
		t.Fatal("unrelated failure completed a receive")
	}
	if err := chs[1].Send(0, 1, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if _, err := req.Wait(); err != nil {
		t.Fatal(err)
	}
}

// A collective's rendezvous send to a live member must not outlive a death
// on its channel: the live member may have bailed out of the collective and
// will never answer the RTS. Pending internal-tag sends fail with the
// channel, and new ones fail fast; application sends to live peers, pending
// or new, are untouched.
func TestFailPeerFailsCollectiveRendezvousSends(t *testing.T) {
	tn := newTestNet(t, 3, Config{EagerLimit: 8})
	chs := tn.worldChannels(t, 0)
	payload := make([]byte, 100)
	collSend := chs[0].Isend(1, -5, payload) // internal tag, live dest, no receive posted
	appSend := chs[0].Isend(1, 5, payload)   // application tag, live dest

	tn.engines[0].FailPeer(2)

	if err := waitErr(t, collSend, 2*time.Second); !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("pending internal-tag rendezvous send err = %v, want ErrPeerFailed", err)
	}
	if err := waitErr(t, chs[0].Isend(1, -6, payload), 2*time.Second); !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("post-failure internal-tag rendezvous send err = %v, want ErrPeerFailed", err)
	}
	if done, _, _ := appSend.Test(); done {
		t.Fatal("application rendezvous send to a live peer was failed")
	}
	if _, err := chs[1].Recv(0, 5, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := waitErr(t, appSend, 2*time.Second); err != nil {
		t.Fatalf("application send to a live peer after the failure: %v", err)
	}
}
