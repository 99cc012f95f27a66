package pml

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"gompi/internal/simnet"
)

// TestFailureRule pins the failure table of DESIGN.md §6b row by row. Each
// row puts engine 0's channel into one state and checks every operation
// kind against the row's error twice: queued before the state was marked
// (the sweep must complete it) and started after (refusal must refuse it).
// A nil error means the operation is neither swept nor refused. The peer is
// rank 1; rank 2 is the bystander whose death leaves rank 1 alive.
func TestFailureRule(t *testing.T) {
	failPeers := func(ranks ...int) func(*testNet, *Channel) {
		return func(tn *testNet, _ *Channel) {
			for _, r := range ranks {
				tn.engines[0].FailPeer(r)
			}
		}
	}
	for _, row := range []struct {
		name     string
		src      int // the peer every operation names: 1, or AnySource
		tag      int
		mark     func(tn *testNet, ch *Channel)
		want     error // posted receive, probe, rendezvous send being started
		underway error // rendezvous send with its RTS out, matched rendezvous receive
		eager    error
	}{
		{"closed", 1, 5, func(tn *testNet, _ *Channel) { tn.engines[0].Close() }, ErrClosed, ErrClosed, ErrClosed},
		{"removed", 1, 5, func(tn *testNet, ch *Channel) { tn.engines[0].RemoveChannel(ch) }, ErrClosed, nil, ErrClosed},
		{"revoked", 1, 5, func(tn *testNet, ch *Channel) { tn.engines[0].Revoke(ch) }, ErrRevoked, ErrRevoked, ErrRevoked},
		{"peer dead", 1, 5, failPeers(1), ErrPeerFailed, ErrPeerFailed, ErrPeerFailed},
		{"member dead, internal tag", 1, -5, failPeers(2), ErrPeerFailed, ErrPeerFailed, nil},
		{"member dead, application tag", 1, 5, failPeers(2), nil, nil, nil},
		{"all peers dead, wildcard", AnySource, 5, failPeers(1, 2), ErrPeerFailed, nil, nil},
	} {
		t.Run(row.name, func(t *testing.T) {
			tn, fabric := newChaosNet(t, 3, Config{EagerLimit: 8})
			chs := tn.worldChannels(t, 0)
			ch := chs[0]
			big := make([]byte, 64)
			rndvTag := row.tag + 1 // the rendezvous operations' own tag, of the same kind
			if row.tag < 0 {
				rndvTag = row.tag - 1
			}

			// Queue one operation of each kind.
			var rndvSend, rndvRecv *Request
			if row.src != AnySource {
				// A matched rendezvous receive: its RTS is queued before
				// the receive is posted, and its CTS is lost, so no DATA
				// ever comes.
				_ = chs[1].Isend(0, rndvTag, big)
				deadline := time.Now().Add(2 * time.Second)
				for {
					if _, ok, _ := ch.Iprobe(1, rndvTag); ok {
						break
					}
					if time.Now().After(deadline) {
						t.Fatal("the RTS never arrived")
					}
					time.Sleep(time.Millisecond)
				}
				fabric.SetFaultPlan(&simnet.FaultPlan{Seed: 1, Classes: simnet.FaultData, Drop: 1.0})
				rndvRecv = ch.Irecv(1, rndvTag, make([]byte, len(big)))
				time.Sleep(10 * time.Millisecond)
				fabric.SetFaultPlan(nil)
				// A rendezvous send rank 1 never answers.
				rndvSend = ch.Isend(1, rndvTag, big)
			}
			posted := ch.Irecv(row.src, row.tag, make([]byte, 4))
			probe := parkProbe(ch, row.src, row.tag)
			stillParked(t, probe, "before the mark")

			row.mark(tn, ch)

			swept := func(what string, req *Request, want error) {
				t.Helper()
				if req == nil {
					return
				}
				if want == nil {
					if done, _, err := req.Test(); done {
						t.Fatalf("queued %s completed: %v", what, err)
					}
					return
				}
				if err := waitErr(t, req, 2*time.Second); !errors.Is(err, want) {
					t.Fatalf("queued %s err = %v, want %v", what, err, want)
				}
			}
			swept("posted receive", posted, row.want)
			swept("rendezvous send", rndvSend, row.underway)
			swept("matched rendezvous receive", rndvRecv, row.underway)
			if row.want == nil {
				stillParked(t, probe, "after the mark")
			} else if err := probeErr(t, probe, "parked"); !errors.Is(err, row.want) {
				t.Fatalf("parked Probe err = %v, want %v", err, row.want)
			}

			// Start one operation of each kind.
			refused := func(what string, req *Request) {
				t.Helper()
				if row.want == nil {
					time.Sleep(10 * time.Millisecond)
				}
				swept(what, req, row.want)
			}
			refused("new receive", ch.Irecv(row.src, row.tag, make([]byte, 4)))
			if _, ok, err := ch.Iprobe(row.src, row.tag); ok || !errors.Is(err, row.want) {
				t.Fatalf("Iprobe = %v, %v, want %v", ok, err, row.want)
			}
			if row.src == AnySource {
				return
			}
			refused("new rendezvous send", ch.Isend(1, rndvTag, big))
			if err := ch.Send(1, row.tag, []byte("e")); !errors.Is(err, row.eager) {
				t.Fatalf("eager send err = %v, want %v", err, row.eager)
			}
		})
	}
}

// Freeing a communicator lets the rendezvous operations under way on it
// finish (MPI_Comm_free): here both sides remove the channel while the
// CTS and DATA legs are still on the wire, and both requests complete
// with the payload intact.
func TestRemoveChannelLetsRendezvousFinish(t *testing.T) {
	tn, fabric := newChaosNet(t, 2, Config{EagerLimit: 8})
	chs := tn.worldChannels(t, 0)
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i)
	}
	send := chs[0].Isend(1, 7, payload)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok, _ := chs[1].Iprobe(0, 7); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the RTS never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	// Hold CTS and DATA on the wire until both sides have freed.
	fabric.SetFaultPlan(&simnet.FaultPlan{Seed: 1, Classes: simnet.FaultData, Reorder: 1.0, ReorderBy: 20 * time.Millisecond})
	buf := make([]byte, len(payload))
	recv := chs[1].Irecv(0, 7, buf)
	tn.engines[1].RemoveChannel(chs[1])
	tn.engines[0].RemoveChannel(chs[0])
	if err := waitErr(t, send, 2*time.Second); err != nil {
		t.Fatalf("rendezvous send: %v", err)
	}
	if err := waitErr(t, recv, 2*time.Second); err != nil {
		t.Fatalf("matched rendezvous receive: %v", err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("payload corrupted")
	}
}

// A rendezvous under way on a removed channel still fails on the events
// that reach the whole engine: its peer's death and the engine's close.
func TestRemovedChannelRendezvousFailsOnPeerDeathAndClose(t *testing.T) {
	for _, c := range []struct {
		name string
		mark func(e *Engine)
		want error
	}{
		{"peer dead", func(e *Engine) { e.FailPeer(1) }, ErrPeerFailed},
		{"closed", func(e *Engine) { e.Close() }, ErrClosed},
	} {
		t.Run(c.name, func(t *testing.T) {
			tn := newTestNet(t, 2, Config{EagerLimit: 8})
			chs := tn.worldChannels(t, 0)
			send := chs[0].Isend(1, 7, make([]byte, 64)) // rank 1 never answers
			tn.engines[0].RemoveChannel(chs[0])
			if done, _, err := send.Test(); done {
				t.Fatalf("removal completed the send: %v", err)
			}
			c.mark(tn.engines[0])
			if err := waitErr(t, send, 2*time.Second); !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
		})
	}
}
