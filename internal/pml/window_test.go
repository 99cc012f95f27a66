package pml

import (
	"errors"
	"sync"
	"testing"
	"time"

	"gompi/internal/btl"
	"gompi/internal/opal"
)

// TestFailureInRegistrationWindow lands a FailPeer or a Revoke at the
// point of Isend and Irecv between the operation's registration and its
// liveness check (the raceYield seam). Wherever the failure lands, the
// operation must complete with the failure's error instead of waiting for
// a CTS or a message the failed peer will never send. Each case names a
// rendezvous send or a receive from a specific source whose peer stays
// silent, so a stranded operation never completes and the case fails on
// its timeout.
func TestFailureInRegistrationWindow(t *testing.T) {
	for _, tc := range []struct {
		name  string
		point string
		fail  func(tn *testNet, ch *Channel)
		start func(ch *Channel) *Request
		want  error
	}{
		{"isend/FailPeer", "isend",
			func(tn *testNet, _ *Channel) { tn.engines[0].FailPeer(1) },
			func(ch *Channel) *Request { return ch.Isend(1, 3, make([]byte, 100)) },
			ErrPeerFailed},
		{"isend/Revoke", "isend",
			func(tn *testNet, ch *Channel) { tn.engines[0].Revoke(ch) },
			func(ch *Channel) *Request { return ch.Isend(1, 3, make([]byte, 100)) },
			ErrRevoked},
		{"collective isend/FailPeer of a bystander", "isend",
			func(tn *testNet, _ *Channel) { tn.engines[0].FailPeer(2) },
			func(ch *Channel) *Request { return ch.Isend(1, -16, make([]byte, 100)) },
			ErrPeerFailed},
		{"irecv/FailPeer", "irecv",
			func(tn *testNet, _ *Channel) { tn.engines[0].FailPeer(1) },
			func(ch *Channel) *Request { return ch.Irecv(1, 5, make([]byte, 4)) },
			ErrPeerFailed},
		{"irecv/Revoke", "irecv",
			func(tn *testNet, ch *Channel) { tn.engines[0].Revoke(ch) },
			func(ch *Channel) *Request { return ch.Irecv(1, 5, make([]byte, 4)) },
			ErrRevoked},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tn := newTestNet(t, 3, Config{EagerLimit: 8})
			chs := tn.worldChannels(t, 0)
			var once sync.Once
			raceYield = func(point string) {
				if point == tc.point {
					once.Do(func() { tc.fail(tn, chs[0]) })
				}
			}
			defer func() { raceYield = nil }()

			req := tc.start(chs[0])
			select {
			case <-req.Done():
			case <-time.After(2 * time.Second):
				t.Fatalf("%s stranded: a failure inside the window did not complete it", tc.point)
			}
			if _, err := req.Wait(); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestNotifyInCompletionWindow lands a Notify between complete publishing
// a request's outcome and running its (absent) hook. Notify must report
// the request complete, and the caller's own poll — Test and Done, which
// is all a schedule driver consults after a refused Notify — must see the
// completion too; otherwise neither the hook nor the caller would ever
// advance the schedule waiting on it.
func TestNotifyInCompletionWindow(t *testing.T) {
	req := newRequest(nil)
	var installed, polled bool
	raceYield = func(point string) {
		if point != "complete" {
			return
		}
		installed = req.Notify(&opal.Hook{Fn: func(any) {}})
		polled, _, _ = req.Test()
	}
	defer func() { raceYield = nil }()

	req.complete(Status{Count: 4}, nil)
	if installed {
		t.Fatal("Notify installed a hook on a request whose completion was already published")
	}
	if !polled {
		t.Fatal("Notify refused the hook but Test still reads the request as pending")
	}
	select {
	case <-req.Done():
	default:
		t.Fatal("Notify refused the hook but Done is still open")
	}
}

// TestAddChannelInOrphanWindow lands an AddChannel between a frame's
// lock-free registry miss and handleMatch's re-check under regMu. The
// channel's orphan replay has already run by then, so the frame must find
// the channel on the re-check and be delivered, not parked as an orphan
// that nothing will replay. Both registries are covered: the CID table
// for a fast-path frame, byEx for an extended one.
func TestAddChannelInOrphanWindow(t *testing.T) {
	for _, ext := range []bool{false, true} {
		name := "fast"
		ex := ExCID{}
		if ext {
			name, ex = "extended", ExCID{PGCID: 3}
		}
		t.Run(name, func(t *testing.T) {
			mod := &stampModule{acks: make(chan cidAck, 1)}
			e := NewEngine([]btl.Module{mod}, Config{})
			defer e.Close()
			var ch *Channel
			var once sync.Once
			raceYield = func(point string) {
				if point == "orphan" {
					once.Do(func() {
						var err error
						if ch, err = e.AddChannel(5, ex, ext, 0, []int{0, 1}); err != nil {
							t.Error(err)
						}
					})
				}
			}
			defer func() { raceYield = nil }()
			e.deliver(frame(5, ex, 0, 1, 2))
			raceYield = nil
			if ch == nil {
				t.Fatal("the frame never missed the registry")
			}
			buf := make([]byte, 8)
			if ok, st, _ := ch.Irecv(1, 7, buf).Test(); !ok || st.Count != 8 {
				t.Fatalf("frame not delivered to the channel added in the window (ok=%v, %+v)", ok, st)
			}
		})
	}
}
