package pml

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"gompi/internal/btl"
	btlnet "gompi/internal/btl/net"
	"gompi/internal/simnet"
	"gompi/internal/topo"
)

// newChaosNet is newTestNet with the fabric exposed so tests can install
// fault plans on the wire under the engines.
func newChaosNet(t *testing.T, n int, cfg Config) (*testNet, *simnet.Fabric) {
	t.Helper()
	fabric := simnet.NewFabric(topo.New(topo.Loopback(n), 1))
	eps := make([]*simnet.Endpoint, n)
	for i := range eps {
		eps[i] = fabric.NewEndpoint(0)
	}
	resolve := func(rank int) (simnet.Addr, error) {
		if rank < 0 || rank >= n {
			return simnet.Addr{}, fmt.Errorf("unknown rank %d", rank)
		}
		return eps[rank].Addr(), nil
	}
	tn := &testNet{}
	for i := 0; i < n; i++ {
		mod := btlnet.New(eps[i], resolve, 0)
		tn.engines = append(tn.engines, NewEngine([]btl.Module{mod}, cfg))
	}
	t.Cleanup(func() {
		fabric.SetFaultPlan(nil) // stop injecting before teardown
		for _, e := range tn.engines {
			e.Close()
		}
	})
	return tn, fabric
}

func waitErr(t *testing.T, req *Request, timeout time.Duration) error {
	t.Helper()
	select {
	case <-req.Done():
	case <-time.After(timeout):
		t.Fatal("request never completed")
	}
	_, err := req.Wait()
	return err
}

// Every wire frame duplicated: the first (extended-header) message on an
// exCID channel must be delivered exactly once, with the handshake — ext
// header, CID-ACK, and the rendezvous CTS/DATA legs — surviving their own
// duplication. Before sequence screening, the duplicate eager frame was
// matched and delivered a second time.
func TestChaosExCIDDuplicateFirstMessage(t *testing.T) {
	tn, fabric := newChaosNet(t, 2, Config{EagerLimit: 64})
	chs := tn.exChannels(t, ExCID{PGCID: 7, Sub: 1}, 10)
	fabric.SetFaultPlan(&simnet.FaultPlan{Seed: 11, Classes: simnet.FaultData, Dup: 1.0})

	// Eager first message rides the extended header.
	if err := chs[0].Send(1, 4, []byte("first")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	st, err := chs[1].Recv(0, 4, buf)
	if err != nil || string(buf) != "first" {
		t.Fatalf("recv: st=%+v err=%v buf=%q", st, err, buf)
	}
	// The duplicate must have been screened out, not parked as a second
	// deliverable message.
	time.Sleep(20 * time.Millisecond)
	if _, ok, _ := chs[1].Iprobe(0, 4); ok {
		t.Fatal("duplicated first message was delivered twice")
	}
	if d := tn.engines[1].Stats().DupsDropped; d == 0 {
		t.Fatal("no duplicate was screened; fault plan did not engage")
	}

	// A rendezvous transfer under full duplication: RTS, CTS and DATA all
	// arrive twice; each must be consumed exactly once.
	big := bytes.Repeat([]byte("r"), 1024)
	rreq := chs[1].Irecv(0, 5, make([]byte, 1024))
	if err := chs[0].Send(1, 5, big); err != nil {
		t.Fatal(err)
	}
	if err := waitErr(t, rreq, 5*time.Second); err != nil {
		t.Fatalf("rendezvous under duplication: %v", err)
	}
}

// The two first messages on an exCID channel arrive in reverse order: the
// reordered frame is parked until the gap fills, and both deliver in send
// order. This is the ob1 extended-header handshake race from the paper, with
// the wire actively adversarial.
func TestChaosExCIDReorderedFirstMessages(t *testing.T) {
	tn, fabric := newChaosNet(t, 2, Config{})
	chs := tn.exChannels(t, ExCID{PGCID: 8, Sub: 2}, 20)

	// First frame is delivered late and asynchronously; the second, sent
	// clean, overtakes it on the wire.
	fabric.SetFaultPlan(&simnet.FaultPlan{Seed: 13, Classes: simnet.FaultData, Reorder: 1.0, ReorderBy: 5 * time.Millisecond})
	if err := chs[0].Send(1, 1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	fabric.SetFaultPlan(nil)
	if err := chs[0].Send(1, 2, []byte("two")); err != nil {
		t.Fatal(err)
	}

	// MPI non-overtaking: the tag-1 message was sent first and must match
	// first even though it reached the endpoint second.
	b1 := make([]byte, 3)
	if _, err := chs[1].Recv(0, 1, b1); err != nil || string(b1) != "one" {
		t.Fatalf("first message: %q, %v", b1, err)
	}
	b2 := make([]byte, 3)
	if _, err := chs[1].Recv(0, 2, b2); err != nil || string(b2) != "two" {
		t.Fatalf("second message: %q, %v", b2, err)
	}
	if s := tn.engines[1].Stats().ReorderStashed; s == 0 {
		t.Fatal("no frame was stashed; the wire never reordered")
	}
}

// Regression (FailPeer satellite): a rendezvous receive whose CTS went out
// but whose DATA will never arrive — the sender died — must fail with
// ErrPeerFailed. Before the fix, FailPeer swept posted receives and pending
// sends but left pendRecv entries hanging forever.
func TestChaosFailPeerCompletesInFlightRendezvousRecv(t *testing.T) {
	tn, fabric := newChaosNet(t, 2, Config{EagerLimit: 8})
	chs := tn.worldChannels(t, 0)

	// The RTS lands in engine 1's unexpected queue first, so the CTS is
	// only emitted once the receive is posted — after we cut the wire.
	sreq := chs[0].Isend(1, 9, make([]byte, 256))
	time.Sleep(20 * time.Millisecond)

	// Eat everything from here on: the CTS never reaches the sender, so no
	// DATA is ever produced — exactly the window in which the sender dies.
	fabric.SetFaultPlan(&simnet.FaultPlan{Seed: 1, Classes: simnet.FaultData, Drop: 1.0})
	rreq := chs[1].Irecv(0, 9, make([]byte, 256))
	time.Sleep(20 * time.Millisecond)
	if done, _, _ := rreq.Test(); done {
		t.Fatal("receive completed although DATA cannot have arrived")
	}

	tn.engines[1].FailPeer(0)
	if err := waitErr(t, rreq, 2*time.Second); !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("in-flight rendezvous recv err = %v, want ErrPeerFailed", err)
	}
	_ = sreq // the sender side is the dead process; its state is moot
}

// When a channel member dies, posted internal (negative-tag) receives fail
// even when they name a live source: the collective's dependency graph
// includes the dead rank, so the live peer may never send. Application
// receives from live peers are untouched.
func TestChaosFailPeerPoisonsCollectiveRecvs(t *testing.T) {
	tn, _ := newChaosNet(t, 3, Config{})
	chs := tn.worldChannels(t, 0)

	collRecv := chs[0].Irecv(1, -5, make([]byte, 8)) // internal tag, live src
	appRecv := chs[0].Irecv(1, 5, make([]byte, 8))   // application tag, live src

	tn.engines[0].FailPeer(2)

	if err := waitErr(t, collRecv, 2*time.Second); !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("internal-tag recv err = %v, want ErrPeerFailed", err)
	}
	if done, _, _ := appRecv.Test(); done {
		t.Fatal("application receive from a live peer was failed")
	}

	// Collectives must not start on the poisoned channel...
	if err := waitErr(t, chs[0].Irecv(1, -6, make([]byte, 8)), 2*time.Second); !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("post-failure internal recv err = %v, want ErrPeerFailed", err)
	}
	// ...but point-to-point with live peers keeps working.
	if err := chs[1].Send(0, 5, []byte("alive")); err != nil {
		t.Fatal(err)
	}
	if err := waitErr(t, appRecv, 2*time.Second); err != nil {
		t.Fatalf("p2p with live peer after failure: %v", err)
	}
}

// Regression (FailPeer wildcard satellite): wildcard receives survive
// individual peer deaths, but when the LAST non-self channel member dies a
// posted wildcard can never match again — it must fail, and new wildcards
// must be rejected, instead of hanging a blocking Recv forever. Messages
// sent before the death still drain from the unexpected queue.
func TestChaosFailPeerFailsWildcardWhenAllPeersDead(t *testing.T) {
	tn, _ := newChaosNet(t, 3, Config{})
	chs := tn.worldChannels(t, 0)

	wild := chs[0].Irecv(AnySource, 3, make([]byte, 4))

	// One survivor left: the wildcard stays posted (it may still match).
	tn.engines[0].FailPeer(1)
	if done, _, _ := wild.Test(); done {
		t.Fatal("wildcard failed while a live peer remained")
	}

	// Rank 2's parting message lands in the unexpected queue before it dies.
	if err := chs[2].Send(0, 9, []byte("bye!")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)

	// Last non-self member dies: the posted wildcard must fail now — before
	// the fix it stayed posted and a blocking Recv hung forever.
	tn.engines[0].FailPeer(2)
	if err := waitErr(t, wild, 2*time.Second); !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("posted wildcard err = %v, want ErrPeerFailed", err)
	}

	// Pre-death traffic still drains from the unexpected queue...
	buf := make([]byte, 4)
	st, err := chs[0].Recv(AnySource, 9, buf)
	if err != nil || st.Source != 2 || string(buf) != "bye!" {
		t.Fatalf("pre-death message: st=%+v err=%v buf=%q", st, err, buf)
	}
	// ...but a wildcard with nothing queued is rejected instead of hanging.
	if err := waitErr(t, chs[0].Irecv(AnySource, AnyTag, make([]byte, 4)), 2*time.Second); !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("fresh wildcard err = %v, want ErrPeerFailed", err)
	}
}

// A full eager+rendezvous workload under a mixed fault plan (duplication,
// reordering, extra delay — the data plane's recoverable faults) must
// deliver every payload intact and in order.
func TestChaosExCIDMixedFaultMatrix(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			tn, fabric := newChaosNet(t, 2, Config{EagerLimit: 128})
			chs := tn.exChannels(t, ExCID{PGCID: 9, Sub: seed}, 30)
			fabric.SetFaultPlan(&simnet.FaultPlan{
				Seed:    seed,
				Classes: simnet.FaultData,
				Dup:     0.3,
				Reorder: 0.2, ReorderBy: 2 * time.Millisecond,
				Delay: 0.2, DelayBy: 500 * time.Microsecond,
			})
			const msgs = 40
			done := make(chan error, 1)
			go func() {
				for i := 0; i < msgs; i++ {
					size := 16 + (i%4)*100 // straddles the eager limit
					payload := bytes.Repeat([]byte{byte(i)}, size)
					if err := chs[0].Send(1, i, payload); err != nil {
						done <- fmt.Errorf("send %d: %w", i, err)
						return
					}
				}
				done <- nil
			}()
			for i := 0; i < msgs; i++ {
				size := 16 + (i%4)*100
				buf := make([]byte, size)
				st, err := chs[1].Recv(0, i, buf)
				if err != nil {
					t.Fatalf("recv %d: %v", i, err)
				}
				if st.Count != size || !bytes.Equal(buf, bytes.Repeat([]byte{byte(i)}, size)) {
					t.Fatalf("recv %d: corrupt payload (count=%d)", i, st.Count)
				}
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// parkProbe starts a blocking Probe and returns the channel its error
// arrives on.
func parkProbe(ch *Channel, src, tag int) <-chan error {
	out := make(chan error, 1)
	go func() {
		_, err := ch.Probe(src, tag)
		out <- err
	}()
	return out
}

// probeErr waits a bounded time for a parked Probe's error.
func probeErr(t *testing.T, probe <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-probe:
		return err
	case <-time.After(2 * time.Second):
		t.Fatalf("%s: Probe still blocked after 2s", what)
		return nil
	}
}

// stillParked fails the test if a parked Probe has returned.
func stillParked(t *testing.T, probe <-chan error, what string) {
	t.Helper()
	select {
	case err := <-probe:
		t.Fatalf("%s: Probe returned early: %v", what, err)
	case <-time.After(20 * time.Millisecond):
	}
}

// A Probe of a source that dies must fail with ErrPeerFailed like a
// receive would, whether it was parked before the death or called after
// it, and so must an Iprobe. A message the source sent before it died is
// still probed. Before the failure rule covered probes, the parked Probe
// was still blocked seconds after FailPeer.
func TestChaosProbeAfterFailPeer(t *testing.T) {
	tn, _ := newChaosNet(t, 3, Config{})
	chs := tn.worldChannels(t, 0)

	parked := parkProbe(chs[0], 1, 5)
	stillParked(t, parked, "before the death")
	if err := chs[1].Send(0, 6, []byte("bye!")); err != nil {
		t.Fatal(err)
	}
	if st, err := chs[0].Probe(1, 6); err != nil || st.Count != 4 {
		t.Fatalf("probe of a queued message: st=%+v err=%v", st, err)
	}

	tn.engines[0].FailPeer(1)
	if err := probeErr(t, parked, "parked before FailPeer"); !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("parked Probe err = %v, want ErrPeerFailed", err)
	}
	if err := probeErr(t, parkProbe(chs[0], 1, 5), "called after FailPeer"); !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("Probe err = %v, want ErrPeerFailed", err)
	}
	if _, ok, err := chs[0].Iprobe(1, 5); ok || !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("Iprobe = %v, %v, want ErrPeerFailed", ok, err)
	}
	// The pre-death message still probes, then drains.
	if st, ok, err := chs[0].Iprobe(1, 6); !ok || err != nil || st.Count != 4 {
		t.Fatalf("Iprobe of the pre-death message: st=%+v ok=%v err=%v", st, ok, err)
	}
	if _, err := chs[0].Recv(1, 6, make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	// A probe of a live source still waits.
	stillParked(t, parkProbe(chs[0], 2, 5), "live source")
}

// Revocation fails Probe and Iprobe with ErrRevoked, on the revoker and on
// a member that learns of it from the notice, for a probe parked before
// the revocation and one called after it. Before, both probes hung.
func TestChaosProbeAfterRevoke(t *testing.T) {
	tn, _ := newChaosNet(t, 3, Config{})
	chs := tn.exChannels(t, ExCID{PGCID: 9, Sub: 7}, 50)

	onRevoker := parkProbe(chs[0], 2, 5)
	onMember := parkProbe(chs[1], AnySource, AnyTag)
	stillParked(t, onRevoker, "before the revocation")

	tn.engines[0].Revoke(chs[0])
	if err := probeErr(t, onRevoker, "revoker, parked"); !errors.Is(err, ErrRevoked) {
		t.Fatalf("revoker's parked Probe err = %v, want ErrRevoked", err)
	}
	if err := probeErr(t, onMember, "member, parked"); !errors.Is(err, ErrRevoked) {
		t.Fatalf("member's parked Probe err = %v, want ErrRevoked", err)
	}
	for i, ch := range chs {
		if err := probeErr(t, parkProbe(ch, (i+1)%3, 5), "called after Revoke"); !errors.Is(err, ErrRevoked) {
			t.Fatalf("rank %d Probe err = %v, want ErrRevoked", i, err)
		}
		if _, ok, err := ch.Iprobe(AnySource, AnyTag); ok || !errors.Is(err, ErrRevoked) {
			t.Fatalf("rank %d Iprobe = %v, %v, want ErrRevoked", i, ok, err)
		}
	}
}

// A wildcard Probe waits while any peer survives and fails once every peer
// is dead, as a wildcard receive does. Before, it hung.
func TestChaosWildcardProbeAllPeersDead(t *testing.T) {
	tn, _ := newChaosNet(t, 3, Config{})
	chs := tn.worldChannels(t, 0)

	parked := parkProbe(chs[0], AnySource, 5)
	tn.engines[0].FailPeer(1)
	stillParked(t, parked, "one peer left")
	if _, ok, err := chs[0].Iprobe(AnySource, 5); ok || err != nil {
		t.Fatalf("wildcard Iprobe with a live peer = %v, %v, want false, nil", ok, err)
	}

	tn.engines[0].FailPeer(2)
	if err := probeErr(t, parked, "parked"); !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("parked wildcard Probe err = %v, want ErrPeerFailed", err)
	}
	if err := probeErr(t, parkProbe(chs[0], AnySource, AnyTag), "called after"); !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("wildcard Probe err = %v, want ErrPeerFailed", err)
	}
	if _, ok, err := chs[0].Iprobe(AnySource, AnyTag); ok || !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("wildcard Iprobe = %v, %v, want ErrPeerFailed", ok, err)
	}
}
