package pml

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"gompi/internal/btl"
	btlnet "gompi/internal/btl/net"
	btlsm "gompi/internal/btl/sm"
	"gompi/internal/simnet"
	"gompi/internal/topo"
)

// newMixedNet builds engines over sm+net: ppn ranks per node, nodes nodes.
// Rank r lives on node r/ppn, so intra-node pairs route through sm and
// inter-node pairs fall through to net.
func newMixedNet(t *testing.T, nodes, ppn int, cfg Config) *testNet {
	t.Helper()
	tn := buildMixedNet(nodes, ppn, cfg)
	t.Cleanup(tn.close)
	return tn
}

// buildMixedNet is newMixedNet for callers that close the engines
// themselves (inside a synctest bubble, before it ends).
func buildMixedNet(nodes, ppn int, cfg Config) *testNet {
	fabric := simnet.NewFabric(topo.New(topo.Loopback(ppn), nodes))
	n := nodes * ppn
	eps := make([]*simnet.Endpoint, n)
	for i := range eps {
		eps[i] = fabric.NewEndpoint(i / ppn)
	}
	resolve := func(rank int) (simnet.Addr, error) {
		if rank < 0 || rank >= n {
			return simnet.Addr{}, fmt.Errorf("unknown rank %d", rank)
		}
		return eps[rank].Addr(), nil
	}
	tn := &testNet{}
	for i := 0; i < n; i++ {
		node := i / ppn
		mods := []btl.Module{
			btlsm.New(fabric.Segment(node), node, i, func(r int) int { return r / ppn }, 0),
			btlnet.New(eps[i], resolve, 0),
		}
		tn.engines = append(tn.engines, NewEngine(mods, cfg))
	}
	return tn
}

func (tn *testNet) close() {
	for _, e := range tn.engines {
		e.Close()
	}
}

// TestSMFastPathSelected verifies intra-node traffic rides sm while
// inter-node traffic rides net, visible through the per-BTL counters.
func TestSMFastPathSelected(t *testing.T) {
	tn := newMixedNet(t, 2, 2, Config{})
	chs := tn.worldChannels(t, 0)
	buf := make([]byte, 2)

	// Rank 0 -> rank 1: same node.
	req := chs[1].Irecv(0, 1, buf)
	if err := chs[0].Send(1, 1, []byte("sm")); err != nil {
		t.Fatal(err)
	}
	if _, err := req.Wait(); err != nil {
		t.Fatal(err)
	}
	st := tn.engines[0].BTLStats()
	if st["sm"].Msgs == 0 {
		t.Fatalf("intra-node send bypassed sm: %+v", st)
	}
	if st["net"].Msgs != 0 {
		t.Fatalf("intra-node send touched the fabric: %+v", st)
	}

	// Rank 0 -> rank 2: different node.
	req = chs[2].Irecv(0, 1, buf)
	if err := chs[0].Send(2, 1, []byte("nt")); err != nil {
		t.Fatal(err)
	}
	if _, err := req.Wait(); err != nil {
		t.Fatal(err)
	}
	st = tn.engines[0].BTLStats()
	if st["net"].Msgs == 0 {
		t.Fatalf("inter-node send did not use net: %+v", st)
	}
}

// TestSMEagerLimitAvoidsRendezvous checks the per-BTL eager limit reaches
// the protocol decision: a 16 KiB message is rendezvous on the fabric but
// eager over shared memory.
func TestSMEagerLimitAvoidsRendezvous(t *testing.T) {
	tn := newMixedNet(t, 1, 2, Config{})
	chs := tn.worldChannels(t, 0)
	payload := bytes.Repeat([]byte("q"), 16<<10)
	buf := make([]byte, len(payload))
	req := chs[1].Irecv(0, 3, buf)
	if err := chs[0].Send(1, 3, payload); err != nil {
		t.Fatal(err)
	}
	st, err := req.Wait()
	if err != nil || st.Count != len(payload) || !bytes.Equal(buf, payload) {
		t.Fatalf("st=%+v err=%v", st, err)
	}
	if s := tn.engines[0].Stats(); s.Rendezvous != 0 {
		t.Fatalf("16KiB intra-node message used rendezvous (%+v); sm eager limit not honored", s)
	}
}

// TestConfigEagerLimitOverridesSM: an explicit Config.EagerLimit constrains
// every transport, keeping protocol tests deterministic.
func TestConfigEagerLimitOverridesSM(t *testing.T) {
	tn := newMixedNet(t, 1, 2, Config{EagerLimit: 64})
	chs := tn.worldChannels(t, 0)
	payload := bytes.Repeat([]byte("r"), 1024)
	buf := make([]byte, len(payload))
	req := chs[1].Irecv(0, 0, buf)
	sreq := chs[0].Isend(1, 0, payload)
	if _, err := sreq.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := req.Wait(); err != nil {
		t.Fatal(err)
	}
	if s := tn.engines[0].Stats(); s.Rendezvous != 1 {
		t.Fatalf("Rendezvous = %d, want 1 (explicit eager limit must override sm's)", s.Rendezvous)
	}
}

// TestSMRendezvousAndExCID runs the full protocol surface (exCID handshake,
// rendezvous over the configured limit, self-send) across the inline sm
// path, where replies re-enter the engine on the sender's goroutine.
func TestSMRendezvousAndExCID(t *testing.T) {
	tn := newMixedNet(t, 1, 2, Config{EagerLimit: 32})
	ex := ExCID{PGCID: 5}
	chs := tn.exChannels(t, ex, 10)

	payload := bytes.Repeat([]byte("z"), 500)
	buf := make([]byte, len(payload))
	req := chs[1].Irecv(0, 1, buf)
	if err := chs[0].Send(1, 1, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := req.Wait(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("rendezvous over sm corrupted data")
	}
	deadline := time.Now().Add(2 * time.Second)
	for !chs[0].PeerConnected(1) {
		if time.Now().After(deadline) {
			t.Fatal("exCID handshake never completed over sm")
		}
		time.Sleep(time.Millisecond)
	}

	// Self-send over sm: delivery recurses into our own engine inline.
	self := make([]byte, 4)
	sreq := chs[0].Irecv(0, 9, self)
	if err := chs[0].Send(0, 9, []byte("loop")); err != nil {
		t.Fatal(err)
	}
	if _, err := sreq.Wait(); err != nil {
		t.Fatal(err)
	}
	if string(self) != "loop" {
		t.Fatalf("self = %q", self)
	}
}

// TestCloseDrainsUnderChurn is the session-churn goroutine-leak assertion
// for the whole engine: Close must leave no net endpoint pump behind.
func TestCloseDrainsUnderChurn(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 30; i++ {
		tn := &testNet{}
		fabric := simnet.NewFabric(topo.New(topo.Loopback(2), 1))
		eps := []*simnet.Endpoint{fabric.NewEndpoint(0), fabric.NewEndpoint(0)}
		resolve := func(rank int) (simnet.Addr, error) { return eps[rank].Addr(), nil }
		for r := 0; r < 2; r++ {
			mods := []btl.Module{
				btlsm.New(fabric.Segment(0), 0, r, func(int) int { return 0 }, 0),
				btlnet.New(eps[r], resolve, 0),
			}
			tn.engines = append(tn.engines, NewEngine(mods, Config{}))
		}
		chs := tn.worldChannels(t, 0)
		buf := make([]byte, 1)
		req := chs[1].Irecv(0, 0, buf)
		if err := chs[0].Send(1, 0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := req.Wait(); err != nil {
			t.Fatal(err)
		}
		for _, e := range tn.engines {
			e.Close()
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked under churn: baseline %d, now %d", base, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNoRouteError: an engine with no module accepting the peer reports a
// routing error instead of hanging.
func TestNoRouteError(t *testing.T) {
	fabric := simnet.NewFabric(topo.New(topo.Loopback(1), 2))
	// sm only, peer on another node: unreachable.
	mod := btlsm.New(fabric.Segment(0), 0, 0, func(r int) int { return r }, 0)
	e := NewEngine([]btl.Module{mod}, Config{})
	defer e.Close()
	ch, err := e.AddChannel(0, ExCID{}, false, 0, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Isend(1, 0, []byte("x")).Wait(); err == nil || errors.Is(err, btl.ErrUnreachable) {
		t.Fatalf("err = %v, want a no-route error", err)
	}
}
