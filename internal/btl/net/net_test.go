package net

import (
	"runtime"
	"testing"
	"time"

	"gompi/internal/btl"
	"gompi/internal/simnet"
	"gompi/internal/topo"
)

func newPair(t *testing.T) (*Module, *Module) {
	t.Helper()
	f := simnet.NewFabric(topo.New(topo.Loopback(2), 1))
	ep0, ep1 := f.NewEndpoint(0), f.NewEndpoint(0)
	resolve := func(addrs []simnet.Addr) func(int) (simnet.Addr, error) {
		return func(r int) (simnet.Addr, error) { return addrs[r], nil }
	}([]simnet.Addr{ep0.Addr(), ep1.Addr()})
	return New(ep0, resolve, 0), New(ep1, resolve, 0)
}

func TestSendDeliver(t *testing.T) {
	m0, m1 := newPair(t)
	got := make(chan []byte, 1)
	m0.Activate(func([]byte) {})
	m1.Activate(func(pkt []byte) { got <- pkt })
	defer m0.Close()
	defer m1.Close()

	ep, err := m0.AddProc(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Send([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	select {
	case pkt := <-got:
		if len(pkt) != 3 || pkt[0] != 1 {
			t.Fatalf("pkt = %v", pkt)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("packet not delivered")
	}
	st := m0.Stats()
	if st.Msgs != 1 || st.Bytes != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSendAfterPeerClose(t *testing.T) {
	m0, m1 := newPair(t)
	m0.Activate(func([]byte) {})
	m1.Activate(func([]byte) {})
	defer m0.Close()
	m1.Close()

	ep, err := m0.AddProc(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Send([]byte{1}); err == nil {
		t.Fatal("send to closed peer should fail")
	}
}

// TestCloseDrainsProgress is the goroutine-leak regression test: Close
// stops the served endpoint's pump, so repeated init/finalize churn
// (session churn) leaves no goroutines behind.
func TestCloseDrainsProgress(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		m0, m1 := newPair(t)
		m0.Activate(func([]byte) {})
		m1.Activate(func([]byte) {})
		ep, err := m0.AddProc(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := ep.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		m0.Close()
		m1.Close()
	}
	// Close wakes each pump, which exits at once; poll briefly for the
	// scheduler to run them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", base, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCloseWithoutActivate(t *testing.T) {
	m0, _ := newPair(t)
	m0.Close() // nothing was served, so there is no pump to stop
}

func TestDefaultEagerLimit(t *testing.T) {
	m0, _ := newPair(t)
	if m0.EagerLimit() != DefaultEagerLimit || m0.Name() != "net" {
		t.Fatalf("EagerLimit=%d Name=%q", m0.EagerLimit(), m0.Name())
	}
	var _ btl.Module = m0
}
