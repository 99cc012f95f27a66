package pml

import (
	"sync"
	"testing"
	"time"

	"gompi/internal/btl"
)

// gateModule holds the first inbound packet of the module it wraps at the
// top of the upcall until release is closed.
type gateModule struct {
	btl.Module
	once             sync.Once
	entered, release chan struct{}
	delivered        chan struct{}
}

func (g *gateModule) Activate(deliver btl.DeliverFunc) {
	g.Module.Activate(func(pkt []byte) {
		first := false
		g.once.Do(func() { first = true })
		if !first {
			deliver(pkt)
			return
		}
		close(g.entered)
		<-g.release
		deliver(pkt)
		close(g.delivered)
	})
}

// TestCloseDropsInFlightNetDelivery: the net BTL's Close, like sm's, does
// not wait for a delivery already running (btl.Module.Close); the engine's
// drop-after-close covers it. A frame whose upcall is in flight while its
// receiving engine closes reaches a closed engine, which drops it: it is
// not queued as unexpected on the torn-down channel.
func TestCloseDropsInFlightNetDelivery(t *testing.T) {
	gate := &gateModule{entered: make(chan struct{}), release: make(chan struct{}), delivered: make(chan struct{})}
	tn := newWrappedNet(t, 2, Config{}, func(i int, m btl.Module) btl.Module {
		if i == 1 {
			gate.Module = m
			return gate
		}
		return m
	})
	chs := tn.worldChannels(t, 0)
	sent := make(chan error, 1)
	go func() { sent <- chs[0].Send(1, 5, []byte("late")) }()
	<-gate.entered

	closed := make(chan struct{})
	go func() { tn.engines[1].Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Engine.Close waited for an in-flight net delivery")
	}
	close(gate.release)
	<-gate.delivered
	if err := <-sent; err != nil {
		t.Fatalf("eager send = %v", err)
	}
	chs[1].lock.Lock()
	late := chs[1].m.takeAllUnexpected()
	chs[1].lock.Unlock()
	if len(late) != 0 {
		t.Fatalf("%d frames queued on a closed engine's channel", len(late))
	}
}
