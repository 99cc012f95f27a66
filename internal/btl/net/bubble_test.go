//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package net

import (
	goruntime "runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/synctest"
	"time"

	"gompi/internal/btl"
	"gompi/internal/simnet"
	"gompi/internal/topo"
)

// TestServedReplyOnPumpInBubble: on a modelled profile a hop is never
// delivered inline, so a receiver whose upcall replies (as a CTS or an
// exCID ACK does) pays the reply's cost on its endpoint's pump. The
// sender's Send returns after exactly its own 2 ms hop, and the reply
// lands 2 ms later, at exactly 4 ms of model time.
func TestServedReplyOnPumpInBubble(t *testing.T) {
	synctest.Run(func() {
		p := topo.Loopback(1)
		p.InterNodeLatency = 2 * time.Millisecond
		f := simnet.NewFabric(topo.New(p, 2))
		eps := []*simnet.Endpoint{f.NewEndpoint(0), f.NewEndpoint(1)}
		resolve := func(r int) (simnet.Addr, error) { return eps[r].Addr(), nil }
		m0, m1 := New(eps[0], resolve, 0), New(eps[1], resolve, 0)

		replied := make(chan time.Time, 1)
		m0.Activate(func([]byte) { replied <- time.Now() })
		back, err := m1.AddProc(0)
		if err != nil {
			t.Fatal(err)
		}
		var onPump atomic.Bool
		m1.Activate(func([]byte) {
			buf := make([]byte, 8<<10)
			onPump.Store(strings.Contains(string(buf[:goruntime.Stack(buf, false)]), "simnet.(*Endpoint).pump("))
			if err := back.Send([]byte("reply")); err != nil {
				t.Error(err)
			}
		})
		var ep btl.Endpoint
		if ep, err = m0.AddProc(1); err != nil {
			t.Fatal(err)
		}

		start := time.Now()
		if err := ep.Send([]byte("request")); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took != 2*time.Millisecond {
			t.Errorf("Send took %v, want exactly its own hop's 2ms", took)
		}
		if at := (<-replied).Sub(start); at != 4*time.Millisecond {
			t.Errorf("reply arrived at %v, want exactly 4ms", at)
		}
		if !onPump.Load() {
			t.Error("the replying upcall ran on the sender's goroutine, not on the pump")
		}
		m0.Close()
		m1.Close()
	})
}
