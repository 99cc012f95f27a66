//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package simnet

import (
	"testing"
	"testing/synctest"
	"time"

	"gompi/internal/topo"
)

// TestDragonflyGlobalHopChargedInBubble sends across one dragonfly group
// and across two inside a synctest bubble (GOEXPERIMENT=synctest), where a
// modelled cost is a sleep on the bubble's clock: the same-group send
// takes exactly the 2 ms inter-node latency, and the cross-group send that
// plus the 3 ms global hop, however loaded the host is.
func TestDragonflyGlobalHopChargedInBubble(t *testing.T) {
	synctest.Run(func() {
		p := topo.Loopback(2)
		p.InterNodeLatency = 2 * time.Millisecond
		p.DragonflyGroupSize = 2
		p.GlobalHopLatency = 3 * time.Millisecond
		f := NewFabric(topo.New(p, 4))

		a := f.NewEndpoint(0)
		sameGroup := f.NewEndpoint(1)  // nodes 0,1 share group 0
		otherGroup := f.NewEndpoint(2) // node 2 is in group 1

		for _, c := range []struct {
			name string
			to   *Endpoint
			want time.Duration
		}{
			{"same-group", sameGroup, 2 * time.Millisecond},
			{"cross-group", otherGroup, 5 * time.Millisecond},
		} {
			start := time.Now()
			if err := a.Send(c.to.Addr(), Message{Ctrl: 1}); err != nil {
				t.Fatal(err)
			}
			if took := time.Since(start); took != c.want {
				t.Errorf("%s send took %v, want exactly %v", c.name, took, c.want)
			}
		}
	})
}
