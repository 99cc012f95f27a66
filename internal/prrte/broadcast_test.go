package prrte

import (
	"sync"
	"testing"
	"time"
)

type countingHandler struct {
	mu     sync.Mutex
	events [][]byte
}

func (h *countingHandler) HandleFetch(string) ([]byte, bool) { return nil, false }
func (h *countingHandler) HandleEvent(data []byte) {
	h.mu.Lock()
	h.events = append(h.events, data)
	h.mu.Unlock()
}
func (h *countingHandler) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.events)
}

// TestRoutedBroadcastReachesAllNodesOnce covers the binomial relay at node
// counts including non-powers of two and non-zero roots.
func TestRoutedBroadcastReachesAllNodesOnce(t *testing.T) {
	for _, nodes := range []int{1, 2, 3, 5, 8, 13} {
		for _, origin := range []int{0, nodes - 1, nodes / 2} {
			dvm := testDVM(t, nodes)
			handlers := make([]*countingHandler, nodes)
			for i := range handlers {
				handlers[i] = &countingHandler{}
				dvm.Daemon(i).AttachServer(handlers[i])
			}
			dvm.Daemon(origin).BroadcastEvent([]byte{byte(origin)})
			deadline := time.Now().Add(2 * time.Second)
			for {
				all := true
				for _, h := range handlers {
					if h.count() != 1 {
						all = false
						break
					}
				}
				if all {
					break
				}
				if time.Now().After(deadline) {
					counts := make([]int, nodes)
					for i, h := range handlers {
						counts[i] = h.count()
					}
					t.Fatalf("nodes=%d origin=%d: counts=%v, want all 1", nodes, origin, counts)
				}
				time.Sleep(time.Millisecond)
			}
			// No duplicates after settling.
			time.Sleep(10 * time.Millisecond)
			for i, h := range handlers {
				if h.count() != 1 {
					t.Fatalf("nodes=%d origin=%d: node %d got %d deliveries", nodes, origin, i, h.count())
				}
			}
		}
	}
}

func TestBroadcastDepth(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 8: 3, 9: 4, 32: 5}
	for n, want := range cases {
		if got := BroadcastDepth(n); got != want {
			t.Errorf("BroadcastDepth(%d) = %d, want %d", n, got, want)
		}
	}
}

// Broadcasts from one daemon reach every node, the origin included, in one
// order, even when they come from different goroutines — "rank terminated"
// from the dying rank and "rank restarted" from its respawn do. A node that
// sees the pair reversed keeps the respawned rank marked dead for good
// (TestChaosRespawn's 60 s failures).
func TestBroadcastsFromOneDaemonKeepOneOrder(t *testing.T) {
	dvm := testDVM(t, 2)
	handlers := [2]*countingHandler{{}, {}}
	for i, h := range handlers {
		dvm.Daemon(i).AttachServer(h)
	}
	const senders, each = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				dvm.Daemon(1).BroadcastEvent([]byte{byte(g), byte(i)})
			}
		}(g)
	}
	wg.Wait()
	if n := handlers[1].count(); n != senders*each {
		t.Fatalf("origin's handler saw %d of %d events when BroadcastEvent returned", n, senders*each)
	}
	deadline := time.Now().Add(2 * time.Second)
	for handlers[0].count() != senders*each {
		if time.Now().After(deadline) {
			t.Fatalf("remote handler saw %d of %d events", handlers[0].count(), senders*each)
		}
		time.Sleep(time.Millisecond)
	}
	for i, ev := range handlers[1].events {
		if got := handlers[0].events[i]; got[0] != ev[0] || got[1] != ev[1] {
			t.Fatalf("position %d: origin saw %v, remote node saw %v", i, ev, got)
		}
	}
}

// A notify to the daemon's own node is enqueued before NotifyNode returns,
// in send order, like BroadcastEvent's local delivery.
func TestNotifyNodeSelfDeliveryKeepsOrder(t *testing.T) {
	dvm := testDVM(t, 1)
	h := &countingHandler{}
	dvm.Daemon(0).AttachServer(h)
	const n = 1000
	for i := 0; i < n; i++ {
		if err := dvm.Daemon(0).NotifyNode(0, []byte{byte(i >> 8), byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.count(); got != n {
		t.Fatalf("handler saw %d of %d self-notifies when NotifyNode returned", got, n)
	}
	for i, ev := range h.events {
		if got := int(ev[0])<<8 | int(ev[1]); got != i {
			t.Fatalf("position %d holds notify %d", i, got)
		}
	}
}
