package pmix

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gompi/internal/prrte"
	"gompi/internal/topo"
)

// stubRuntime is a one-node pmix.Runtime whose inter-server exchange
// answers with canned per-node blobs; everything else is a no-op.
type stubRuntime struct {
	exchange map[int][]byte // node -> blob returned by Exchange (the caller's own node gets its local blob)
}

func (r *stubRuntime) Node() int                                          { return 0 }
func (r *stubRuntime) AttachServer(prrte.ServerHandler)                   {}
func (r *stubRuntime) RPCDelay()                                          {}
func (r *stubRuntime) Profile() topo.Profile                              { return topo.Loopback(1) }
func (r *stubRuntime) QueryPsets(time.Duration) (map[string][]int, error) { return nil, nil }
func (r *stubRuntime) UpdatePset(string, []int) error                     { return nil }
func (r *stubRuntime) DeregisterPset(string) error                        { return nil }
func (r *stubRuntime) BroadcastEvent([]byte)                              {}
func (r *stubRuntime) NotifyNode(int, []byte) error                       { return nil }
func (r *stubRuntime) PublishGlobal(string, []byte) error                 { return nil }
func (r *stubRuntime) UnpublishGlobal(string) error                       { return nil }
func (r *stubRuntime) PublishModex(int, map[string][]byte)                {}
func (r *stubRuntime) NoteDeadRank(int)                                   {}
func (r *stubRuntime) NoteRevivedRank(int)                                {}

func (r *stubRuntime) Fetch(int, string, time.Duration) ([]byte, bool, error) {
	return nil, false, nil
}

func (r *stubRuntime) LookupGlobal(string, time.Duration) ([]byte, bool, error) {
	return nil, false, nil
}

func (r *stubRuntime) AllocPGCID(string, []int, time.Duration) (uint64, error) { return 1, nil }

func (r *stubRuntime) Exchange(_ string, _ []int, local []byte, _ time.Duration, _ <-chan struct{}) (map[int][]byte, error) {
	out := map[int][]byte{0: local}
	for n, blob := range r.exchange {
		out[n] = blob
	}
	return out, nil
}

// TestFenceFailsOnCorruptContribution: a remote rank's modex set that does
// not decode fails the fence, naming the rank, instead of being skipped so
// that the rank's keys go missing later.
func TestFenceFailsOnCorruptContribution(t *testing.T) {
	kv := ModexCodec.Encode(map[string][]byte{"btl.addr": []byte("node1:7")})
	rt := &stubRuntime{exchange: map[int][]byte{
		1: NodeBlobCodec.Encode(nodeBlob{Data: map[int][]byte{1: kv[:len(kv)-1]}}),
	}}
	s := NewServer(rt, prrte.JobMap{NP: 2, PPN: 1}, "job-0")
	defer s.Close()
	c := s.Connect(0)
	err := c.Fence([]int{0, 1}, true, time.Second)
	if err == nil {
		t.Fatal("fence with a truncated contribution from rank 1 succeeded")
	}
	if !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("fence error %q does not name rank 1", err)
	}
}

// TestHandleEventNeverBlocks: HandleEvent only queues. With the dispatcher
// stuck in a client's handler, thousands of further events must still be
// accepted at once (the daemon calls HandleEvent from its message handler,
// which may run on a sending daemon's caller), and
// once the handler returns every event is delivered, in order.
func TestHandleEventNeverBlocks(t *testing.T) {
	const n = 5000
	s := NewServer(&stubRuntime{}, prrte.JobMap{NP: 1, PPN: 1}, "job-0")
	defer s.Close()
	c := s.Connect(0)

	entered := make(chan struct{})
	release := make(chan struct{})
	var got atomic.Int64
	var inOrder atomic.Bool
	inOrder.Store(true)
	c.RegisterEventHandler(nil, func(ev Event) {
		if ev.PGCID == 0 {
			close(entered)
			<-release
		} else if int64(ev.PGCID) != got.Load() {
			inOrder.Store(false)
		}
		got.Add(1)
	})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	event := func(seq int) []byte {
		return EventCodec.Encode(Event{Code: EventGroupMemberLeft, Source: Proc{Nspace: "job-0"}, PGCID: uint64(seq)})
	}
	s.HandleEvent(event(0))
	<-entered

	done := make(chan struct{})
	go func() {
		for i := 1; i <= n; i++ {
			s.HandleEvent(event(i))
		}
		close(done)
	}()
	timer := time.NewTimer(time.Second)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		t.Fatalf("%d HandleEvent calls did not return within 1s while the dispatcher was busy", n)
	}

	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() < n+1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got.Load() != n+1 || !inOrder.Load() {
		t.Fatalf("delivered %d of %d events, in order: %v", got.Load(), n+1, inOrder.Load())
	}
}

// TestNewServerIsSmall: a server's fixed footprint is a few maps and a
// goroutine, not an event buffer sized for the worst case.
func TestNewServerIsSmall(t *testing.T) {
	const runs = 50
	rt := &stubRuntime{}
	job := prrte.JobMap{NP: 4, PPN: 2}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		NewServer(rt, job, "job-0").Close()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 16<<10 {
		t.Fatalf("NewServer+Close allocates %d B, want < 16 KiB", per)
	}
}
