package simnet

import (
	"sync"
	"testing"
	"time"

	"gompi/internal/topo"
)

func loopbackFabric(nodes, cores int) *Fabric {
	return NewFabric(topo.New(topo.Loopback(cores), nodes))
}

func TestSendRecvSameNode(t *testing.T) {
	f := loopbackFabric(1, 4)
	a := f.NewEndpoint(0)
	b := f.NewEndpoint(0)
	if err := a.Send(b.Addr(), Message{Payload: []byte("hello")}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	m, err := b.Recv(time.Second)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if string(m.Payload) != "hello" {
		t.Fatalf("payload = %q, want %q", m.Payload, "hello")
	}
	if m.From != a.Addr() {
		t.Fatalf("From = %v, want %v", m.From, a.Addr())
	}
}

func TestSendRecvCrossNode(t *testing.T) {
	f := loopbackFabric(2, 4)
	a := f.NewEndpoint(0)
	b := f.NewEndpoint(1)
	if err := a.Send(b.Addr(), Message{Ctrl: 42, Size: 8}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	m, err := b.Recv(time.Second)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if v, ok := m.Ctrl.(int); !ok || v != 42 {
		t.Fatalf("Ctrl = %v, want 42", m.Ctrl)
	}
	st := f.Stats()
	if st.InterNodeMsgs != 1 || st.IntraNodeMsgs != 0 {
		t.Fatalf("stats = %+v, want one inter-node message", st)
	}
	if st.Bytes != 8 {
		t.Fatalf("bytes = %d, want 8 (Ctrl Size)", st.Bytes)
	}
}

func TestRecvOrderFIFOPerSender(t *testing.T) {
	f := loopbackFabric(1, 4)
	a := f.NewEndpoint(0)
	b := f.NewEndpoint(0)
	const n = 100
	for i := 0; i < n; i++ {
		if err := a.Send(b.Addr(), Message{Ctrl: i}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		m, err := b.Recv(time.Second)
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if m.Ctrl.(int) != i {
			t.Fatalf("message %d arrived out of order: got %v", i, m.Ctrl)
		}
	}
}

func TestRecvTimeout(t *testing.T) {
	f := loopbackFabric(1, 1)
	ep := f.NewEndpoint(0)
	start := time.Now()
	_, err := ep.Recv(20 * time.Millisecond)
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("Recv returned before the timeout elapsed")
	}
}

func TestSendToClosedEndpoint(t *testing.T) {
	f := loopbackFabric(1, 2)
	a := f.NewEndpoint(0)
	b := f.NewEndpoint(0)
	b.Close()
	if err := a.Send(b.Addr(), Message{Ctrl: 1}); err != ErrClosed {
		t.Fatalf("Send to closed endpoint: err = %v, want ErrClosed", err)
	}
}

func TestSendToUnknownAddr(t *testing.T) {
	f := loopbackFabric(1, 2)
	a := f.NewEndpoint(0)
	if err := a.Send(Addr{Node: 0, Slot: 99}, Message{}); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestCloseWakesBlockedReceiver(t *testing.T) {
	f := loopbackFabric(1, 1)
	ep := f.NewEndpoint(0)
	done := make(chan error, 1)
	go func() {
		_, err := ep.Recv(0)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	ep.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Fatalf("Recv after Close: err = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Recv did not return after Close")
	}
}

func TestDoubleCloseIsNoop(t *testing.T) {
	f := loopbackFabric(1, 1)
	ep := f.NewEndpoint(0)
	ep.Close()
	ep.Close()
	if !ep.Closed() {
		t.Fatal("endpoint should report closed")
	}
}

func TestTryRecv(t *testing.T) {
	f := loopbackFabric(1, 2)
	a := f.NewEndpoint(0)
	b := f.NewEndpoint(0)
	if _, ok, err := b.TryRecv(); ok || err != nil {
		t.Fatalf("TryRecv on empty mailbox: ok=%v err=%v", ok, err)
	}
	if err := a.Send(b.Addr(), Message{Ctrl: "x"}); err != nil {
		t.Fatal(err)
	}
	m, ok, err := b.TryRecv()
	if !ok || err != nil {
		t.Fatalf("TryRecv: ok=%v err=%v", ok, err)
	}
	if m.Ctrl.(string) != "x" {
		t.Fatalf("Ctrl = %v", m.Ctrl)
	}
	b.Close()
	if _, _, err := b.TryRecv(); err != ErrClosed {
		t.Fatalf("TryRecv on closed: err = %v, want ErrClosed", err)
	}
}

func TestManySendersOneReceiver(t *testing.T) {
	f := loopbackFabric(4, 8)
	dst := f.NewEndpoint(0)
	const senders = 16
	const per = 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ep := f.NewEndpoint(s % 4)
			for i := 0; i < per; i++ {
				if err := ep.Send(dst.Addr(), Message{Ctrl: [2]int{s, i}}); err != nil {
					t.Errorf("sender %d: %v", s, err)
					return
				}
			}
		}(s)
	}
	go func() { wg.Wait() }()
	next := make([]int, senders)
	for n := 0; n < senders*per; n++ {
		m, err := dst.Recv(5 * time.Second)
		if err != nil {
			t.Fatalf("Recv %d: %v", n, err)
		}
		si := m.Ctrl.([2]int)
		if si[1] != next[si[0]] {
			t.Fatalf("sender %d: got seq %d, want %d (per-sender FIFO violated)", si[0], si[1], next[si[0]])
		}
		next[si[0]]++
	}
}

func TestDelayInjection(t *testing.T) {
	p := topo.Loopback(2)
	p.InterNodeLatency = 2 * time.Millisecond
	f := NewFabric(topo.New(p, 2))
	a := f.NewEndpoint(0)
	b := f.NewEndpoint(1)
	start := time.Now()
	if err := a.Send(b.Addr(), Message{Ctrl: 1}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Fatalf("Send took %v, want >= 2ms of injected latency", elapsed)
	}
}

func TestBandwidthCost(t *testing.T) {
	p := topo.Loopback(2)
	p.IntraNodeBandwidth = 1e6 // 1 MB/s: 10 KB should take ~10ms
	f := NewFabric(topo.New(p, 1))
	a := f.NewEndpoint(0)
	b := f.NewEndpoint(0)
	start := time.Now()
	if err := a.Send(b.Addr(), Message{Payload: make([]byte, 10_000)}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 8*time.Millisecond {
		t.Fatalf("Send took %v, want ~10ms serialization cost", elapsed)
	}
}

func TestNewEndpointBadNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range node")
		}
	}()
	loopbackFabric(1, 1).NewEndpoint(5)
}

func TestSegmentRegisterLookupDeregister(t *testing.T) {
	f := NewFabric(topo.New(topo.Loopback(2), 2))
	seg := f.Segment(0)
	if seg == nil {
		t.Fatal("nil segment")
	}
	if f.Segment(0) != seg {
		t.Fatal("segment not cached per node")
	}
	if f.Segment(1) == seg {
		t.Fatal("distinct nodes must get distinct segments")
	}

	var got []byte
	seg.Register(3, func(pkt []byte) { got = pkt })
	fn, ok := seg.Lookup(3)
	if !ok {
		t.Fatal("registered rank not found")
	}
	fn([]byte{7})
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("deliver got %v", got)
	}
	if _, ok := seg.Lookup(4); ok {
		t.Fatal("unregistered rank found")
	}

	seg.Deregister(3)
	if _, ok := seg.Lookup(3); ok {
		t.Fatal("deregistered rank still found")
	}
	seg.Deregister(3) // no-op, must not panic

	// Re-register after deregister is the reinit cycle; must not panic.
	seg.Register(3, func([]byte) {})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("duplicate register should panic")
			}
		}()
		seg.Register(3, func([]byte) {})
	}()
}

// TestSegmentSnapshotUnderChurn looks ranks up while other ranks register
// and deregister, as sm senders do while node-mates finalize and
// re-initialize. Lookup reads the published snapshot without a lock, so a
// republish must never drop a rank it did not touch, and under -race the
// reads of churned slots must be ordered against their writes.
func TestSegmentSnapshotUnderChurn(t *testing.T) {
	seg := loopbackFabric(1, 8).Segment(0)
	var hits [8]int
	for r := 0; r < 4; r++ {
		seg.Register(r, func([]byte) { hits[r]++ })
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 4; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				seg.Register(r, func([]byte) {})
				seg.Deregister(r)
			}
		}()
	}
	for i := 0; i < 20000; i++ {
		r := i % 4
		fn, ok := seg.Lookup(r)
		if !ok {
			close(stop)
			wg.Wait()
			t.Fatalf("lookup %d: rank %d vanished while other ranks churned", i, r)
		}
		fn(nil)
		seg.Lookup(4 + r) // a churned slot: present or absent, and race-free
	}
	close(stop)
	wg.Wait()
	for r := 0; r < 4; r++ {
		if hits[r] != 5000 {
			t.Errorf("rank %d delivered %d times, want 5000", r, hits[r])
		}
	}
}

func TestSegmentOutOfRangePanics(t *testing.T) {
	f := NewFabric(topo.New(topo.Loopback(1), 1))
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range node should panic")
		}
	}()
	f.Segment(1)
}
