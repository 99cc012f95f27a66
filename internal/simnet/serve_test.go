package simnet

import (
	"errors"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// onPump reports whether the calling goroutine is a served endpoint's pump.
func onPump() bool {
	buf := make([]byte, 8<<10)
	return strings.Contains(string(buf[:goruntime.Stack(buf, false)]), "simnet.(*Endpoint).pump(")
}

// pumps counts the live pump goroutines.
func pumps() int {
	buf := make([]byte, 1<<20)
	for {
		n := goruntime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "simnet.(*Endpoint).pump(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// waitPumps polls until at most want pumps are left.
func waitPumps(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); pumps() > want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d pump goroutines left, want at most %d", pumps(), want)
		}
	}
}

// recorder is a served handler that logs the first byte of each payload
// and fails the test if it is ever entered while already running.
type recorder struct {
	t       *testing.T
	running atomic.Bool
	mu      sync.Mutex
	got     []byte
	pumped  int
	then    func(Message) // optional, runs after the frame is logged
}

func (r *recorder) handle(m Message) {
	if !r.running.CompareAndSwap(false, true) {
		r.t.Errorf("handler entered while already delivering frame %d", m.Payload[0])
		return
	}
	defer r.running.Store(false)
	r.mu.Lock()
	r.got = append(r.got, m.Payload[0])
	if onPump() {
		r.pumped++
	}
	r.mu.Unlock()
	if r.then != nil {
		r.then(m)
	}
}

func (r *recorder) snapshot() ([]byte, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]byte(nil), r.got...), r.pumped
}

// wait polls until n frames were logged.
func (r *recorder) wait(n int) []byte {
	r.t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		got, _ := r.snapshot()
		if len(got) >= n {
			return got
		}
		if time.Now().After(deadline) {
			r.t.Fatalf("%d of %d frames delivered", len(got), n)
		}
	}
}

// TestServeInlineOnLoopback: a hop that costs nothing, to an idle served
// endpoint, runs the handler on the sender's goroutine before Send returns.
func TestServeInlineOnLoopback(t *testing.T) {
	f := loopbackFabric(2, 1)
	a, b := f.NewEndpoint(0), f.NewEndpoint(1)
	defer b.Close()
	var ranInline atomic.Bool
	b.Serve(func(m Message) { ranInline.Store(!onPump()) })
	if err := a.Send(b.Addr(), Message{Payload: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	if !ranInline.Load() {
		t.Fatal("a zero-cost hop to an idle served endpoint was not delivered inline by Send")
	}
}

// TestChaosServedFIFOUnderDelay: on Loopback, a fault plan delays every
// third frame of one sender, which queues that frame for the pump; the
// frames after it must wait behind it, not overtake it inline. All 1 000
// arrive in send order, some through the pump and the rest inline.
func TestChaosServedFIFOUnderDelay(t *testing.T) {
	const n = 1000
	f := loopbackFabric(2, 1)
	a, b := f.NewEndpoint(0), f.NewEndpoint(1)
	defer b.Close()
	rec := &recorder{t: t}
	b.Serve(rec.handle)
	delayed := &FaultPlan{Seed: 1, Delay: 1, DelayBy: 20 * time.Microsecond}
	for i := 0; i < n; i++ {
		if i%3 == 2 {
			f.SetFaultPlan(delayed)
		} else {
			f.SetFaultPlan(nil)
		}
		if err := a.Send(b.Addr(), Message{Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	f.SetFaultPlan(nil)
	got := rec.wait(n)
	for i, v := range got {
		if v != byte(i) {
			t.Fatalf("frame %d arrived as number %d: per-sender order broken", v, i)
		}
	}
	if st := f.FaultStats(); st.Delayed != n/3 {
		t.Fatalf("%d frames delayed, want %d", st.Delayed, n/3)
	}
	if _, pumped := rec.snapshot(); pumped < n/3 || pumped == n {
		t.Fatalf("%d of %d frames went through the pump, want the delayed ones and not all", pumped, n)
	}
}

// TestServeReentrantReply: handlers that answer their sender inline. The
// first reply runs the sender's handler nested inside the receiver's; the
// answer to it finds the receiver mid-delivery and waits for the pump. The
// exchange terminates, every frame arrives once and in order, and neither
// handler is ever entered while it runs.
func TestServeReentrantReply(t *testing.T) {
	const frames = 4
	f := loopbackFabric(2, 1)
	a, b := f.NewEndpoint(0), f.NewEndpoint(1)
	defer a.Close()
	defer b.Close()
	ra, rb := &recorder{t: t}, &recorder{t: t}
	answer := func(from *Endpoint, to Addr) func(Message) {
		return func(m Message) {
			if next := m.Payload[0] + 1; next < frames {
				if err := from.Send(to, Message{Payload: []byte{next}}); err != nil {
					t.Error(err)
				}
			}
		}
	}
	ra.then = answer(a, b.Addr())
	rb.then = answer(b, a.Addr())
	a.Serve(ra.handle)
	b.Serve(rb.handle)

	done := make(chan error, 1)
	go func() { done <- a.Send(b.Addr(), Message{Payload: []byte{0}}) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a handler answering its sender inline never returned")
	}
	if got := rb.wait(frames / 2); string(got) != "\x00\x02" {
		t.Fatalf("b received %v, want [0 2]", got)
	}
	if got := ra.wait(frames / 2); string(got) != "\x01\x03" {
		t.Fatalf("a received %v, want [1 3]", got)
	}
}

// TestServeCloseContract pins what Close promises on a served endpoint,
// the same as the shared segment's Deregister: it returns without waiting
// for a delivery already running (even one that calls Close itself), no
// delivery starts after it, queued frames are dropped, senders get
// ErrClosed, and the pump exits once its delivery returns.
func TestServeCloseContract(t *testing.T) {
	base := pumps()
	f := loopbackFabric(2, 1)
	s1, s2, a := f.NewEndpoint(0), f.NewEndpoint(0), f.NewEndpoint(1)
	entered, release := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	var got []byte
	a.Serve(func(m Message) {
		mu.Lock()
		got = append(got, m.Payload[0])
		mu.Unlock()
		if m.Payload[0] == 0 {
			close(entered)
			<-release
		}
	})
	sent := make(chan error, 1)
	go func() { sent <- s1.Send(a.Addr(), Message{Payload: []byte{0}}) }()
	<-entered
	// Frame 0 is mid-delivery, so frame 1 is queued behind it.
	if err := s2.Send(a.Addr(), Message{Payload: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() { a.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close waited for a running delivery")
	}
	if err := s2.Send(a.Addr(), Message{Payload: []byte{2}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}
	close(release)
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	waitPumps(t, base)
	mu.Lock()
	defer mu.Unlock()
	if string(got) != "\x00" {
		t.Fatalf("delivered %v, want only frame 0: nothing starts after Close", got)
	}

	// A handler that closes its own endpoint does not deadlock.
	b := f.NewEndpoint(1)
	b.Serve(func(Message) { b.Close() })
	if err := s1.Send(b.Addr(), Message{Payload: []byte{3}}); err != nil {
		t.Fatal(err)
	}
	if !b.Closed() {
		t.Fatal("the handler's Close did not take effect")
	}
	waitPumps(t, base)
}

// TestRecvOnServedPanics: a served endpoint has exactly one reader.
func TestRecvOnServedPanics(t *testing.T) {
	e := loopbackFabric(1, 1).NewEndpoint(0)
	defer e.Close()
	e.Serve(func(Message) {})
	for name, read := range map[string]func(){
		"Recv":    func() { _, _ = e.Recv(time.Millisecond) },
		"TryRecv": func() { _, _, _ = e.TryRecv() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a served endpoint did not panic", name)
				}
			}()
			read()
		}()
	}
}
