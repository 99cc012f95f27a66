package prrte

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func bootPair(t *testing.T, np int) (*BootServer, []*BootClient) {
	t.Helper()
	s, err := NewBootServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewBootServer: %v", err)
	}
	t.Cleanup(s.Close)
	clients := make([]*BootClient, np)
	for i := range clients {
		c, err := DialBoot(s.Addr(), i, np)
		if err != nil {
			t.Fatalf("DialBoot(%d): %v", i, err)
		}
		t.Cleanup(c.Close)
		clients[i] = c
	}
	return s, clients
}

type testHandler struct {
	mu     sync.Mutex
	events [][]byte
	gotEv  chan struct{}
}

func newTestHandler() *testHandler {
	return &testHandler{gotEv: make(chan struct{}, 16)}
}

func (h *testHandler) HandleFetch(key string) ([]byte, bool) { return nil, false }

func (h *testHandler) HandleEvent(data []byte) {
	h.mu.Lock()
	h.events = append(h.events, append([]byte(nil), data...))
	h.mu.Unlock()
	h.gotEv <- struct{}{}
}

func (h *testHandler) waitEvent(t *testing.T) []byte {
	t.Helper()
	select {
	case <-h.gotEv:
	case <-time.After(5 * time.Second):
		t.Fatal("no event arrived")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.events[len(h.events)-1]
}

func TestBootExchange(t *testing.T) {
	_, cs := bootPair(t, 3)
	nodes := []int{0, 1, 2}

	var wg sync.WaitGroup
	results := make([]map[int][]byte, 3)
	errs := make([]error, 3)
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *BootClient) {
			defer wg.Done()
			results[i], errs[i] = c.Exchange("op-1", nodes, []byte(fmt.Sprintf("node-%d", i)), 5*time.Second, nil)
		}(i, c)
	}
	wg.Wait()
	for i := range cs {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if len(results[i]) != 3 {
			t.Fatalf("client %d got %d contributions", i, len(results[i]))
		}
		for n := 0; n < 3; n++ {
			if want := fmt.Sprintf("node-%d", n); string(results[i][n]) != want {
				t.Fatalf("client %d: contribution[%d] = %q, want %q", i, n, results[i][n], want)
			}
		}
	}

	// A second exchange under the same key works: the op state was retired.
	wg = sync.WaitGroup{}
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *BootClient) {
			defer wg.Done()
			results[i], errs[i] = c.Exchange("op-1", nodes, []byte{byte(i)}, 5*time.Second, nil)
		}(i, c)
	}
	wg.Wait()
	for i := range cs {
		if errs[i] != nil {
			t.Fatalf("second exchange, client %d: %v", i, errs[i])
		}
	}
}

func TestBootModexFetchParksUntilPublished(t *testing.T) {
	_, cs := bootPair(t, 2)

	// Client 1 fetches client 0's key before it exists: the parent must
	// park the fetch and answer once the modex push lands.
	type fr struct {
		val []byte
		ok  bool
		err error
	}
	done := make(chan fr, 1)
	go func() {
		v, ok, err := cs[1].Fetch(0, "modex/0/addr", 5*time.Second)
		done <- fr{v, ok, err}
	}()
	time.Sleep(50 * time.Millisecond) // let the fetch park
	cs[0].PublishModex(0, map[string][]byte{"addr": []byte("1.2.3.4:5")})

	r := <-done
	if r.err != nil || !r.ok || !bytes.Equal(r.val, []byte("1.2.3.4:5")) {
		t.Fatalf("parked fetch: val=%q ok=%v err=%v", r.val, r.ok, r.err)
	}

	// A fetch for a key nobody will publish times out as not-found.
	start := time.Now()
	_, ok, err := cs[1].Fetch(0, "modex/0/never", 300*time.Millisecond)
	if err != nil || ok {
		t.Fatalf("fetch of unpublished key: ok=%v err=%v", ok, err)
	}
	if time.Since(start) < 250*time.Millisecond {
		t.Fatal("fetch returned before its deadline")
	}
}

func TestBootPGCIDAndPsets(t *testing.T) {
	s, cs := bootPair(t, 2)
	s.RegisterPset("mpi://WORLD", []int{0, 1})

	id1, err := cs[0].AllocPGCID("app://g1", []int{0, 1}, time.Second)
	if err != nil {
		t.Fatalf("AllocPGCID: %v", err)
	}
	id2, err := cs[1].AllocPGCID("", nil, time.Second)
	if err != nil {
		t.Fatalf("AllocPGCID: %v", err)
	}
	if id1 == 0 || id2 == 0 || id1 == id2 {
		t.Fatalf("PGCIDs not unique non-zero: %d, %d", id1, id2)
	}

	psets, err := cs[1].QueryPsets(time.Second)
	if err != nil {
		t.Fatalf("QueryPsets: %v", err)
	}
	if len(psets["mpi://WORLD"]) != 2 || len(psets["app://g1"]) != 2 {
		t.Fatalf("psets = %v", psets)
	}

	if err := cs[0].UpdatePset("app://g1", []int{0}); err != nil {
		t.Fatalf("UpdatePset: %v", err)
	}
	if err := cs[0].DeregisterPset("mpi://WORLD"); err != nil {
		t.Fatalf("DeregisterPset: %v", err)
	}
	// Updates are fire-and-forget; a replied query afterwards on the same
	// connection observes them (serial per-conn processing).
	psets, err = cs[0].QueryPsets(time.Second)
	if err != nil {
		t.Fatalf("QueryPsets: %v", err)
	}
	if _, ok := psets["mpi://WORLD"]; ok {
		t.Fatal("deregistered pset still present")
	}
	if len(psets["app://g1"]) != 1 {
		t.Fatalf("updated pset = %v", psets["app://g1"])
	}
}

func TestBootNameService(t *testing.T) {
	_, cs := bootPair(t, 2)

	// Non-blocking lookup misses before publish.
	if _, ok, err := cs[1].LookupGlobal("port", 0); err != nil || ok {
		t.Fatalf("lookup before publish: ok=%v err=%v", ok, err)
	}
	// Blocking lookup parks until the publish arrives.
	done := make(chan []byte, 1)
	go func() {
		v, ok, err := cs[1].LookupGlobal("port", 5*time.Second)
		if err != nil || !ok {
			done <- nil
			return
		}
		done <- v
	}()
	time.Sleep(50 * time.Millisecond)
	if err := cs[0].PublishGlobal("port", []byte("tcp://x")); err != nil {
		t.Fatalf("PublishGlobal: %v", err)
	}
	if v := <-done; string(v) != "tcp://x" {
		t.Fatalf("blocking lookup returned %q", v)
	}

	if err := cs[0].UnpublishGlobal("port"); err != nil {
		t.Fatalf("UnpublishGlobal: %v", err)
	}
	if _, ok, _ := cs[0].LookupGlobal("port", 0); ok {
		t.Fatal("unpublished key still visible")
	}
}

func TestBootEvents(t *testing.T) {
	_, cs := bootPair(t, 3)
	handlers := make([]*testHandler, 3)
	for i, c := range cs {
		handlers[i] = newTestHandler()
		c.AttachServer(handlers[i])
	}

	cs[0].BroadcastEvent([]byte("boom"))
	for i, h := range handlers {
		if got := h.waitEvent(t); string(got) != "boom" {
			t.Fatalf("handler %d got %q", i, got)
		}
	}

	if err := cs[2].NotifyNode(1, []byte("psst")); err != nil {
		t.Fatalf("NotifyNode: %v", err)
	}
	if got := handlers[1].waitEvent(t); string(got) != "psst" {
		t.Fatalf("notify delivered %q", got)
	}
	select {
	case <-handlers[0].gotEv:
		t.Fatal("targeted notify leaked to node 0")
	case <-time.After(100 * time.Millisecond):
	}
}

func TestBootConnectionLossFailsPendingCalls(t *testing.T) {
	s, cs := bootPair(t, 1)
	errc := make(chan error, 1)
	go func() {
		_, err := cs[0].Exchange("never", []int{0, 1}, nil, 30*time.Second, nil)
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond)
	s.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("exchange succeeded after server close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call not failed on connection loss")
	}
	// And subsequent calls fail fast.
	if _, err := cs[0].QueryPsets(time.Second); err == nil {
		t.Fatal("call on dead client succeeded")
	}
}

// A fetch parked on a rank's modex data fails as soon as any process notes
// that rank dead, the same rule as Daemon.Fetch's; it does not wait out its
// deadline for data that can no longer arrive.
func TestBootFetchOfDeadRankFailsFast(t *testing.T) {
	_, cs := bootPair(t, 3)
	start := time.Now()
	errc := make(chan error, 1)
	go func() {
		_, _, err := cs[0].Fetch(1, "modex/1/x", 10*time.Second)
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the fetch park
	cs[2].NoteDeadRank(1)
	select {
	case err := <-errc:
		if !errors.Is(err, ErrDeadParticipant) {
			t.Fatalf("parked fetch err = %v, want ErrDeadParticipant", err)
		}
		if el := time.Since(start); el > time.Second {
			t.Fatalf("parked fetch failed after %v", el)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked fetch of a dead rank still waiting")
	}
	if _, _, err := cs[0].Fetch(1, "modex/1/y", 10*time.Second); !errors.Is(err, ErrDeadParticipant) {
		t.Fatalf("fetch after the note err = %v, want ErrDeadParticipant", err)
	}

	// Revived, the rank's data is fetchable again. The query orders the
	// post before the fetch.
	cs[2].NoteRevivedRank(1)
	if _, err := cs[2].QueryPsets(time.Second); err != nil {
		t.Fatal(err)
	}
	cs[1].PublishModex(1, map[string][]byte{"x": []byte("addr")})
	if v, ok, err := cs[0].Fetch(1, "modex/1/x", 5*time.Second); err != nil || !ok || string(v) != "addr" {
		t.Fatalf("fetch after revival = %q, %v, %v", v, ok, err)
	}
}
