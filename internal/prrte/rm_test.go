package prrte

import (
	"slices"
	"testing"
	"time"

	"gompi/internal/simnet"
)

// rmRuntime is the resource-manager surface Daemon and BootClient share.
type rmRuntime interface {
	AllocPGCID(groupName string, members []int, timeout time.Duration) (uint64, error)
	QueryPsets(timeout time.Duration) (map[string][]int, error)
	UpdatePset(name string, members []int) error
	DeregisterPset(name string) error
	PublishGlobal(key string, value []byte) error
	LookupGlobal(key string, timeout time.Duration) ([]byte, bool, error)
	UnpublishGlobal(key string) error
}

// rmFixture is one runtime under the contract: rt is the caller, peer a
// second process of the same job, register the launcher's static psets.
type rmFixture struct {
	rt, peer rmRuntime
	register func(name string, members []int)
}

// TestRuntimeRMContract runs one script against the resource manager as
// each runtime reaches it: the master daemon (served in place), another
// daemon (over simnet), and a process-mode boot client (over TCP). Every
// runtime must give the same answers.
func TestRuntimeRMContract(t *testing.T) {
	cases := map[string]func(t *testing.T) rmFixture{
		"dvm-master": func(t *testing.T) rmFixture {
			dvm := testDVM(t, 2)
			return rmFixture{dvm.Daemon(0), dvm.Daemon(1), dvm.RegisterPset}
		},
		"dvm-node1": func(t *testing.T) rmFixture {
			dvm := testDVM(t, 2)
			return rmFixture{dvm.Daemon(1), dvm.Daemon(0), dvm.RegisterPset}
		},
		"boot": func(t *testing.T) rmFixture {
			s, cs := bootPair(t, 2)
			return rmFixture{cs[0], cs[1], s.RegisterPset}
		},
	}
	for name, setup := range cases {
		t.Run(name, func(t *testing.T) {
			f := setup(t)
			rt, peer := f.rt, f.peer

			// PGCIDs are non-zero and distinct, whoever asks.
			seen := map[uint64]bool{}
			for i, c := range []rmRuntime{rt, peer, rt, peer} {
				id, err := c.AllocPGCID("", nil, time.Second)
				if err != nil || id == 0 || seen[id] {
					t.Fatalf("AllocPGCID #%d = %d, %v (seen %v)", i, id, err, seen)
				}
				seen[id] = true
			}

			// Members come back sorted whatever order they were written in:
			// at launch, with a PGCID, and by an update.
			f.register("app://x", []int{1, 0})
			f.register("app://ocean", []int{2, 0, 1})
			id, err := rt.AllocPGCID("grp/y", []int{3, 1, 2}, time.Second)
			if err != nil || id == 0 || seen[id] {
				t.Fatalf("AllocPGCID with a pset = %d, %v", id, err)
			}
			if err := rt.UpdatePset("grp/z", []int{9, 4}); err != nil {
				t.Fatal(err)
			}
			want := map[string][]int{"app://x": {0, 1}, "app://ocean": {0, 1, 2}, "grp/y": {1, 2, 3}, "grp/z": {4, 9}}
			psets := queryEquals(t, rt, want)
			// The PGCID's pset is visible to the other process too.
			if got, err := peer.QueryPsets(time.Second); err != nil || !slices.Equal(got["grp/y"], []int{1, 2, 3}) {
				t.Fatalf("peer sees grp/y = %v, %v", got["grp/y"], err)
			}

			// The query result is a copy.
			psets["app://x"][0] = 99
			psets["grp/new"] = []int{7}
			delete(psets, "grp/y")
			queryEquals(t, rt, want)

			// Update and deregister are visible to a later query.
			if err := rt.UpdatePset("grp/y", []int{5, 1}); err != nil {
				t.Fatal(err)
			}
			if err := rt.DeregisterPset("app://x"); err != nil {
				t.Fatal(err)
			}
			want = map[string][]int{"app://ocean": {0, 1, 2}, "grp/y": {1, 5}, "grp/z": {4, 9}}
			queryEquals(t, rt, want)
			// ... and, once the post has landed, to the other process.
			deadline := time.Now().Add(2 * time.Second)
			for {
				got, err := peer.QueryPsets(time.Second)
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := got["app://x"]; !ok {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("peer still sees the deregistered pset")
				}
				time.Sleep(time.Millisecond)
			}

			// Publish, lookup and unpublish.
			if _, ok, err := rt.LookupGlobal("port", 0); ok || err != nil {
				t.Fatalf("lookup before publish: ok=%v err=%v", ok, err)
			}
			if err := rt.PublishGlobal("port", []byte("tcp://x")); err != nil {
				t.Fatal(err)
			}
			if v, ok, err := rt.LookupGlobal("port", 0); !ok || err != nil || string(v) != "tcp://x" {
				t.Fatalf("lookup after publish = %q, %v, %v", v, ok, err)
			}
			if err := rt.UnpublishGlobal("port"); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := rt.LookupGlobal("port", 0); ok || err != nil {
				t.Fatalf("lookup after unpublish: ok=%v err=%v", ok, err)
			}

			// A blocking lookup waits for another process's publish.
			got := make(chan string, 1)
			go func() {
				v, ok, err := rt.LookupGlobal("late", 5*time.Second)
				if err != nil || !ok {
					v = []byte("miss")
				}
				got <- string(v)
			}()
			time.Sleep(50 * time.Millisecond)
			select {
			case v := <-got:
				t.Fatalf("blocking lookup returned %q before the publish", v)
			default:
			}
			if err := peer.PublishGlobal("late", []byte("now")); err != nil {
				t.Fatal(err)
			}
			select {
			case v := <-got:
				if v != "now" {
					t.Fatalf("blocking lookup = %q", v)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("blocking lookup never released")
			}

			// A blocking lookup of a key nobody publishes is a clean miss at
			// its deadline.
			start := time.Now()
			v, ok, err := rt.LookupGlobal("never", 150*time.Millisecond)
			if v != nil || ok || err != nil {
				t.Fatalf("timed-out lookup = (%v, %v, %v), want (nil, false, nil)", v, ok, err)
			}
			if el := time.Since(start); el < 120*time.Millisecond || el > 2*time.Second {
				t.Fatalf("timed-out lookup took %v for a 150ms deadline", el)
			}
		})
	}
}

func queryEquals(t *testing.T, rt rmRuntime, want map[string][]int) map[string][]int {
	t.Helper()
	got, err := rt.QueryPsets(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for name, members := range want {
		if !slices.Equal(got[name], members) {
			t.Fatalf("pset %q = %v, want %v (registry %v)", name, got[name], members, got)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Fatalf("unexpected pset %q in %v", name, got)
		}
	}
	return got
}

// parked counts the requesters parked on a key at the resource manager.
func parked(rm *resourceManager, key string) int {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	n := 0
	for k := range rm.lookups.m {
		if k.key == key {
			n++
		}
	}
	return n
}

// A blocking lookup from a non-master daemon is resent by rpcRetry until its
// deadline. The resends refresh one waiter at the master, and that waiter
// leaves with the deadline instead of outliving the caller.
func TestTimedOutLookupLeavesNoWaiter(t *testing.T) {
	dvm := testDVM(t, 2)
	if _, ok, err := dvm.Daemon(1).LookupGlobal("never", 1500*time.Millisecond); ok || err != nil {
		t.Fatalf("lookup = %v, %v", ok, err)
	}
	deadline := time.Now().Add(time.Second)
	for n := parked(dvm.rm, "never"); n != 0; n = parked(dvm.rm, "never") {
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters still parked a second after the caller's deadline", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// Resends of one blocking lookup share a reply endpoint, so the master keys
// them as one requester: a publish answers it once.
func TestResentLookupGetsOneReply(t *testing.T) {
	dvm := testDVM(t, 2)
	from := dvm.Fabric().NewEndpoint(1)
	rep := dvm.Fabric().NewEndpoint(1)
	t.Cleanup(func() { from.Close(); rep.Close() })
	req := rmMsg{ReplyTo: rep.Addr(), Req: rmReq{Op: rmLookup, Key: "late", Wait: true, Timeout: 5 * time.Second}}
	for i := 0; i < 4; i++ {
		if err := from.Send(dvm.Daemon(0).Addr(), simnet.Message{Ctrl: req, Size: req.Req.size()}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for parked(dvm.rm, "late") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("lookup never parked")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let every resend reach the master
	if n := parked(dvm.rm, "late"); n != 1 {
		t.Fatalf("%d waiters parked for one requester, want 1", n)
	}
	if err := dvm.Daemon(0).PublishGlobal("late", []byte("v")); err != nil {
		t.Fatal(err)
	}
	m, err := rep.Recv(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if r := m.Ctrl.(rmResp); !r.OK || string(r.Val) != "v" {
		t.Fatalf("reply = %+v", r)
	}
	if m, err := rep.Recv(100 * time.Millisecond); err == nil {
		t.Fatalf("second reply %+v for one requester", m.Ctrl)
	}
}

// TestParseModexKey pins the one direct-modex key parser the daemon and
// the PMIx server share: the rank's own key is everything after the second
// slash (a space does not cut it), and a key without a non-negative
// decimal rank between two slashes is not a modex key.
func TestParseModexKey(t *testing.T) {
	for _, c := range []struct {
		key  string
		rank int
		sub  string
		ok   bool
	}{
		{"modex/3/k", 3, "k", true},
		{"modex/3/a b", 3, "a b", true},
		{"modex/12/a/b", 12, "a/b", true},
		{"modex/0/", 0, "", true},
		{"modex//k", 0, "", false},
		{"modex/-1/k", 0, "", false},
		{"modex/+1/k", 0, "", false},
		{"modex/x/k", 0, "", false},
		{"modex/3", 0, "", false},
		{"pset/3/k", 0, "", false},
	} {
		rank, sub, ok := ParseModexKey(c.key)
		if rank != c.rank || sub != c.sub || ok != c.ok {
			t.Errorf("ParseModexKey(%q) = %d, %q, %v; want %d, %q, %v", c.key, rank, sub, ok, c.rank, c.sub, c.ok)
		}
	}
}
