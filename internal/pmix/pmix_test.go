package pmix

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gompi/internal/prrte"
	"gompi/internal/simnet"
	"gompi/internal/topo"
)

// env is a full PMIx test deployment: a DVM with one server per node and
// one connected client per rank.
type env struct {
	dvm     *prrte.DVM
	servers []*Server
	clients []*Client
	job     prrte.JobMap
}

func newEnv(t *testing.T, nodes, ppn int) *env {
	t.Helper()
	fabric := simnet.NewFabric(topo.New(topo.Loopback(ppn), nodes))
	dvm := prrte.NewDVM(fabric)
	job := prrte.JobMap{NP: nodes * ppn, PPN: ppn}
	e := &env{dvm: dvm, job: job}
	for n := 0; n < nodes; n++ {
		s := NewServer(dvm.Daemon(n), job, "job-0")
		e.servers = append(e.servers, s)
	}
	for r := 0; r < job.NP; r++ {
		e.clients = append(e.clients, e.servers[job.NodeOf(r)].Connect(r))
	}
	t.Cleanup(func() {
		for _, s := range e.servers {
			s.Close()
		}
		dvm.Shutdown()
	})
	return e
}

func allRanks(np int) []int {
	out := make([]int, np)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestPutCommitGetLocal(t *testing.T) {
	e := newEnv(t, 1, 2)
	if err := e.clients[0].Put("endpoint", []byte("ep-0")); err != nil {
		t.Fatal(err)
	}
	if err := e.clients[0].Commit(); err != nil {
		t.Fatal(err)
	}
	v, err := e.clients[1].Get(0, "endpoint", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "ep-0" {
		t.Fatalf("Get = %q", v)
	}
}

func TestGetRemoteDirectModex(t *testing.T) {
	e := newEnv(t, 2, 1)
	if err := e.clients[1].Put("addr", []byte("node1")); err != nil {
		t.Fatal(err)
	}
	if err := e.clients[1].Commit(); err != nil {
		t.Fatal(err)
	}
	// Rank 0 (node 0) fetches rank 1's data without any fence: direct modex.
	v, err := e.clients[0].Get(1, "addr", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "node1" {
		t.Fatalf("Get = %q", v)
	}
	// Second get hits the cache (no new inter-node message).
	before := e.dvm.Fabric().Stats().InterNodeMsgs
	if _, err := e.clients[0].Get(1, "addr", time.Second); err != nil {
		t.Fatal(err)
	}
	if after := e.dvm.Fabric().Stats().InterNodeMsgs; after != before {
		t.Fatalf("cached get generated %d inter-node messages", after-before)
	}
}

func TestGetMissingKey(t *testing.T) {
	e := newEnv(t, 2, 1)
	if _, err := e.clients[0].Get(0, "nope", time.Second); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("local missing: %v", err)
	}
	if _, err := e.clients[0].Get(1, "nope", time.Second); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("remote missing: %v", err)
	}
}

func TestFenceBarrierSemantics(t *testing.T) {
	e := newEnv(t, 2, 2)
	ranks := allRanks(4)
	var entered atomic.Int32
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if r == 3 {
				time.Sleep(50 * time.Millisecond) // straggler
			}
			entered.Add(1)
			if err := e.clients[r].Fence(ranks, false, 5*time.Second); err != nil {
				t.Errorf("rank %d fence: %v", r, err)
				return
			}
			if got := entered.Load(); got != 4 {
				t.Errorf("rank %d left fence with only %d entered", r, got)
			}
		}(r)
	}
	wg.Wait()
}

func TestFenceWithDataCollection(t *testing.T) {
	e := newEnv(t, 2, 2)
	ranks := allRanks(4)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := e.clients[r]
			if err := c.Put("k", []byte{byte(r)}); err != nil {
				t.Error(err)
				return
			}
			if err := c.Commit(); err != nil {
				t.Error(err)
				return
			}
			if err := c.Fence(ranks, true, 5*time.Second); err != nil {
				t.Errorf("rank %d: %v", r, err)
			}
		}(r)
	}
	wg.Wait()
	// After a collecting fence, remote data is cached: no extra wire traffic.
	before := e.dvm.Fabric().Stats().InterNodeMsgs
	for r := 0; r < 4; r++ {
		v, err := e.clients[0].Get(r, "k", time.Second)
		if err != nil {
			t.Fatalf("Get(%d): %v", r, err)
		}
		if len(v) != 1 || v[0] != byte(r) {
			t.Fatalf("Get(%d) = %v", r, v)
		}
	}
	if after := e.dvm.Fabric().Stats().InterNodeMsgs; after != before {
		t.Fatalf("gets after collecting fence used %d inter-node messages", after-before)
	}
}

func TestFenceTimeout(t *testing.T) {
	e := newEnv(t, 1, 2)
	// Rank 1 never enters.
	err := e.clients[0].Fence([]int{0, 1}, false, 50*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestFenceSequencedReuse(t *testing.T) {
	e := newEnv(t, 2, 1)
	ranks := []int{0, 1}
	for i := 0; i < 5; i++ {
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				if err := e.clients[r].Fence(ranks, false, 5*time.Second); err != nil {
					t.Errorf("iter %d rank %d: %v", i, r, err)
				}
			}(r)
		}
		wg.Wait()
	}
}

func TestGroupConstructAssignsConsistentPGCID(t *testing.T) {
	e := newEnv(t, 2, 2)
	ranks := allRanks(4)
	results := make([]GroupResult, 4)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			res, err := e.clients[r].GroupConstruct("g1", ranks, GroupOpts{AssignContextID: true, Timeout: 5 * time.Second})
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			results[r] = res
		}(r)
	}
	wg.Wait()
	if results[0].PGCID == 0 {
		t.Fatal("PGCID must be non-zero")
	}
	for r := 1; r < 4; r++ {
		if results[r].PGCID != results[0].PGCID {
			t.Fatalf("rank %d PGCID %d != rank 0 PGCID %d", r, results[r].PGCID, results[0].PGCID)
		}
	}
	// The group is discoverable as a pset.
	psets, err := e.clients[3].QueryPsetNames()
	if err != nil {
		t.Fatal(err)
	}
	if got := psets["g1"]; len(got) != 4 {
		t.Fatalf("pset g1 = %v", got)
	}
}

func TestGroupConstructSequentialUniqueIDs(t *testing.T) {
	e := newEnv(t, 2, 1)
	ranks := []int{0, 1}
	seen := make(map[uint64]bool)
	for i := 0; i < 3; i++ {
		var res [2]GroupResult
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				gr, err := e.clients[r].GroupConstruct("same-name", ranks, GroupOpts{AssignContextID: true, Timeout: 5 * time.Second})
				if err != nil {
					t.Errorf("iter %d rank %d: %v", i, r, err)
					return
				}
				res[r] = gr
			}(r)
		}
		wg.Wait()
		if res[0].PGCID != res[1].PGCID {
			t.Fatalf("iter %d: PGCIDs differ: %d vs %d", i, res[0].PGCID, res[1].PGCID)
		}
		if seen[res[0].PGCID] {
			t.Fatalf("iter %d: PGCID %d reused", i, res[0].PGCID)
		}
		seen[res[0].PGCID] = true
	}
}

func TestGroupConstructSubset(t *testing.T) {
	e := newEnv(t, 2, 2)
	// Odd ranks only: spans both nodes.
	ranks := []int{1, 3}
	var res [2]GroupResult
	var wg sync.WaitGroup
	for i, r := range ranks {
		wg.Add(1)
		go func(i, r int) {
			defer wg.Done()
			gr, err := e.clients[r].GroupConstruct("odds", ranks, GroupOpts{AssignContextID: true, Timeout: 5 * time.Second})
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			res[i] = gr
		}(i, r)
	}
	wg.Wait()
	if res[0].PGCID == 0 || res[0].PGCID != res[1].PGCID {
		t.Fatalf("PGCIDs: %d vs %d", res[0].PGCID, res[1].PGCID)
	}
}

func TestGroupConstructCallerNotMember(t *testing.T) {
	e := newEnv(t, 1, 2)
	_, err := e.clients[0].GroupConstruct("x", []int{1}, GroupOpts{AssignContextID: true})
	if !errors.Is(err, ErrBadArgument) {
		t.Fatalf("err = %v, want ErrBadArgument", err)
	}
}

func TestGroupConstructTimeout(t *testing.T) {
	e := newEnv(t, 1, 2)
	_, err := e.clients[0].GroupConstruct("never", []int{0, 1}, GroupOpts{AssignContextID: true, Timeout: 50 * time.Millisecond})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}

	// Regression: the timed-out attempt must not poison a later construct of
	// the same group. Before the withdraw-and-rollback fix, rank 0's stale
	// contribution and advanced sequence counter split the ranks across two
	// operation keys: rank 1 completed against the stale contribution while
	// rank 0 waited forever on a fresh key.
	var wg sync.WaitGroup
	res := make([]GroupResult, 2)
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			res[r], errs[r] = e.clients[r].GroupConstruct("never", []int{0, 1}, GroupOpts{AssignContextID: true, Timeout: 5 * time.Second})
		}(r)
	}
	wg.Wait()
	for r := 0; r < 2; r++ {
		if errs[r] != nil {
			t.Fatalf("re-run construct rank %d: %v", r, errs[r])
		}
	}
	if res[0].PGCID == 0 || res[0].PGCID != res[1].PGCID {
		t.Fatalf("re-run PGCIDs: %d vs %d", res[0].PGCID, res[1].PGCID)
	}
}

func TestGroupDestructRemovesPset(t *testing.T) {
	e := newEnv(t, 2, 1)
	ranks := []int{0, 1}
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if _, err := e.clients[r].GroupConstruct("doomed", ranks, GroupOpts{AssignContextID: true, Timeout: 5 * time.Second}); err != nil {
				t.Errorf("construct rank %d: %v", r, err)
			}
		}(r)
	}
	wg.Wait()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if err := e.clients[r].GroupDestruct("doomed", ranks, 5*time.Second); err != nil {
				t.Errorf("destruct rank %d: %v", r, err)
			}
		}(r)
	}
	wg.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for {
		psets, err := e.clients[0].QueryPsetNames()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := psets["doomed"]; !ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("pset still registered after destruct")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestQueryNumPsets(t *testing.T) {
	e := newEnv(t, 1, 1)
	e.dvm.RegisterPset("app://a", []int{0})
	e.dvm.RegisterPset("app://b", []int{0})
	n, err := e.clients[0].QueryNumPsets()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("NumPsets = %d, want 2", n)
	}
}

func TestAbortBroadcastsTermination(t *testing.T) {
	e := newEnv(t, 2, 1)
	var mu sync.Mutex
	var got []Event
	e.clients[1].RegisterEventHandler([]EventCode{EventProcTerminated}, func(ev Event) {
		mu.Lock()
		got = append(got, ev)
		mu.Unlock()
	})
	e.clients[0].Abort()
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 1 {
			mu.Lock()
			defer mu.Unlock()
			if got[0].Source.Rank != 0 {
				t.Fatalf("event source = %v", got[0].Source)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("termination event not delivered (got %d)", n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAbortFailsPendingLocalCollective(t *testing.T) {
	e := newEnv(t, 1, 2)
	errc := make(chan error, 1)
	go func() {
		errc <- e.clients[0].Fence([]int{0, 1}, false, 5*time.Second)
	}()
	time.Sleep(20 * time.Millisecond)
	e.clients[1].Abort()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrTerminated) {
			t.Fatalf("err = %v, want ErrTerminated", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("fence did not fail after peer abort")
	}
}

func TestEventHandlerDeregistration(t *testing.T) {
	e := newEnv(t, 1, 2)
	var count atomic.Int32
	id := e.clients[0].RegisterEventHandler(nil, func(Event) { count.Add(1) })
	e.clients[0].DeregisterEventHandler(id)
	e.clients[1].Abort()
	time.Sleep(50 * time.Millisecond)
	if count.Load() != 0 {
		t.Fatal("deregistered handler was invoked")
	}
}

func TestAsyncInviteJoinAllAccept(t *testing.T) {
	e := newEnv(t, 2, 2)
	var joined [2]GroupResult
	var wg sync.WaitGroup
	for i, r := range []int{1, 2} {
		wg.Add(1)
		go func(i, r int) {
			defer wg.Done()
			gr, err := e.clients[r].GroupJoin("async-g", 0, true, 5*time.Second)
			if err != nil {
				t.Errorf("join rank %d: %v", r, err)
				return
			}
			joined[i] = gr
		}(i, r)
	}
	res, outcomes, err := e.clients[0].GroupInvite("async-g", []int{1, 2}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if res.PGCID == 0 {
		t.Fatal("PGCID must be non-zero")
	}
	if len(res.Members) != 3 {
		t.Fatalf("members = %v, want 3", res.Members)
	}
	for _, o := range outcomes {
		if !o.Accepted || o.TimedOut {
			t.Fatalf("outcome = %+v, want accepted", o)
		}
	}
	for i := range joined {
		if joined[i].PGCID != res.PGCID {
			t.Fatalf("joiner %d PGCID %d != %d", i, joined[i].PGCID, res.PGCID)
		}
	}
}

func TestAsyncInviteDecline(t *testing.T) {
	e := newEnv(t, 1, 3)
	go func() {
		_, _ = e.clients[1].GroupJoin("declined-g", 0, true, 5*time.Second)
	}()
	go func() {
		_, _ = e.clients[2].GroupJoin("declined-g", 0, false, 5*time.Second)
	}()
	res, outcomes, err := e.clients[0].GroupInvite("declined-g", []int{1, 2}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Members) != 2 {
		t.Fatalf("members = %v, want initiator + one acceptor", res.Members)
	}
	accepted, declined := 0, 0
	for _, o := range outcomes {
		if o.TimedOut {
			t.Fatalf("outcome timed out: %+v", o)
		}
		if o.Accepted {
			accepted++
		} else {
			declined++
		}
	}
	if accepted != 1 || declined != 1 {
		t.Fatalf("accepted=%d declined=%d", accepted, declined)
	}
}

func TestAsyncInviteNonResponderTimesOut(t *testing.T) {
	e := newEnv(t, 1, 2)
	// Rank 1 never responds.
	res, outcomes, err := e.clients[0].GroupInvite("ghost-g", []int{1}, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Members) != 1 || res.Members[0] != 0 {
		t.Fatalf("members = %v, want just the initiator", res.Members)
	}
	if !outcomes[0].TimedOut {
		t.Fatalf("outcome = %+v, want TimedOut", outcomes[0])
	}
}

func TestGroupLeaveNotifiesAndUpdatesPset(t *testing.T) {
	e := newEnv(t, 2, 1)
	ranks := []int{0, 1}
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if _, err := e.clients[r].GroupConstruct("leavers", ranks, GroupOpts{AssignContextID: true, Timeout: 5 * time.Second}); err != nil {
				t.Errorf("rank %d: %v", r, err)
			}
		}(r)
	}
	wg.Wait()
	var left atomic.Int32
	e.clients[0].RegisterEventHandler([]EventCode{EventGroupMemberLeft}, func(ev Event) {
		if ev.Group == "leavers" && ev.Source.Rank == 1 {
			left.Add(1)
		}
	})
	if err := e.clients[1].GroupLeave("leavers", ranks); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for left.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("member-left event not delivered")
		}
		time.Sleep(time.Millisecond)
	}
	psets, err := e.clients[0].QueryPsetNames()
	if err != nil {
		t.Fatal(err)
	}
	if got := psets["leavers"]; len(got) != 1 || got[0] != 0 {
		t.Fatalf("pset after leave = %v, want [0]", got)
	}
}

func TestSetKeyAndParticipantNodes(t *testing.T) {
	if setKey([]int{3, 1, 2}) != setKey([]int{1, 2, 3}) {
		t.Fatal("setKey must be order-insensitive")
	}
	if setKey([]int{1, 2}) == setKey([]int{1, 2, 3}) {
		t.Fatal("setKey must distinguish different sets")
	}
	// Guard against concatenation ambiguity: {1,23} vs {12,3}.
	if setKey([]int{1, 23}) == setKey([]int{12, 3}) {
		t.Fatal("setKey ambiguous for multi-digit ranks")
	}
	nodeOf := func(r int) int { return r / 4 }
	nodes := participantNodes([]int{0, 5, 1, 9}, nodeOf)
	if len(nodes) != 3 || nodes[0] != 0 || nodes[1] != 1 || nodes[2] != 2 {
		t.Fatalf("participantNodes = %v", nodes)
	}
}

func TestClientAfterFinalize(t *testing.T) {
	e := newEnv(t, 1, 1)
	e.clients[0].Finalize()
	if err := e.clients[0].Put("k", []byte("v")); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("Put after finalize: %v", err)
	}
	if err := e.clients[0].Commit(); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("Commit after finalize: %v", err)
	}
	// Reconnect works (sessions re-init).
	c := e.servers[0].Connect(0)
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put after reconnect: %v", err)
	}
}
