package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"os/exec"
	goruntime "runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gompi/internal/btl"
	btlnet "gompi/internal/btl/net"
	btlsm "gompi/internal/btl/sm"
	btludp "gompi/internal/btl/udp"
	"gompi/internal/coll"
	"gompi/internal/core"
	"gompi/internal/core/cid"
	"gompi/internal/opal"
	"gompi/internal/pmix"
	"gompi/internal/pml"
	"gompi/internal/prrte"
	"gompi/internal/simnet"
	"gompi/internal/topo"
	"gompi/mpi"
	"gompi/runtime"
)

// Layer probes: small closed loops that time one layer's public functions
// in isolation, on a zero-delay fabric, from outside the layer. They do not
// depend on the workload; a traced run of any workload runs all of them.

// layerUnits names every per-layer metric except the tracing overheads.
// Span-derived metrics (report.go) are listed here too.
var layerUnits = map[string]string{
	"runtime.new_job_us": "us", "runtime.launch_us": "us", "runtime.shutdown_us": "us",
	"runtime.proc_exec_floor_ms": "ms", "runtime.proc_dial_boot_us": "us",
	"mpi.session_init_us": "us", "mpi.group_from_pset_us": "us", "mpi.comm_create_from_group_us": "us",
	"mpi.comm_free_us": "us", "mpi.session_finalize_us": "us", "mpi.world_finalize_us": "us",
	"mpi.sendrecv_overhead_ns": "ns",
	"opal.mca_select_ns":       "ns", "opal.registry_cycle_ns": "ns",
	"simnet.send_recv_ns":   "ns",
	"prrte.dvm_exchange_us": "us", "prrte.dvm_alloc_pgcid_us": "us", "prrte.dvm_fetch_us": "us",
	"prrte.boot_exchange_us": "us", "prrte.boot_alloc_pgcid_us": "us", "prrte.boot_fetch_us": "us",
	"pmix.connect_us": "us", "pmix.put_commit_us": "us", "pmix.get_remote_us": "us", "pmix.fence_us": "us",
	"pmix.group_construct_us": "us", "pmix.group_destruct_us": "us", "pmix.query_psets_us": "us",
	"core.instance_acquire_us": "us", "core.instance_release_us": "us", "core.resolve_pset_us": "us", "core.cid_derive_ns": "ns",
	"pml.eager_pingpong_ns": "ns", "pml.posted_match_ns": "ns", "pml.unexpected_match_ns": "ns",
	"pml.rendezvous_64KiB_us": "us", "pml.excid_first_msg_us": "us", "pml.add_remove_channel_us": "us",
	"pml.allocs_per_eager_msg": "count", "pml.posted_hit_ratio": "ratio",
	"btl.sm.send_ns": "ns", "btl.net.oneway_ns": "ns",
	"btl.udp.encode_ns_1400B": "ns", "btl.udp.decode_ns_1400B": "ns", "btl.udp.filter_reject_ns": "ns",
	"btl.udp.send_ns_8B": "ns", "btl.udp.oneway_us_8B": "us", "btl.udp.frag_MBps_64KiB": "MB/s",
	"btl.udp.allocs_per_datagram": "count", "btl.udp.drops": "count",
	"coll.schedule_build_us": "us", "coll.cache_hit_prepare_ns": "ns", "coll.engine_step_ns": "ns",
	"coll.percall_allreduce_8B_us": "us", "coll.persistent_allreduce_8B_us": "us",
	"coll.allocs_per_percall_allreduce": "count", "coll.allocs_per_persistent_start": "count",
	"coll.schedule_cache_hit_ratio": "ratio",
}

const probeTimeout = 5 * time.Second

// prober carries the per-loop budget and collects results.
type prober struct {
	each time.Duration
	out  map[string]float64
}

// med stores the median of a timed loop, divided by div to reach the unit.
func (p *prober) med(name string, div float64, op func(n int) (time.Duration, error)) error {
	s, err := measure(p.each, op)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	p.out[name] = median(s) / div
	return nil
}

// mallocs counts heap allocations of the whole process across fn.
func mallocs(fn func() error) (uint64, error) {
	var before, after goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&before)
	err := fn()
	goruntime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, err
}

// lockstep drives a multi-party operation: step(arg) runs fn(party, arg) on
// one long-lived goroutine per party 1..n-1 and on the caller as party 0,
// waits for all, and returns party 0's timing.
type lockstep struct {
	fn      func(party, arg int) (time.Duration, error)
	trigger []chan int
	done    []chan error
	wg      sync.WaitGroup
}

func newLockstep(parties int, fn func(party, arg int) (time.Duration, error)) *lockstep {
	l := &lockstep{fn: fn}
	for p := 1; p < parties; p++ {
		trigger, done := make(chan int), make(chan error)
		l.trigger, l.done = append(l.trigger, trigger), append(l.done, done)
		l.wg.Add(1)
		go func(p int) {
			defer l.wg.Done()
			for arg := range trigger {
				_, err := fn(p, arg)
				done <- err
			}
		}(p)
	}
	return l
}

func (l *lockstep) step(arg int) (time.Duration, error) {
	for _, t := range l.trigger {
		t <- arg
	}
	d, err := l.fn(0, arg)
	for _, done := range l.done {
		if e := <-done; e != nil && err == nil {
			err = e
		}
	}
	return d, err
}

func (l *lockstep) close() {
	for _, t := range l.trigger {
		close(t)
	}
	l.wg.Wait()
}

// runProbes runs every layer probe, splitting the budget evenly.
func runProbes(budget time.Duration, m mode) (map[string]float64, error) {
	probes := []func(*prober) error{
		probeOpal, probeSimnet, probeDVM, probeBoot, probePMIx, probeCore,
		probePML, probeBTL, probeUDP, probeColl, probeProc,
	}
	if m.proc {
		// The process-mode harness never calls NewJob/Launch/Shutdown, so no
		// span can give these three; time an in-process job instead.
		probes = append(probes, probeJobCycle)
	}
	const loops = 48 // timed loops across all probes, roughly
	p := &prober{each: budget / loops, out: map[string]float64{}}
	for _, probe := range probes {
		goruntime.GC()
		if err := probe(p); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

func probeOpal(p *prober) error {
	frameworks := []string{"pml", "btl", "coll", "osc"}
	names := make([]string, 40)
	for i := range names {
		names[i] = "comp" + strconv.Itoa(i)
	}
	err := p.med("opal.mca_select_ns", 1, timed(func(n int) error {
		for i := 0; i < n; i++ {
			m := opal.NewMCA(func(int) {})
			for j, name := range names {
				m.Register(frameworks[j%len(frameworks)], opal.Component{Name: name, Priority: j})
			}
			if _, err := m.SelectComponents("btl", ""); err != nil {
				return err
			}
		}
		return nil
	}))
	if err != nil {
		return err
	}
	reg := opal.NewRegistry()
	initFn := func() (func(), error) { return func() {}, nil }
	return p.med("opal.registry_cycle_ns", 1, timed(func(n int) error {
		for i := 0; i < n; i++ {
			if err := reg.Acquire("pml", initFn); err != nil {
				return err
			}
			if err := reg.Release("pml"); err != nil {
				return err
			}
			reg.CleanupIfIdle()
		}
		return nil
	}))
}

func probeSimnet(p *prober) error {
	f := simnet.NewFabric(topo.New(topo.Loopback(1), 2))
	a, b := f.NewEndpoint(0), f.NewEndpoint(1)
	defer a.Close()
	defer b.Close()
	payload := make([]byte, smallBytes)
	return p.med("simnet.send_recv_ns", 1, timed(func(n int) error {
		for i := 0; i < n; i++ {
			if err := a.Send(b.Addr(), simnet.Message{Payload: payload}); err != nil {
				return err
			}
			if _, err := b.Recv(probeTimeout); err != nil {
				return err
			}
		}
		return nil
	}))
}

// fetchHandler serves one fixed key, standing in for a pmix server.
type fetchHandler struct{ key string }

func (h fetchHandler) HandleFetch(key string) ([]byte, bool) { return []byte("value"), key == h.key }
func (fetchHandler) HandleEvent([]byte)                      {}

// probeRuntime times the three calls pmix makes into the resource manager,
// on either implementation of it: an exchange between two nodes, a PGCID
// allocation from the node that is not the master, and a remote fetch.
func probeRuntime(p *prober, prefix string, nodes [2]pmix.Runtime, fetchKey string) error {
	both := []int{0, 1}
	blob := []byte("contribution")
	ex := newLockstep(2, func(party, arg int) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < arg; i++ {
			if _, err := nodes[party].Exchange(prefix+"-op", both, blob, probeTimeout, nil); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	})
	defer ex.close()
	if err := p.med("prrte."+prefix+"_exchange_us", 1e3, ex.step); err != nil {
		return err
	}
	members := []int{0, 1}
	err := p.med("prrte."+prefix+"_alloc_pgcid_us", 1e3, timed(func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := nodes[1].AllocPGCID("", members, probeTimeout); err != nil {
				return err
			}
		}
		return nil
	}))
	if err != nil {
		return err
	}
	return p.med("prrte."+prefix+"_fetch_us", 1e3, timed(func(n int) error {
		for i := 0; i < n; i++ {
			if _, ok, err := nodes[0].Fetch(1, fetchKey, probeTimeout); err != nil || !ok {
				return fmt.Errorf("fetch: found=%v err=%v", ok, err)
			}
		}
		return nil
	}))
}

func probeDVM(p *prober) error {
	dvm := prrte.NewDVM(simnet.NewFabric(topo.New(topo.Loopback(1), 2)))
	defer dvm.Shutdown()
	d0, d1 := dvm.Daemon(0), dvm.Daemon(1)
	d0.AttachServer(fetchHandler{"key"})
	d1.AttachServer(fetchHandler{"key"})
	return probeRuntime(p, "dvm", [2]pmix.Runtime{d0, d1}, "key")
}

func probeBoot(p *prober) error {
	srv, err := prrte.NewBootServer("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	var cs [2]pmix.Runtime
	for i := range cs {
		c, err := prrte.DialBoot(srv.Addr(), i, 2)
		if err != nil {
			return err
		}
		defer c.Close()
		c.AttachServer(fetchHandler{})
		cs[i] = c
	}
	// The boot server answers fetches from the modex data ranks publish.
	cs[1].PublishModex(1, map[string][]byte{"key": []byte("value")})
	return probeRuntime(p, "boot", cs, "modex/1/key")
}

func allRanks(np int) []int {
	out := make([]int, np)
	for i := range out {
		out[i] = i
	}
	return out
}

// substrate is what runtime.NewJob builds for a 2 x 2 job, taken apart so
// the probes can reach each piece.
type substrate struct {
	fabric  *simnet.Fabric
	dvm     *prrte.DVM
	job     prrte.JobMap
	servers []*pmix.Server
}

func newSubstrate() *substrate {
	s := &substrate{fabric: simnet.NewFabric(topo.New(topo.Loopback(2), 2)), job: prrte.JobMap{NP: 4, PPN: 2}}
	s.dvm = prrte.NewDVM(s.fabric)
	for n := 0; n < s.job.Nodes(); n++ {
		s.servers = append(s.servers, pmix.NewServer(s.dvm.Daemon(n), s.job, "job-0"))
	}
	return s
}

func (s *substrate) close() {
	for _, srv := range s.servers {
		srv.Close()
	}
	s.dvm.Shutdown()
}

func probePMIx(p *prober) error {
	s := newSubstrate()
	defer s.close()
	np := s.job.NP
	all := allRanks(np)
	clients := make([]*pmix.Client, np)
	for r := 1; r < np; r++ {
		clients[r] = s.servers[s.job.NodeOf(r)].Connect(r)
	}
	// Rank 0 connects last, in the timed loop; its Finalize is untimed.
	err := p.med("pmix.connect_us", 1e3, func(n int) (time.Duration, error) {
		var total time.Duration
		for i := 0; i < n; i++ {
			t0 := time.Now()
			c := s.servers[0].Connect(0)
			total += time.Since(t0)
			c.Finalize()
		}
		return total, nil
	})
	if err != nil {
		return err
	}
	clients[0] = s.servers[0].Connect(0)
	defer func() {
		for _, c := range clients {
			c.Finalize()
		}
	}()

	value := make([]byte, 64)
	err = p.med("pmix.put_commit_us", 1e3, timed(func(n int) error {
		for i := 0; i < n; i++ {
			if err := clients[0].Put("probe.addr", value); err != nil {
				return err
			}
			if err := clients[0].Commit(); err != nil {
				return err
			}
		}
		return nil
	}))
	if err != nil {
		return err
	}
	// A fetched value is cached at the fetching server, so every timed Get
	// asks for a key rank 2 (on the other node) has only just committed.
	seq := 0
	err = p.med("pmix.get_remote_us", 1e3, func(n int) (time.Duration, error) {
		var total time.Duration
		for i := 0; i < n; i++ {
			seq++
			key := "probe.k" + strconv.Itoa(seq)
			if err := clients[2].Put(key, value); err != nil {
				return 0, err
			}
			if err := clients[2].Commit(); err != nil {
				return 0, err
			}
			t0 := time.Now()
			_, err := clients[0].Get(2, key, probeTimeout)
			total += time.Since(t0)
			if err != nil {
				return 0, err
			}
		}
		return total, nil
	})
	if err != nil {
		return err
	}

	fence := newLockstep(np, func(party, arg int) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < arg; i++ {
			if err := clients[party].Fence(all, false, probeTimeout); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	})
	err = p.med("pmix.fence_us", 1e3, fence.step)
	fence.close()
	if err != nil {
		return err
	}

	// One loop constructs and destructs; which of the two it times is the
	// only difference between the two metrics.
	opts := pmix.GroupOpts{Timeout: probeTimeout, AssignContextID: true}
	var groups atomic.Int64
	group := func(timeConstruct bool) *lockstep {
		return newLockstep(np, func(party, arg int) (time.Duration, error) {
			var total time.Duration
			base := int(groups.Load())
			for i := 0; i < arg; i++ {
				name := "probe.group." + strconv.Itoa(base+i)
				t0 := time.Now()
				res, err := clients[party].GroupConstruct(name, all, opts)
				t1 := time.Now()
				if err != nil {
					return 0, err
				}
				if res.PGCID == 0 {
					return 0, fmt.Errorf("group construct returned no PGCID")
				}
				err = clients[party].GroupDestruct(name, all, probeTimeout)
				if err != nil {
					return 0, err
				}
				if timeConstruct {
					total += t1.Sub(t0)
				} else {
					total += time.Since(t1)
				}
			}
			return total, nil
		})
	}
	for _, g := range []struct {
		name      string
		construct bool
	}{{"pmix.group_construct_us", true}, {"pmix.group_destruct_us", false}} {
		ls := group(g.construct)
		err := p.med(g.name, 1e3, func(n int) (time.Duration, error) {
			d, err := ls.step(n)
			groups.Add(int64(n))
			return d, err
		})
		ls.close()
		if err != nil {
			return err
		}
	}

	return p.med("pmix.query_psets_us", 1e3, timed(func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := clients[0].QueryPsetNames(); err != nil {
				return err
			}
		}
		return nil
	}))
}

func probeCore(p *prober) error {
	s := newSubstrate()
	defer s.close()
	inst := core.NewInstance(core.Deps{Fabric: s.fabric, Server: s.servers[0], Rank: 0, Cfg: core.Config{CIDMode: core.CIDExtended}})
	cycle := func(timeAcquire bool) func(n int) (time.Duration, error) {
		return func(n int) (time.Duration, error) {
			var total time.Duration
			for i := 0; i < n; i++ {
				t0 := time.Now()
				err := inst.Acquire()
				t1 := time.Now()
				if err != nil {
					return 0, err
				}
				if err := inst.Release(); err != nil {
					return 0, err
				}
				if timeAcquire {
					total += t1.Sub(t0)
				} else {
					total += time.Since(t1)
				}
			}
			return total, nil
		}
	}
	if err := p.med("core.instance_acquire_us", 1e3, cycle(true)); err != nil {
		return err
	}
	if err := p.med("core.instance_release_us", 1e3, cycle(false)); err != nil {
		return err
	}
	if err := inst.Acquire(); err != nil {
		return err
	}
	err := p.med("core.resolve_pset_us", 1e3, timed(func(n int) error {
		for i := 0; i < n; i++ {
			ranks, err := inst.ResolvePset(mpi.PsetWorld)
			if err != nil {
				return err
			}
			if len(ranks) != s.job.NP {
				return fmt.Errorf("mpi://world resolved to %d ranks", len(ranks))
			}
		}
		return nil
	}))
	if relErr := inst.Release(); err == nil {
		err = relErr
	}
	if err != nil {
		return err
	}
	pgcid := uint64(1)
	return p.med("core.cid_derive_ns", 1, timed(func(n int) error {
		for i := 0; i < n; i++ {
			pgcid++
			if _, err := cid.NewFromPGCID(pgcid).Derive(); err != nil {
				return err
			}
		}
		return nil
	}))
}

// pmlWindow is the burst length of the matching probes.
const pmlWindow = 64

func probePML(p *prober) error {
	seg := simnet.NewFabric(topo.New(topo.Loopback(2), 1)).Segment(0)
	nodeOf := func(int) int { return 0 }
	ranks := []int{0, 1}
	var eng [2]*pml.Engine
	var ch [2]*pml.Channel
	for r := range eng {
		eng[r] = pml.NewEngine([]btl.Module{btlsm.New(seg, 0, r, nodeOf, 0)}, pml.Config{})
		defer eng[r].Close()
		c, err := eng[r].AddChannel(0, pml.ExCID{}, false, r, ranks)
		if err != nil {
			return err
		}
		ch[r] = c
	}

	// pingPong returns a two-party loop of arg round trips of size bytes.
	pingPong := func(size int) *lockstep {
		bufs := [2][]byte{make([]byte, size), make([]byte, size)}
		return newLockstep(2, func(party, arg int) (time.Duration, error) {
			c, buf, peer := ch[party], bufs[party], 1-party
			t0 := time.Now()
			for i := 0; i < arg; i++ {
				if party == 0 {
					if err := c.Send(peer, 1, buf); err != nil {
						return 0, err
					}
				}
				if _, err := c.Recv(peer, 1, buf); err != nil {
					return 0, err
				}
				if party == 1 {
					if err := c.Send(peer, 1, buf); err != nil {
						return 0, err
					}
				}
			}
			return time.Since(t0), nil
		})
	}
	small := pingPong(smallBytes)
	defer small.close()
	before := [2]pml.Stats{eng[0].Stats(), eng[1].Stats()}
	if err := p.med("pml.eager_pingpong_ns", 2, small.step); err != nil { // half a round trip
		return err
	}
	var posted, unexpected uint64
	for r := range eng {
		after := eng[r].Stats()
		posted += after.PostedHits - before[r].PostedHits
		unexpected += after.UnexpectedHits - before[r].UnexpectedHits
	}
	if posted+unexpected > 0 {
		p.out["pml.posted_hit_ratio"] = float64(posted) / float64(posted+unexpected)
	}
	const trips = 2000
	n, err := mallocs(func() error { _, err := small.step(trips); return err })
	if err != nil {
		return err
	}
	p.out["pml.allocs_per_eager_msg"] = float64(n) / (2 * trips)

	large := pingPong(largeBytes)
	err = p.med("pml.rendezvous_64KiB_us", 2e3, large.step)
	large.close()
	if err != nil {
		return err
	}

	// Matching: party 0 sends bursts of pmlWindow messages, party 1
	// receives them. Posted: the receives are up before the burst (party 1
	// says so with a credit). Unexpected: the burst lands first — sm
	// delivers inline, so once the trailing marker has arrived every message
	// of the burst sits in the unexpected queue — and the receives follow.
	match := func(postFirst bool) *lockstep {
		bufs := make([]byte, smallBytes*pmlWindow)
		msg, flag := make([]byte, smallBytes), make([]byte, 1)
		reqs := make([]*pml.Request, pmlWindow)
		return newLockstep(2, func(party, arg int) (time.Duration, error) {
			c := ch[party]
			t0 := time.Now()
			for i := 0; i < arg; i++ {
				if party == 0 {
					if postFirst {
						if _, err := c.Recv(1, 3, flag); err != nil {
							return 0, err
						}
					}
					for w := 0; w < pmlWindow; w++ {
						if err := c.Send(1, 2, msg); err != nil {
							return 0, err
						}
					}
					if !postFirst {
						if err := c.Send(1, 3, flag); err != nil {
							return 0, err
						}
					}
					if _, err := c.Recv(1, 4, flag); err != nil { // burst consumed
						return 0, err
					}
					continue
				}
				if !postFirst {
					if _, err := c.Recv(0, 3, flag); err != nil {
						return 0, err
					}
				}
				for w := range reqs {
					reqs[w] = c.Irecv(0, 2, bufs[w*smallBytes:(w+1)*smallBytes])
				}
				if postFirst {
					if err := c.Send(0, 3, flag); err != nil {
						return 0, err
					}
				}
				if err := pml.WaitAll(reqs...); err != nil {
					return 0, err
				}
				if err := c.Send(0, 4, flag); err != nil {
					return 0, err
				}
			}
			return time.Since(t0), nil
		})
	}
	for _, m := range []struct {
		name      string
		postFirst bool
	}{{"pml.posted_match_ns", true}, {"pml.unexpected_match_ns", false}} {
		ls := match(m.postFirst)
		err := p.med(m.name, pmlWindow, ls.step)
		ls.close()
		if err != nil {
			return err
		}
	}

	// First message on a fresh exCID channel: the extended header goes out,
	// the peer learns the local CID and acknowledges. The channel pair is
	// built and a base-channel round trip lines the parties up before the
	// clock starts.
	var next atomic.Uint64
	next.Store(1 << 20)
	first := newLockstep(2, func(party, arg int) (time.Duration, error) {
		var total time.Duration
		base := next.Load()
		buf, peer := make([]byte, smallBytes), 1-party
		for i := 0; i < arg; i++ {
			ex := pml.ExCID{PGCID: base + uint64(i)}
			c, err := eng[party].AddChannel(eng[party].AllocCID(1), ex, true, party, ranks)
			if err != nil {
				return 0, err
			}
			if party == 0 {
				if err := ch[0].Send(1, 5, buf); err != nil {
					return 0, err
				}
			}
			if _, err := ch[party].Recv(peer, 5, buf); err != nil {
				return 0, err
			}
			if party == 1 {
				if err := ch[1].Send(0, 5, buf); err != nil {
					return 0, err
				}
			}
			t0 := time.Now()
			if party == 0 {
				if err := c.Send(1, 1, buf); err != nil {
					return 0, err
				}
			}
			if _, err := c.Recv(peer, 1, buf); err != nil {
				return 0, err
			}
			if party == 1 {
				if err := c.Send(0, 1, buf); err != nil {
					return 0, err
				}
			}
			total += time.Since(t0)
			eng[party].RemoveChannel(c)
		}
		return total, nil
	})
	err = p.med("pml.excid_first_msg_us", 1e3, func(n int) (time.Duration, error) {
		d, err := first.step(n)
		next.Add(uint64(n))
		return d, err
	})
	first.close()
	if err != nil {
		return err
	}

	id := uint64(1 << 40)
	return p.med("pml.add_remove_channel_us", 1e3, timed(func(n int) error {
		for i := 0; i < n; i++ {
			id++
			c, err := eng[0].AddChannel(eng[0].AllocCID(1), pml.ExCID{PGCID: id}, true, 0, ranks)
			if err != nil {
				return err
			}
			eng[0].RemoveChannel(c)
		}
		return nil
	}))
}

func probeBTL(p *prober) error {
	fabric := simnet.NewFabric(topo.New(topo.Loopback(2), 2))
	seg := fabric.Segment(0)
	nodeOf := func(int) int { return 0 }
	sm0, sm1 := btlsm.New(seg, 0, 0, nodeOf, 0), btlsm.New(seg, 0, 1, nodeOf, 0)
	defer sm0.Close()
	defer sm1.Close()
	sm0.Activate(func([]byte) {})
	sm1.Activate(func([]byte) {})
	ep, err := sm0.AddProc(1)
	if err != nil {
		return err
	}
	pkt := make([]byte, smallBytes)
	err = p.med("btl.sm.send_ns", 1, timed(func(n int) error {
		for i := 0; i < n; i++ {
			if err := ep.Send(pkt); err != nil {
				return err
			}
		}
		return nil
	}))
	if err != nil {
		return err
	}

	// net: one packet across nodes, timed until the receiving module's
	// progress goroutine hands it to the upcall.
	eps := [2]*simnet.Endpoint{fabric.NewEndpoint(0), fabric.NewEndpoint(1)}
	resolve := func(rank int) (simnet.Addr, error) { return eps[rank].Addr(), nil }
	n0, n1 := btlnet.New(eps[0], resolve, 0), btlnet.New(eps[1], resolve, 0)
	defer n0.Close()
	defer n1.Close()
	arrived := make(chan struct{}, 1)
	n0.Activate(func([]byte) {})
	n1.Activate(func([]byte) { arrived <- struct{}{} })
	nep, err := n0.AddProc(1)
	if err != nil {
		return err
	}
	return p.med("btl.net.oneway_ns", 1, timed(func(n int) error {
		for i := 0; i < n; i++ {
			if err := nep.Send(pkt); err != nil {
				return err
			}
			<-arrived
		}
		return nil
	}))
}

func probeUDP(p *prober) error {
	const nonce = 0x62656e6368 // "bench"
	payload := make([]byte, btludp.DefaultMTU-btludp.HeaderSize)
	frame := btludp.Frame{SrcRank: 1, MsgID: 7, FragCount: 1, TotalLen: uint32(len(payload)), Nonce: nonce}
	var datagram []byte
	err := p.med("btl.udp.encode_ns_1400B", 1, timed(func(n int) error {
		for i := 0; i < n; i++ {
			datagram = btludp.EncodeFrame(frame, payload)
		}
		return nil
	}))
	if err != nil {
		return err
	}
	err = p.med("btl.udp.decode_ns_1400B", 1, timed(func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := btludp.DecodeFrame(datagram); err != nil {
				return err
			}
		}
		return nil
	}))
	if err != nil {
		return err
	}
	foreign := btludp.NewPacketFilter(nonce + 1)
	err = p.med("btl.udp.filter_reject_ns", 1, timed(func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := foreign.Screen(datagram); err == nil {
				return fmt.Errorf("filter accepted a foreign job's datagram")
			}
		}
		return nil
	}))
	if err != nil {
		return err
	}

	// Two modules over real loopback sockets, wired the way core wires them.
	var cards [2]string
	var mods [2]*btludp.Module
	for r := range mods {
		m, err := btludp.New(btludp.Config{
			Rank: r, Nonce: nonce, Alloc: pml.ArenaGet, Free: pml.ArenaPut,
			Resolve: func(rank int) (string, error) { return cards[rank], nil },
		})
		if err != nil {
			return err
		}
		defer m.Close()
		mods[r], cards[r] = m, m.Card()
	}
	var got atomic.Int64
	wake := make(chan struct{}, 1)
	mods[0].Activate(func(pkt []byte) { pml.ArenaPut(pkt) })
	mods[1].Activate(func(pkt []byte) {
		pml.ArenaPut(pkt)
		got.Add(1)
		select {
		case wake <- struct{}{}:
		default:
		}
	})
	ep, err := mods[0].AddProc(1)
	if err != nil {
		return err
	}
	sent := int64(0)
	send := func(size int) error {
		sent++
		return ep.Send(pml.ArenaGet(size)) // the module recycles the packet
	}
	lost := time.NewTimer(probeTimeout)
	defer lost.Stop()
	drain := func() error {
		for got.Load() < sent {
			select {
			case <-wake:
			case <-lost.C:
				return fmt.Errorf("udp: %d of %d packets never arrived", sent-got.Load(), sent)
			}
		}
		return nil
	}
	// Sender-side cost alone: bursts short enough for the socket buffer,
	// with the wait for their delivery left out of the time.
	err = p.med("btl.udp.send_ns_8B", 1, func(n int) (time.Duration, error) {
		var total time.Duration
		for done := 0; done < n; {
			burst := min(n-done, 128)
			t0 := time.Now()
			for i := 0; i < burst; i++ {
				if err := send(smallBytes); err != nil {
					return 0, err
				}
			}
			total += time.Since(t0)
			if err := drain(); err != nil {
				return 0, err
			}
			done += burst
		}
		return total, nil
	})
	if err != nil {
		return err
	}
	oneway := func(size int) func(n int) (time.Duration, error) {
		return timed(func(n int) error {
			for i := 0; i < n; i++ {
				if err := send(size); err != nil {
					return err
				}
				if err := drain(); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err := p.med("btl.udp.oneway_us_8B", 1e3, oneway(smallBytes)); err != nil {
		return err
	}
	const datagrams = 2000
	n, err := mallocs(func() error { _, err := oneway(smallBytes)(datagrams); return err })
	if err != nil {
		return err
	}
	p.out["btl.udp.allocs_per_datagram"] = float64(n) / datagrams
	s, err := measure(p.each, oneway(largeBytes))
	if err != nil {
		return err
	}
	p.out["btl.udp.frag_MBps_64KiB"] = largeBytes * 1e3 / median(s)
	p.out["btl.udp.drops"] = float64(mods[0].Stats().Drops + mods[1].Stats().Drops)
	return nil
}

// collTag is the collective tag window the coll probes run in.
const collTag = -16

// sumInt64 is the reduction the coll probes use: little-endian int64 add.
func sumInt64(inout, in []byte, count int) error {
	for i := 0; i < count; i++ {
		o := 8 * i
		binary.LittleEndian.PutUint64(inout[o:], binary.LittleEndian.Uint64(inout[o:])+binary.LittleEndian.Uint64(in[o:]))
	}
	return nil
}

func probeColl(p *prober) error {
	const np = 4
	components := []string{"tuned", "basic"}
	// Building schedules needs no peers: one rank, shapes it has not seen.
	const shapes = 1024
	in, out := make([]byte, 8*shapes), make([]byte, 8*shapes)
	var mod *coll.Module
	fresh := func() error {
		fw, err := coll.NewFramework(components, nil)
		if err != nil {
			return err
		}
		mod = fw.NewModule(&newMesh(np).ranks[0], nil, "probe")
		return nil
	}
	err := p.med("coll.schedule_build_us", 1e3, func(n int) (time.Duration, error) {
		var total time.Duration
		for i := 0; i < n; i++ {
			if i%shapes == 0 {
				if err := fresh(); err != nil {
					return 0, err
				}
			}
			count := 1 + i%shapes
			t0 := time.Now()
			_, err := mod.PrepareAllreduce(in[:8*count], out[:8*count], count, 8, sumInt64, true, collTag)
			total += time.Since(t0)
			if err != nil {
				return 0, err
			}
		}
		return total, nil
	})
	if err != nil {
		return err
	}
	if err := fresh(); err != nil {
		return err
	}
	err = p.med("coll.cache_hit_prepare_ns", 1, timed(func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := mod.PrepareAllreduce(in[:8], out[:8], 1, 8, sumInt64, true, collTag); err != nil {
				return err
			}
		}
		return nil
	}))
	if err != nil {
		return err
	}

	// Four ranks in lockstep over the harness's own transport.
	fw, err := coll.NewFramework(components, nil)
	if err != nil {
		return err
	}
	m := newMesh(np)
	mods := make([]*coll.Module, np)
	execs := make([]*coll.Exec, np)
	ins, outs := make([][]byte, np), make([][]byte, np)
	for r := range mods {
		mods[r] = fw.NewModule(&m.ranks[r], nil, "probe")
		ins[r], outs[r] = make([]byte, 8), make([]byte, 8)
		ins[r][0] = byte(r + 1)
		if execs[r], err = mods[r].PrepareAllreduce(ins[r], outs[r], 1, 8, sumInt64, true, collTag); err != nil {
			return err
		}
	}
	loop := func(op func(r int) error) *lockstep {
		return newLockstep(np, func(party, arg int) (time.Duration, error) {
			t0 := time.Now()
			for i := 0; i < arg; i++ {
				if err := op(party); err != nil {
					return 0, err
				}
			}
			return time.Since(t0), nil
		})
	}
	percall := loop(func(r int) error { return mods[r].Allreduce(ins[r], outs[r], 1, 8, sumInt64, true, collTag) })
	defer percall.close()
	persistent := loop(func(r int) error { return execs[r].Run() })
	defer persistent.close()
	check := func() error {
		for r := range outs {
			if got := binary.LittleEndian.Uint64(outs[r]); got != 1+2+3+4 {
				return fmt.Errorf("coll probe: rank %d holds sum %d, want 10", r, got)
			}
		}
		return nil
	}

	if err := p.med("coll.percall_allreduce_8B_us", 1e3, percall.step); err != nil {
		return err
	}
	if err := check(); err != nil {
		return err
	}
	snap := fw.Snapshot()
	var calls uint64
	for _, algo := range coll.Algorithms(coll.Allreduce) {
		calls += snap["allreduce/"+algo]
	}
	if calls > 0 {
		p.out["coll.schedule_cache_hit_ratio"] = float64(snap["schedule_cache_hits"]) / float64(calls)
	}
	s, err := measure(p.each, persistent.step)
	if err != nil {
		return err
	}
	if err := check(); err != nil {
		return err
	}
	p.out["coll.persistent_allreduce_8B_us"] = median(s) / 1e3
	p.out["coll.engine_step_ns"] = median(s) / float64(execs[0].Steps())

	const calls4 = 1000
	for name, ls := range map[string]*lockstep{
		"coll.allocs_per_percall_allreduce": percall,
		"coll.allocs_per_persistent_start":  persistent,
	} {
		n, err := mallocs(func() error { _, err := ls.step(calls4); return err })
		if err != nil {
			return err
		}
		p.out[name] = float64(n) / (calls4 * np) // per rank per call
	}
	return nil
}

// probeProc: what a process-mode job pays before MPI starts — fork/exec of
// this binary doing nothing, and one boot-rendezvous dial.
func probeProc(p *prober) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	err = p.med("runtime.proc_exec_floor_ms", 1e6, timed(func(n int) error {
		for i := 0; i < n; i++ {
			cmd := exec.Command(self)
			cmd.Env = append(os.Environ(), envNoop+"=1")
			if err := cmd.Run(); err != nil {
				return err
			}
		}
		return nil
	}))
	if err != nil {
		return err
	}
	srv, err := prrte.NewBootServer("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	return p.med("runtime.proc_dial_boot_us", 1e3, func(n int) (time.Duration, error) {
		var total time.Duration
		for i := 0; i < n; i++ {
			t0 := time.Now()
			c, err := prrte.DialBoot(srv.Addr(), 0, 1)
			total += time.Since(t0)
			if err != nil {
				return 0, err
			}
			c.Close()
		}
		return total, nil
	})
}

// probeJobCycle times the three runtime calls of an in-process 2 x 2
// Sessions cycle.
func probeJobCycle(p *prober) error {
	opts := runtime.Options{Cluster: topo.New(topo.Loopback(2), 2), NP: 4, PPN: 2, Config: core.Config{CIDMode: core.CIDExtended}}
	var newJob, launch, shutdown []float64
	deadline := time.Now().Add(3 * p.each)
	for len(newJob) < 3 || time.Now().Before(deadline) {
		t0 := time.Now()
		job, err := runtime.NewJob(opts)
		if err != nil {
			return err
		}
		t1 := time.Now()
		err = job.Launch(func(proc *mpi.Process) error {
			return sessionsCycle(proc, plan{}, nil, &rankResult{})
		})
		t2 := time.Now()
		job.Shutdown()
		t3 := time.Now()
		if err != nil {
			return err
		}
		newJob = append(newJob, float64(t1.Sub(t0))/1e3)
		launch = append(launch, float64(t2.Sub(t1))/1e3)
		shutdown = append(shutdown, float64(t3.Sub(t2))/1e3)
	}
	p.out["runtime.new_job_us"] = median(newJob)
	p.out["runtime.launch_us"] = median(launch)
	p.out["runtime.shutdown_us"] = median(shutdown)
	return nil
}
