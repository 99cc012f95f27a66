package bench

import (
	"fmt"
	"time"

	"gompi/internal/pmix"
	"gompi/internal/quo"
	"gompi/internal/topo"
	"gompi/mpi"
)

// Ablation benchmarks for the design choices called out in DESIGN.md §5.

// pingPong runs n round trips of buf between ranks 0 and 1 of comm.
func pingPong(comm *mpi.Comm, buf []byte, n int) error {
	peer := 1 - comm.Rank()
	for i := 0; i < n; i++ {
		if comm.Rank() == 0 {
			if err := comm.Send(buf, peer, 1); err != nil {
				return err
			}
		}
		if _, err := comm.Recv(buf, peer, 1); err != nil {
			return err
		}
		if comm.Rank() == 1 {
			if err := comm.Send(buf, peer, 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// timed runs f and returns its duration divided by per.
func timed(per int, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start) / time.Duration(per), err
}

// FirstMessageResult compares the first message on an exCID communicator
// (which carries the extended header and triggers the CID handshake) with
// the steady-state fast path, isolating the §III-B4 protocol cost.
type FirstMessageResult struct {
	FirstMessage time.Duration // ping-pong latency incl. handshake
	SteadyState  time.Duration // ping-pong latency after the handshake
	ExtMessages  uint64        // messages that carried extended headers
}

// AblationFirstMessage measures the exCID first-message overhead with two
// processes on one node.
func AblationFirstMessage(profile topo.Profile, steadyIters int) (FirstMessageResult, error) {
	var ext uint64
	ds, err := jobMax(profile, 1, 2, excidCfg(), func(p *mpi.Process) ([]time.Duration, error) {
		comm, cleanup, err := worldEquivalentComm(p, true, "abl.first")
		if err != nil {
			return nil, err
		}
		defer cleanup()
		buf := make([]byte, 8)
		// First exchange: extended header + handshake.
		first, err := timed(2, func() error { return pingPong(comm, buf, 1) })
		if err != nil {
			return nil, err
		}
		// Steady state after the ACKs have landed.
		if err := comm.Barrier(); err != nil {
			return nil, err
		}
		steady, err := timed(2*steadyIters, func() error { return pingPong(comm, buf, steadyIters) })
		if err != nil || comm.Rank() != 0 {
			return nil, err
		}
		ext = p.Instance().Engine().Stats().ExtSent
		return []time.Duration{first, steady}, nil
	})
	if err != nil {
		return FirstMessageResult{}, err
	}
	return FirstMessageResult{FirstMessage: ds[0], SteadyState: ds[1], ExtMessages: ext}, nil
}

// BTLResult compares intra-node small-message latency over the
// shared-memory fast path (default BTL selection routes node-local peers
// through sm) against the same exchange forced onto the fabric transport
// (BTL "^sm"), isolating what the PML/BTL split buys on-node.
type BTLResult struct {
	Size int           // message size in bytes
	SM   time.Duration // half round trip, sm fast path
	Net  time.Duration // half round trip, net path only
}

// AblationBTL measures a two-process single-node ping-pong under both BTL
// selections.
func AblationBTL(profile topo.Profile, iters, size int) (BTLResult, error) {
	res := BTLResult{Size: size}
	for _, v := range []struct {
		spec string
		d    *time.Duration
	}{{"", &res.SM}, {"^sm", &res.Net}} {
		cfg := excidCfg()
		cfg.BTL = v.spec
		ds, err := jobMax(profile, 1, 2, cfg, func(p *mpi.Process) ([]time.Duration, error) {
			comm, cleanup, err := worldEquivalentComm(p, true, "abl.btl")
			if err != nil {
				return nil, err
			}
			defer cleanup()
			buf := make([]byte, size)
			// Warm up past the exCID handshake and route selection.
			if err := pingPong(comm, buf, 10); err != nil {
				return nil, err
			}
			if err := comm.Barrier(); err != nil {
				return nil, err
			}
			d, err := timed(2*iters, func() error { return pingPong(comm, buf, iters) })
			if err != nil || comm.Rank() != 0 {
				return nil, err
			}
			return []time.Duration{d}, nil
		})
		if err != nil {
			return res, fmt.Errorf("bench: btl %q: %w", v.spec, err)
		}
		*v.d = ds[0]
	}
	return res, nil
}

// CollAblationResult compares the flat tuned collective algorithms against
// the hierarchical component for allreduce and bcast on a multi-node
// shape: hier cuts the inter-node message count to one per node.
type CollAblationResult struct {
	Nodes, PPN     int
	AllreduceBytes int // allreduce payload (float64 elements x 8)
	BcastBytes     int
	FlatAllreduce  time.Duration // per-op latency, Coll "^hier"
	HierAllreduce  time.Duration // per-op latency, default chain
	FlatBcast      time.Duration
	HierBcast      time.Duration
}

// AblationColl measures allreduce and bcast per-operation latency with the
// default component chain (hier,tuned,basic) and with hier excluded.
func AblationColl(profile topo.Profile, nodes, ppn, iters, allreduceCount, bcastBytes int) (CollAblationResult, error) {
	res := CollAblationResult{
		Nodes: nodes, PPN: ppn,
		AllreduceBytes: allreduceCount * 8, BcastBytes: bcastBytes,
	}
	for _, v := range []struct {
		spec   string
		ar, bc *time.Duration
	}{{"^hier", &res.FlatAllreduce, &res.FlatBcast}, {"", &res.HierAllreduce, &res.HierBcast}} {
		cfg := excidCfg()
		cfg.Coll = v.spec
		ds, err := jobMax(profile, nodes, ppn, cfg, func(p *mpi.Process) ([]time.Duration, error) {
			if err := p.Init(); err != nil {
				return nil, err
			}
			defer p.Finalize()
			world := p.CommWorld()
			send := make([]byte, allreduceCount*8)
			recv := make([]byte, allreduceCount*8)
			bbuf := make([]byte, bcastBytes)
			allreduce := func() error { return world.Allreduce(send, recv, allreduceCount, mpi.Float64, mpi.OpSum) }
			bcast := func() error { return world.Bcast(bbuf, 0) }
			// Warm up past route establishment and the exCID handshakes.
			for i := 0; i < 3; i++ {
				if err := allreduce(); err != nil {
					return nil, err
				}
				if err := bcast(); err != nil {
					return nil, err
				}
			}
			var ds []time.Duration
			for _, op := range []func() error{allreduce, bcast} {
				if err := world.Barrier(); err != nil {
					return nil, err
				}
				d, err := timed(iters, func() error {
					for i := 0; i < iters; i++ {
						if err := op(); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					return nil, err
				}
				ds = append(ds, d)
			}
			return ds, nil
		})
		if err != nil {
			return res, fmt.Errorf("bench: coll %q: %w", v.spec, err)
		}
		*v.ar, *v.bc = ds[0], ds[1]
	}
	return res, nil
}

// QuiesceResult compares the two QUO_barrier mechanisms (§IV-E): the
// native low-overhead blocking quiesce versus the sessions-aware
// Ibarrier test-and-park loop.
type QuiesceResult struct {
	Native   time.Duration // mean per-barrier cost, QUO 1.3 mechanism
	Sessions time.Duration // mean per-barrier cost, Ibarrier test-and-park
}

// AblationQuiesce measures both quiescence mechanisms over iters barriers
// on a single fully-subscribed node.
func AblationQuiesce(profile topo.Profile, ppn, iters int, poll time.Duration) (QuiesceResult, error) {
	var res QuiesceResult
	for _, sessions := range []bool{false, true} {
		cfg, d := consensusCfg(), &res.Native
		if sessions {
			cfg, d = excidCfg(), &res.Sessions
		}
		ds, err := jobMax(profile, 1, ppn, cfg, func(p *mpi.Process) ([]time.Duration, error) {
			if err := p.Init(); err != nil {
				return nil, err
			}
			defer p.Finalize()
			var ctx *quo.Context
			var err error
			if sessions {
				ctx, err = quo.CreateWithSession(p)
			} else {
				ctx, err = quo.Create(p, p.CommWorld())
			}
			if err != nil {
				return nil, err
			}
			defer ctx.Free()
			if poll > 0 {
				ctx.SetPollInterval(poll)
			}
			d, err := timed(iters, func() error {
				for i := 0; i < iters; i++ {
					if err := ctx.Barrier(); err != nil {
						return err
					}
				}
				return nil
			})
			return []time.Duration{d}, err
		})
		if err != nil {
			return res, fmt.Errorf("bench: quiesce (sessions=%v): %w", sessions, err)
		}
		*d = ds[0]
	}
	return res, nil
}

// WinCreateResult compares the prototype's window-from-group path (build
// an intermediate communicator, apply the MPI-3 constructor, free the
// intermediate — two communicator creations) with the direct constructor
// the paper lists as future work (one creation).
type WinCreateResult struct {
	Intermediate time.Duration // mean WinCreateFromGroup (prototype path)
	Direct       time.Duration // mean WinAllocateFromGroup (future work)
}

// AblationWinCreate measures both window construction paths.
func AblationWinCreate(profile topo.Profile, nodes, ppn, iters int) (WinCreateResult, error) {
	var res WinCreateResult
	for _, direct := range []bool{false, true} {
		d := &res.Intermediate
		if direct {
			d = &res.Direct
		}
		ds, err := jobMax(profile, nodes, ppn, excidCfg(), func(p *mpi.Process) ([]time.Duration, error) {
			sess, err := p.SessionInit(nil, nil)
			if err != nil {
				return nil, err
			}
			defer sess.Finalize()
			grp, err := sess.GroupFromPset(mpi.PsetWorld)
			if err != nil {
				return nil, err
			}
			d, err := timed(iters, func() error {
				for i := 0; i < iters; i++ {
					var win *mpi.Win
					if direct {
						win, err = sess.WinAllocateFromGroup(grp, fmt.Sprintf("d%d", i), 64)
					} else {
						win, err = sess.WinCreateFromGroup(grp, fmt.Sprintf("i%d", i), 64)
					}
					if err != nil {
						return err
					}
					if err := win.Free(); err != nil {
						return err
					}
				}
				return nil
			})
			return []time.Duration{d}, err
		})
		if err != nil {
			return res, fmt.Errorf("bench: win create (direct=%v): %w", direct, err)
		}
		*d = ds[0]
	}
	return res, nil
}

// GroupConstructResult compares the collective PMIx group constructor
// (used by the prototype) against the asynchronous invite/join mode.
type GroupConstructResult struct {
	Collective time.Duration // mean collective construct+destruct
	InviteJoin time.Duration // mean invite/join construct
}

// AblationGroupConstruct measures both construction modes over a
// world-spanning group: collectively (every rank constructs, leader-
// allocated PGCID, then destructs) and by invite/join (rank 0 invites
// everyone else and times it).
func AblationGroupConstruct(profile topo.Profile, nodes, ppn, iters int) (GroupConstructResult, error) {
	var res GroupConstructResult
	const timeout = 30 * time.Second
	for _, async := range []bool{false, true} {
		d := &res.Collective
		if async {
			d = &res.InviteJoin
		}
		ds, err := jobMax(profile, nodes, ppn, excidCfg(), func(p *mpi.Process) ([]time.Duration, error) {
			sess, err := p.SessionInit(nil, nil)
			if err != nil {
				return nil, err
			}
			defer sess.Finalize()
			client := p.Instance().Client()
			all := make([]int, p.JobSize())
			for i := range all {
				all[i] = i
			}
			// Start together, so the timing holds the protocol and not the
			// wait for ranks still finishing their own SessionInit.
			if err := client.Fence(all, false, timeout); err != nil {
				return nil, err
			}
			d, err := timed(iters, func() error {
				for i := 0; i < iters; i++ {
					if !async {
						name := fmt.Sprintf("abl.coll.%d", i)
						opts := pmix.GroupOpts{AssignContextID: true, Timeout: timeout}
						if _, err := client.GroupConstruct(name, all, opts); err != nil {
							return err
						}
						if err := client.GroupDestruct(name, all, timeout); err != nil {
							return err
						}
						continue
					}
					name := fmt.Sprintf("abl.async.%d", i)
					if p.JobRank() == 0 {
						if _, _, err := client.GroupInvite(name, all[1:], timeout); err != nil {
							return err
						}
					} else if _, err := client.GroupJoin(name, 0, true, timeout); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil || async && p.JobRank() != 0 {
				return nil, err
			}
			return []time.Duration{d}, nil
		})
		if err != nil {
			return res, fmt.Errorf("bench: group construct (invite/join=%v): %w", async, err)
		}
		*d = ds[0]
	}
	return res, nil
}
