package bench

import (
	"fmt"
	"sync"
	"time"

	"gompi/internal/pmix"
	"gompi/internal/quo"
	"gompi/internal/topo"
	"gompi/mpi"
	"gompi/runtime"
)

func groupConstructOpts() pmix.GroupOpts {
	return pmix.GroupOpts{AssignContextID: true, Timeout: 30 * time.Second}
}

// Ablation benchmarks for the design choices called out in DESIGN.md §5.

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
	var res FirstMessageResult
	var mu sync.Mutex
	err := runtime.Run(jobOpts(profile, 1, 2, excidCfg()), func(p *mpi.Process) error {
		comm, cleanup, err := worldEquivalentComm(p, true, "abl.first")
		if err != nil {
			return err
		}
		defer cleanup()
		me := comm.Rank()
		buf := make([]byte, 8)

		// First exchange: extended header + handshake.
		start := time.Now()
		if me == 0 {
			if err := comm.Send(buf, 1, 1); err != nil {
				return err
			}
			if _, err := comm.Recv(buf, 1, 1); err != nil {
				return err
			}
		} else {
			if _, err := comm.Recv(buf, 0, 1); err != nil {
				return err
			}
			if err := comm.Send(buf, 0, 1); err != nil {
				return err
			}
		}
		first := time.Since(start) / 2

		// Steady state after the ACKs have landed.
		if err := comm.Barrier(); err != nil {
			return err
		}
		start = time.Now()
		for i := 0; i < steadyIters; i++ {
			if me == 0 {
				if err := comm.Send(buf, 1, 1); err != nil {
					return err
				}
				if _, err := comm.Recv(buf, 1, 1); err != nil {
					return err
				}
			} else {
				if _, err := comm.Recv(buf, 0, 1); err != nil {
					return err
				}
				if err := comm.Send(buf, 0, 1); err != nil {
					return err
				}
			}
		}
		steady := time.Since(start) / time.Duration(2*steadyIters)
		ext := p.Instance().Engine().Stats().ExtSent
		if me == 0 {
			mu.Lock()
			res = FirstMessageResult{FirstMessage: first, SteadyState: steady, ExtMessages: ext}
			mu.Unlock()
		}
		return nil
	})
	return res, err
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
	measure := func(btlSpec string, acc *time.Duration) error {
		var m maxDuration
		cfg := excidCfg()
		cfg.BTL = btlSpec
		err := runtime.Run(jobOpts(profile, 1, 2, cfg), func(p *mpi.Process) error {
			comm, cleanup, err := worldEquivalentComm(p, true, "abl.btl")
			if err != nil {
				return err
			}
			defer cleanup()
			me := comm.Rank()
			buf := make([]byte, size)
			pingPong := func(n int) error {
				for i := 0; i < n; i++ {
					if me == 0 {
						if err := comm.Send(buf, 1, 1); err != nil {
							return err
						}
						if _, err := comm.Recv(buf, 1, 1); err != nil {
							return err
						}
					} else {
						if _, err := comm.Recv(buf, 0, 1); err != nil {
							return err
						}
						if err := comm.Send(buf, 0, 1); err != nil {
							return err
						}
					}
				}
				return nil
			}
			// Warm up past the exCID handshake and route selection.
			if err := pingPong(10); err != nil {
				return err
			}
			if err := comm.Barrier(); err != nil {
				return err
			}
			start := time.Now()
			if err := pingPong(iters); err != nil {
				return err
			}
			if me == 0 {
				m.add(time.Since(start) / time.Duration(2*iters))
			}
			return nil
		})
		*acc = m.d
		return err
	}
	if err := measure("", &res.SM); err != nil {
		return res, fmt.Errorf("bench: btl sm path: %w", err)
	}
	settle()
	if err := measure("^sm", &res.Net); err != nil {
		return res, fmt.Errorf("bench: btl net path: %w", err)
	}
	return res, nil
}

// CollAblationResult compares the flat tuned collective algorithms against
// the hierarchical component for allreduce and bcast on a multi-node
// shape: hier cuts the inter-node message count to one per node, which on
// profiles with a real intra/inter latency gap should beat the flat
// schedules that cross the fabric every round.
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
	measure := func(collSpec string, ar, bc *time.Duration) error {
		var mAr, mBc maxDuration
		cfg := excidCfg()
		cfg.Coll = collSpec
		err := runtime.Run(jobOpts(profile, nodes, ppn, cfg), func(p *mpi.Process) error {
			if err := p.Init(); err != nil {
				return err
			}
			defer p.Finalize()
			world := p.CommWorld()
			send := make([]byte, allreduceCount*8)
			recv := make([]byte, allreduceCount*8)
			bbuf := make([]byte, bcastBytes)
			// Warm up past route establishment and the exCID handshakes.
			for i := 0; i < 3; i++ {
				if err := world.Allreduce(send, recv, allreduceCount, mpi.Float64, mpi.OpSum); err != nil {
					return err
				}
				if err := world.Bcast(bbuf, 0); err != nil {
					return err
				}
			}
			if err := world.Barrier(); err != nil {
				return err
			}
			start := time.Now()
			for i := 0; i < iters; i++ {
				if err := world.Allreduce(send, recv, allreduceCount, mpi.Float64, mpi.OpSum); err != nil {
					return err
				}
			}
			mAr.add(time.Since(start) / time.Duration(iters))
			if err := world.Barrier(); err != nil {
				return err
			}
			start = time.Now()
			for i := 0; i < iters; i++ {
				if err := world.Bcast(bbuf, 0); err != nil {
					return err
				}
			}
			mBc.add(time.Since(start) / time.Duration(iters))
			return nil
		})
		*ar, *bc = mAr.d, mBc.d
		return err
	}
	if err := measure("^hier", &res.FlatAllreduce, &res.FlatBcast); err != nil {
		return res, fmt.Errorf("bench: coll flat: %w", err)
	}
	settle()
	if err := measure("", &res.HierAllreduce, &res.HierBcast); err != nil {
		return res, fmt.Errorf("bench: coll hier: %w", err)
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
	measure := func(sessions bool) (time.Duration, error) {
		var m maxDuration
		cfg := consensusCfg()
		if sessions {
			cfg = excidCfg()
		}
		err := runtime.Run(jobOpts(profile, 1, ppn, cfg), func(p *mpi.Process) error {
			if err := p.Init(); err != nil {
				return err
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
				return err
			}
			defer ctx.Free()
			if poll > 0 {
				ctx.SetPollInterval(poll)
			}
			start := time.Now()
			for i := 0; i < iters; i++ {
				if err := ctx.Barrier(); err != nil {
					return err
				}
			}
			m.add(time.Since(start) / time.Duration(iters))
			return nil
		})
		return m.d, err
	}
	var err error
	if res.Native, err = measure(false); err != nil {
		return res, fmt.Errorf("bench: quiesce native: %w", err)
	}
	if res.Sessions, err = measure(true); err != nil {
		return res, fmt.Errorf("bench: quiesce sessions: %w", err)
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
	measure := func(direct bool, acc *time.Duration) error {
		var m maxDuration
		err := runtime.Run(jobOpts(profile, nodes, ppn, excidCfg()), func(p *mpi.Process) error {
			sess, err := p.SessionInit(nil, nil)
			if err != nil {
				return err
			}
			defer sess.Finalize()
			grp, err := sess.GroupFromPset(mpi.PsetWorld)
			if err != nil {
				return err
			}
			start := time.Now()
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
			m.add(time.Since(start) / time.Duration(iters))
			return nil
		})
		*acc = m.d
		return err
	}
	if err := measure(false, &res.Intermediate); err != nil {
		return res, fmt.Errorf("bench: win create intermediate: %w", err)
	}
	if err := measure(true, &res.Direct); err != nil {
		return res, fmt.Errorf("bench: win create direct: %w", err)
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
// world-spanning group.
func AblationGroupConstruct(profile topo.Profile, nodes, ppn, iters int) (GroupConstructResult, error) {
	var res GroupConstructResult

	// Collective mode: every rank constructs, leader-allocated PGCID.
	var coll maxDuration
	err := runtime.Run(jobOpts(profile, nodes, ppn, excidCfg()), func(p *mpi.Process) error {
		sess, err := p.SessionInit(nil, nil)
		if err != nil {
			return err
		}
		defer sess.Finalize()
		client := p.Instance().Client()
		all := make([]int, p.JobSize())
		for i := range all {
			all[i] = i
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			name := fmt.Sprintf("abl.coll.%d", i)
			if _, err := client.GroupConstruct(name, all, groupConstructOpts()); err != nil {
				return err
			}
			if err := client.GroupDestruct(name, all, 30*time.Second); err != nil {
				return err
			}
		}
		coll.add(time.Since(start) / time.Duration(iters))
		return nil
	})
	if err != nil {
		return res, fmt.Errorf("bench: group construct collective: %w", err)
	}
	res.Collective = coll.d

	// Invite/join mode: rank 0 invites everyone else.
	var async maxDuration
	err = runtime.Run(jobOpts(profile, nodes, ppn, excidCfg()), func(p *mpi.Process) error {
		sess, err := p.SessionInit(nil, nil)
		if err != nil {
			return err
		}
		defer sess.Finalize()
		client := p.Instance().Client()
		others := make([]int, 0, p.JobSize()-1)
		for i := 1; i < p.JobSize(); i++ {
			others = append(others, i)
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			name := fmt.Sprintf("abl.async.%d", i)
			if p.JobRank() == 0 {
				if _, _, err := client.GroupInvite(name, others, 30*time.Second); err != nil {
					return err
				}
			} else {
				if _, err := client.GroupJoin(name, 0, true, 30*time.Second); err != nil {
					return err
				}
			}
		}
		if p.JobRank() == 0 {
			async.add(time.Since(start) / time.Duration(iters))
		}
		return nil
	})
	if err != nil {
		return res, fmt.Errorf("bench: group construct invite/join: %w", err)
	}
	res.InviteJoin = async.d
	return res, nil
}
