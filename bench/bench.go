// Package bench regenerates every table and figure of the paper's
// evaluation (§IV) on the simulated fabric. Each generator runs its jobs
// once and returns structured series; render.go formats them the way the
// paper reports them.
//
// The figures are meant to run inside a testing/synctest bubble
// (TestFigures, built with GOEXPERIMENT=synctest; `make figures`), where
// every modeled cost is a sleep on the bubble's virtual clock. Each number
// is then the model's exact cost, identical from run to run whatever the
// host is doing. Outside a bubble the generators still run, but a modeled
// cost is a wall-clock sleep of at least that long, so only the Loopback
// profile (which charges nothing) gives meaningful wall-clock numbers.
//
// Baseline runs use the consensus CID mode (stock Open MPI master);
// Sessions runs use the exCID mode (the prototype). Absolute numbers are
// properties of the simulation profile; the paper's claims are about the
// relative shapes (see EXPERIMENTS.md).
package bench

import (
	"fmt"
	"sync"
	"time"

	"gompi/internal/core"
	"gompi/internal/hpcc"
	"gompi/internal/osu"
	"gompi/internal/topo"
	"gompi/internal/twomesh"
	"gompi/mpi"
	"gompi/runtime"
)

func consensusCfg() core.Config { return core.Config{CIDMode: core.CIDConsensus} }
func excidCfg() core.Config     { return core.Config{CIDMode: core.CIDExtended} }

// jobOpts builds launch options for a node-count/ppn shape.
func jobOpts(profile topo.Profile, nodes, ppn int, cfg core.Config) runtime.Options {
	return runtime.Options{
		Cluster: topo.New(profile, nodes),
		PPN:     ppn,
		NP:      nodes * ppn,
		Config:  cfg,
	}
}

// jobMax runs body on every rank of one nodes×ppn job and returns the
// job-wide maximum of each duration the ranks report: element i of the
// result is the largest element i any rank returned. A rank that measures
// nothing returns nil.
func jobMax(profile topo.Profile, nodes, ppn int, cfg core.Config, body func(p *mpi.Process) ([]time.Duration, error)) ([]time.Duration, error) {
	var (
		mu  sync.Mutex
		max []time.Duration
	)
	err := runtime.Run(jobOpts(profile, nodes, ppn, cfg), func(p *mpi.Process) error {
		ds, err := body(p)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		for i, d := range ds {
			if i == len(max) {
				max = append(max, 0)
			}
			if d > max[i] {
				max[i] = d
			}
		}
		return nil
	})
	return max, err
}

// InitPoint is one x-axis point of Fig. 3: startup time by node count for
// the two initialization paths, with the Sessions-side breakdown the
// paper's analysis quotes (≈30% session-handle init at 28 ppn).
type InitPoint struct {
	Nodes         int
	PPN           int
	WorldInit     time.Duration // MPI_Init on the baseline build
	Sessions      time.Duration // Session_init + Group_from_pset + Comm_create_from_group
	SessionInit   time.Duration
	GroupFromPset time.Duration
	CommCreate    time.Duration
}

// InitSweep regenerates Fig. 3a (ppn=1) / Fig. 3b (ppn=28): MPI startup
// time versus node count for both initialization paths.
func InitSweep(profile topo.Profile, ppn int, nodeCounts []int) ([]InitPoint, error) {
	var out []InitPoint
	for _, nodes := range nodeCounts {
		// Baseline: MPI_Init on the consensus build.
		w, err := jobMax(profile, nodes, ppn, consensusCfg(), func(p *mpi.Process) ([]time.Duration, error) {
			d, cleanup, err := osu.MeasureWorldInit(p)
			if err != nil {
				return nil, err
			}
			return []time.Duration{d}, cleanup()
		})
		if err != nil {
			return nil, fmt.Errorf("bench: init sweep %d nodes (baseline): %w", nodes, err)
		}
		// Sessions: the Fig. 1 sequence on the prototype build.
		s, err := jobMax(profile, nodes, ppn, excidCfg(), func(p *mpi.Process) ([]time.Duration, error) {
			b, cleanup, err := osu.MeasureSessionsInit(p, "fig3")
			if err != nil {
				return nil, err
			}
			return []time.Duration{b.Total, b.SessionInit, b.GroupFromPset, b.CommCreate}, cleanup()
		})
		if err != nil {
			return nil, fmt.Errorf("bench: init sweep %d nodes (sessions): %w", nodes, err)
		}
		out = append(out, InitPoint{
			Nodes: nodes, PPN: ppn, WorldInit: w[0],
			Sessions: s[0], SessionInit: s[1], GroupFromPset: s[2], CommCreate: s[3],
		})
	}
	return out, nil
}

// DupPoint is one x-axis point of Fig. 4 (per-iteration MPI_Comm_dup time),
// extended with the subfield-derivation column for the DESIGN.md ablation.
type DupPoint struct {
	Nodes            int
	Baseline         time.Duration // consensus algorithm over the parent
	Sessions         time.Duration // prototype: fresh PGCID per dup
	SessionsSubfield time.Duration // §III-B3 optimization (ablation)
}

// DupSweep regenerates Fig. 4 plus the CID-generation ablation.
func DupSweep(profile topo.Profile, ppn int, nodeCounts []int, iters int) ([]DupPoint, error) {
	subCfg := excidCfg()
	subCfg.DupUseSubfields = true
	var out []DupPoint
	for _, nodes := range nodeCounts {
		pt := DupPoint{Nodes: nodes}
		for _, v := range []struct {
			name     string
			cfg      core.Config
			sessions bool
			d        *time.Duration
		}{
			{"baseline", consensusCfg(), false, &pt.Baseline},
			{"sessions", excidCfg(), true, &pt.Sessions},
			{"subfield", subCfg, true, &pt.SessionsSubfield},
		} {
			d, err := jobMax(profile, nodes, ppn, v.cfg, func(p *mpi.Process) ([]time.Duration, error) {
				comm, cleanup, err := worldEquivalentComm(p, v.sessions, "fig4")
				if err != nil {
					return nil, err
				}
				defer cleanup()
				d, err := osu.MeasureCommDup(comm, iters)
				return []time.Duration{d}, err
			})
			if err != nil {
				return nil, fmt.Errorf("bench: dup sweep %d nodes (%s): %w", nodes, v.name, err)
			}
			*v.d = d[0]
		}
		out = append(out, pt)
	}
	return out, nil
}

// LatencyPoint is one message size of Fig. 5a.
type LatencyPoint struct {
	Size     int
	Baseline time.Duration
	Sessions time.Duration
	Relative float64 // Sessions / Baseline
}

// LatencySweep regenerates Fig. 5a: relative osu_latency between the two
// builds, two processes on one node.
func LatencySweep(profile topo.Profile, maxSize, iters, skip int) ([]LatencyPoint, error) {
	sizes := osu.DefaultSizes(maxSize)
	measure := func(cfg core.Config, sessions bool) ([]time.Duration, error) {
		return jobMax(profile, 1, 2, cfg, func(p *mpi.Process) ([]time.Duration, error) {
			comm, cleanup, err := worldEquivalentComm(p, sessions, "fig5a")
			if err != nil {
				return nil, err
			}
			defer cleanup()
			points, err := osu.Latency(comm, sizes, iters, skip)
			if err != nil || comm.Rank() != 0 {
				return nil, err
			}
			ds := make([]time.Duration, len(points))
			for i, pt := range points {
				ds[i] = pt.Latency
			}
			return ds, nil
		})
	}
	base, err := measure(consensusCfg(), false)
	if err != nil {
		return nil, fmt.Errorf("bench: latency baseline: %w", err)
	}
	sess, err := measure(excidCfg(), true)
	if err != nil {
		return nil, fmt.Errorf("bench: latency sessions: %w", err)
	}
	out := make([]LatencyPoint, len(sizes))
	for i, size := range sizes {
		out[i] = LatencyPoint{Size: size, Baseline: base[i], Sessions: sess[i]}
		if base[i] > 0 {
			out[i].Relative = float64(sess[i]) / float64(base[i])
		}
	}
	return out, nil
}

// worldEquivalentComm gives either MPI_COMM_WORLD (baseline path) or a
// sessions-created equivalent, with a cleanup closure.
func worldEquivalentComm(p *mpi.Process, sessions bool, tag string) (*mpi.Comm, func(), error) {
	if !sessions {
		if err := p.Init(); err != nil {
			return nil, nil, err
		}
		return p.CommWorld(), func() { _ = p.Finalize() }, nil
	}
	sess, err := p.SessionInit(nil, nil)
	if err != nil {
		return nil, nil, err
	}
	grp, err := sess.GroupFromPset(mpi.PsetWorld)
	if err != nil {
		_ = sess.Finalize()
		return nil, nil, err
	}
	comm, err := sess.CommCreateFromGroup(grp, tag, nil, nil)
	if err != nil {
		_ = sess.Finalize()
		return nil, nil, err
	}
	return comm, func() {
		_ = comm.Free()
		_ = sess.Finalize()
	}, nil
}

// BWPoint is one message size of Fig. 5b/5c.
type BWPoint struct {
	Size         int
	BaselineBW   float64
	SessionsBW   float64
	BaselineRate float64
	SessionsRate float64
	Relative     float64 // sessions BW / baseline BW
}

// MBwMrSweep regenerates Fig. 5b (procs=2) and Fig. 5c (procs=16): relative
// osu_mbw_mr bandwidth and message rate, single node, with the given
// pre-timing synchronization.
func MBwMrSweep(profile topo.Profile, procs, maxSize, window, iters, skip int, syncMode osu.SyncMode) ([]BWPoint, error) {
	sizes := osu.DefaultSizes(maxSize)
	// Only rank 0 reports, so one slot per build suffices.
	var res [2][]osu.BandwidthResult
	for i, sessions := range []bool{false, true} {
		cfg := consensusCfg()
		if sessions {
			cfg = excidCfg()
		}
		_, err := jobMax(profile, 1, procs, cfg, func(p *mpi.Process) ([]time.Duration, error) {
			comm, cleanup, err := worldEquivalentComm(p, sessions, "fig5bc")
			if err != nil {
				return nil, err
			}
			defer cleanup()
			points, err := osu.MBwMr(comm, sizes, window, iters, skip, syncMode)
			if points != nil {
				res[i] = points
			}
			return nil, err
		})
		if err != nil {
			return nil, fmt.Errorf("bench: mbw_mr (sessions=%v): %w", sessions, err)
		}
	}
	out := make([]BWPoint, len(sizes))
	for i, size := range sizes {
		b, s := res[0][i], res[1][i]
		out[i] = BWPoint{
			Size: size, BaselineBW: b.BandwidthBs, SessionsBW: s.BandwidthBs,
			BaselineRate: b.MsgRate, SessionsRate: s.MsgRate,
		}
		if b.BandwidthBs > 0 {
			out[i].Relative = s.BandwidthBs / b.BandwidthBs
		}
	}
	return out, nil
}

// RingPoint is one x-axis point of Fig. 6.
type RingPoint struct {
	Nodes           int
	BaselineNatural time.Duration
	SessionsNatural time.Duration
	BaselineRandom  time.Duration
	SessionsRandom  time.Duration
}

// HPCCSweep regenerates Fig. 6a/6b: 8-byte random- and natural-order ring
// latencies by node count, baseline versus sessions-in-subcomponent.
func HPCCSweep(profile topo.Profile, ppn int, nodeCounts []int, cfg hpcc.Config) ([]RingPoint, error) {
	var out []RingPoint
	for _, nodes := range nodeCounts {
		var rings [2][]time.Duration
		for i, sessions := range []bool{false, true} {
			cidCfg := consensusCfg()
			if sessions {
				cidCfg = excidCfg()
			}
			var err error
			rings[i], err = jobMax(profile, nodes, ppn, cidCfg, func(p *mpi.Process) ([]time.Duration, error) {
				if err := p.Init(); err != nil {
					return nil, err
				}
				defer p.Finalize()
				var res hpcc.Result
				var err error
				if sessions {
					res, err = hpcc.RunWithSessions(p, cfg)
				} else {
					res, err = hpcc.BenchLatBw(p.CommWorld(), cfg)
				}
				if err != nil || p.JobRank() != 0 {
					return nil, err
				}
				return []time.Duration{res.NaturalLatency, res.RandomLatency}, nil
			})
			if err != nil {
				return nil, fmt.Errorf("bench: hpcc %d nodes (sessions=%v): %w", nodes, sessions, err)
			}
		}
		out = append(out, RingPoint{
			Nodes:           nodes,
			BaselineNatural: rings[0][0], BaselineRandom: rings[0][1],
			SessionsNatural: rings[1][0], SessionsRandom: rings[1][1],
		})
	}
	return out, nil
}

// TwoMeshPoint is one bar pair of Fig. 7.
type TwoMeshPoint struct {
	Problem    string
	NP         int
	Baseline   time.Duration
	Sessions   time.Duration
	Normalized float64 // Sessions / Baseline (paper reports ≤ 1.03)
}

// TwoMeshConfig shapes a Fig. 7 run.
type TwoMeshConfig struct {
	Problem twomesh.Problem
	Nodes   int
	PPN     int
	Threads int
}

// TwoMeshSweep regenerates Fig. 7: normalized 2MESH execution time for the
// baseline and sessions executables.
func TwoMeshSweep(profile topo.Profile, configs []TwoMeshConfig) ([]TwoMeshPoint, error) {
	var out []TwoMeshPoint
	for _, run := range configs {
		pt := TwoMeshPoint{Problem: run.Problem.Name, NP: run.Nodes * run.PPN}
		for _, sessions := range []bool{false, true} {
			cfg, d := consensusCfg(), &pt.Baseline
			if sessions {
				cfg, d = excidCfg(), &pt.Sessions
			}
			total, err := jobMax(profile, run.Nodes, run.PPN, cfg, func(p *mpi.Process) ([]time.Duration, error) {
				if _, err := p.InitThread(mpi.ThreadMultiple); err != nil {
					return nil, err
				}
				defer p.Finalize()
				rep, err := twomesh.Run(p, run.Problem, sessions, run.Threads)
				return []time.Duration{rep.Total}, err
			})
			if err != nil {
				return nil, fmt.Errorf("bench: 2MESH %s (sessions=%v): %w", run.Problem.Name, sessions, err)
			}
			*d = total[0]
		}
		if pt.Baseline > 0 {
			pt.Normalized = float64(pt.Sessions) / float64(pt.Baseline)
		}
		out = append(out, pt)
	}
	return out, nil
}
