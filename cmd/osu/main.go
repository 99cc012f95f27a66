// Command osu runs the ported OSU micro-benchmarks (osu_init, osu_latency,
// osu_mbw_mr) on the simulated fabric, in the baseline (MPI_Init) or
// Sessions variant — the command-line face of the paper's §IV-C kernels.
//
// Usage:
//
//	osu -bench init -np 56 -ppn 28
//	osu -bench latency -sessions
//	osu -bench mbw_mr -np 16 -ppn 16 -sync sendrecv
//	osu -bench latency -transport udp -profile loopback
//
// -transport udp forces the udp BTL, so every byte crosses a real loopback
// socket (frame encode, hash, fragmentation) instead of the simulated
// fabric.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sync"
	"time"

	"gompi/internal/core"
	"gompi/internal/osu"
	"gompi/internal/topo"
	"gompi/mpi"
	"gompi/runtime"
)

func main() {
	benchName := flag.String("bench", "latency", "benchmark: init, latency, latency_mt, bw, mbw_mr, barrier, bcast, allreduce, allgather, alltoall, put, get")
	threads := flag.Int("threads", 4, "threads per rank (latency_mt)")
	np := flag.Int("np", 2, "number of ranks")
	ppn := flag.Int("ppn", 2, "ranks per node")
	sessions := flag.Bool("sessions", false, "use MPI Sessions initialization")
	maxSize := flag.Int("maxsize", 1<<16, "largest message size")
	iters := flag.Int("iters", 100, "timed iterations")
	skip := flag.Int("skip", 20, "warm-up iterations")
	window := flag.Int("window", 64, "mbw_mr window size")
	syncMode := flag.String("sync", "barrier", "mbw_mr pre-sync: barrier or sendrecv")
	profileName := flag.String("profile", "jupiter", "cluster profile: jupiter, trinity, loopback")
	transport := flag.String("transport", "sim", "transport: sim (simulated fabric) or udp (forced udp BTL over loopback sockets)")
	collSpec := flag.String("coll", "", "collective component selection (e.g. \"^hier\" or \"basic\")")
	mtComms := flag.Int("mt-comms", 1, "latency_mt: dup'd communicators round-robined across threads")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "osu:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "osu:", err)
			os.Exit(1)
		}
		defer func() { pprof.StopCPUProfile(); f.Close() }()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "osu:", err)
				return
			}
			defer f.Close()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "osu:", err)
			}
		}()
	}

	var profile topo.Profile
	switch *profileName {
	case "trinity":
		profile = topo.Trinity()
	case "loopback":
		profile = topo.Loopback(*ppn)
	default:
		profile = topo.Jupiter()
	}
	mode := core.CIDConsensus
	if *sessions {
		mode = core.CIDExtended
	}
	cfg := core.Config{CIDMode: mode, Coll: *collSpec}
	switch *transport {
	case "sim":
	case "udp":
		// Force every PML byte onto real loopback sockets; runtime.NewJob
		// stamps the shared frame nonce.
		cfg.BTL = "udp"
	default:
		fmt.Fprintf(os.Stderr, "osu: unknown transport %q\n", *transport)
		os.Exit(2)
	}
	nodes := (*np + *ppn - 1) / *ppn
	opts := runtime.Options{
		Cluster: topo.New(profile, nodes),
		NP:      *np,
		PPN:     *ppn,
		Config:  cfg,
	}

	var err error
	switch *benchName {
	case "init":
		err = runInit(opts, *sessions)
	case "latency":
		err = runLatency(opts, *sessions, *maxSize, *iters, *skip)
	case "mbw_mr":
		sm := osu.SyncBarrier
		if *syncMode == "sendrecv" {
			sm = osu.SyncSendrecv
		}
		err = runMBwMr(opts, *sessions, *maxSize, *window, *iters, *skip, sm)
	case "bw":
		err = runBW(opts, *sessions, *maxSize, *window, *iters, *skip)
	case "latency_mt":
		err = runLatencyMT(opts, *sessions, *threads, *mtComms, *iters, *skip)
	case "barrier", "bcast", "allreduce", "allgather", "alltoall":
		err = runCollective(opts, *benchName, *sessions, *maxSize, *iters, *skip)
	case "put", "get":
		err = runRMA(opts, *benchName, *sessions, *maxSize, *iters, *skip)
	default:
		fmt.Fprintf(os.Stderr, "osu: unknown benchmark %q\n", *benchName)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "osu:", err)
		os.Exit(1)
	}
}

func runInit(opts runtime.Options, sessions bool) error {
	var mu sync.Mutex
	var worst time.Duration
	var breakdown osu.InitBreakdown
	err := runtime.Run(opts, func(p *mpi.Process) error {
		if sessions {
			b, cleanup, err := osu.MeasureSessionsInit(p, "osu.init")
			if err != nil {
				return err
			}
			mu.Lock()
			if b.Total > worst {
				worst, breakdown = b.Total, b
			}
			mu.Unlock()
			return cleanup()
		}
		d, cleanup, err := osu.MeasureWorldInit(p)
		if err != nil {
			return err
		}
		mu.Lock()
		if d > worst {
			worst = d
		}
		mu.Unlock()
		return cleanup()
	})
	if err != nil {
		return err
	}
	if sessions {
		fmt.Printf("# OSU MPI Init Test (Sessions)\nnp=%d time=%v\n", opts.NP, worst)
		fmt.Printf("  session_init=%v group_from_pset=%v comm_create_from_group=%v\n",
			breakdown.SessionInit, breakdown.GroupFromPset, breakdown.CommCreate)
		return nil
	}
	fmt.Printf("# OSU MPI Init Test (MPI_Init)\nnp=%d time=%v\n", opts.NP, worst)
	return nil
}

// commFor yields the benchmark communicator for the selected variant.
func commFor(p *mpi.Process, sessions bool, tag string) (*mpi.Comm, func(), error) {
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
	return comm, func() { _ = comm.Free(); _ = sess.Finalize() }, nil
}

func runLatency(opts runtime.Options, sessions bool, maxSize, iters, skip int) error {
	opts.NP, opts.PPN = 2, 2
	opts.Cluster = topo.New(opts.Cluster.Profile, 1)
	var mu sync.Mutex
	var results []osu.LatencyResult
	err := runtime.Run(opts, func(p *mpi.Process) error {
		comm, cleanup, err := commFor(p, sessions, "osu.latency")
		if err != nil {
			return err
		}
		defer cleanup()
		res, err := osu.Latency(comm, osu.DefaultSizes(maxSize), iters, skip)
		if err != nil {
			return err
		}
		if comm.Rank() == 0 {
			mu.Lock()
			results = res
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("# OSU MPI Latency Test (%s)\n%-10s %12s\n", variant(sessions), "Size", "Latency (us)")
	for _, r := range results {
		fmt.Printf("%-10d %12.2f\n", r.Size, float64(r.Latency.Nanoseconds())/1e3)
	}
	return nil
}

func runMBwMr(opts runtime.Options, sessions bool, maxSize, window, iters, skip int, sm osu.SyncMode) error {
	var mu sync.Mutex
	var results []osu.BandwidthResult
	err := runtime.Run(opts, func(p *mpi.Process) error {
		comm, cleanup, err := commFor(p, sessions, "osu.mbw")
		if err != nil {
			return err
		}
		defer cleanup()
		res, err := osu.MBwMr(comm, osu.DefaultSizes(maxSize), window, iters, skip, sm)
		if err != nil {
			return err
		}
		if res != nil {
			mu.Lock()
			results = res
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("# OSU MPI Multiple Bandwidth / Message Rate Test (%s, %s sync)\n", variant(sessions), sm)
	fmt.Printf("%-10s %14s %16s\n", "Size", "MB/s", "Messages/s")
	for _, r := range results {
		fmt.Printf("%-10d %14.2f %16.0f\n", r.Size, r.BandwidthBs/1e6, r.MsgRate)
	}
	return nil
}

func runBW(opts runtime.Options, sessions bool, maxSize, window, iters, skip int) error {
	opts.NP, opts.PPN = 2, 2
	opts.Cluster = topo.New(opts.Cluster.Profile, 1)
	var mu sync.Mutex
	var results []osu.BandwidthResult
	err := runtime.Run(opts, func(p *mpi.Process) error {
		comm, cleanup, err := commFor(p, sessions, "osu.bw")
		if err != nil {
			return err
		}
		defer cleanup()
		res, err := osu.BW(comm, osu.DefaultSizes(maxSize), window, iters, skip)
		if err != nil {
			return err
		}
		if res != nil {
			mu.Lock()
			results = res
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("# OSU MPI Bandwidth Test (%s)\n%-10s %14s\n", variant(sessions), "Size", "MB/s")
	for _, r := range results {
		fmt.Printf("%-10d %14.2f\n", r.Size, r.BandwidthBs/1e6)
	}
	return nil
}

func runLatencyMT(opts runtime.Options, sessions bool, threads, ncomms, iters, skip int) error {
	opts.NP, opts.PPN = 2, 2
	opts.Cluster = topo.New(opts.Cluster.Profile, 1)
	if ncomms < 1 {
		ncomms = 1
	}
	var mu sync.Mutex
	var lat time.Duration
	err := runtime.Run(opts, func(p *mpi.Process) error {
		comm, cleanup, err := commFor(p, sessions, "osu.lat_mt")
		if err != nil {
			return err
		}
		defer cleanup()
		// With -mt-comms > 1 the threads round-robin over dup'd
		// communicators, spreading the traffic across independent PML
		// channels — the shape the per-channel matching locks help.
		comms := []*mpi.Comm{comm}
		for i := 1; i < ncomms; i++ {
			dup, err := comm.Dup()
			if err != nil {
				return err
			}
			defer dup.Free()
			comms = append(comms, dup)
		}
		d, err := osu.LatencyMT(comms, threads, 8, iters, skip)
		if err != nil {
			return err
		}
		if p.JobRank() == 0 {
			mu.Lock()
			lat = d
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("# OSU MPI Multi-threaded Latency Test (%s)\nthreads=%d latency=%.2f us\n",
		variant(sessions), threads, float64(lat.Nanoseconds())/1e3)
	return nil
}

func runCollective(opts runtime.Options, kind string, sessions bool, maxSize, iters, skip int) error {
	var mu sync.Mutex
	var rows []osu.CollectiveResult
	err := runtime.Run(opts, func(p *mpi.Process) error {
		comm, cleanup, err := commFor(p, sessions, "osu.coll")
		if err != nil {
			return err
		}
		defer cleanup()
		var res []osu.CollectiveResult
		switch kind {
		case "barrier":
			one, err := osu.BarrierLatency(comm, iters, skip)
			if err != nil {
				return err
			}
			res = []osu.CollectiveResult{one}
		case "bcast":
			res, err = osu.BcastLatency(comm, osu.DefaultSizes(maxSize), iters, skip)
		case "allreduce":
			counts := []int{1, 16, 256, 4096}
			res, err = osu.AllreduceLatency(comm, counts, iters, skip)
		case "allgather":
			res, err = osu.AllgatherLatency(comm, osu.DefaultSizes(maxSize), iters, skip)
		case "alltoall":
			res, err = osu.AlltoallLatency(comm, osu.DefaultSizes(maxSize), iters, skip)
		}
		if err != nil {
			return err
		}
		if comm.Rank() == 0 {
			mu.Lock()
			rows = res
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("# OSU MPI %s Latency Test (%s)\n%-10s %12s\n", kind, variant(sessions), "Size", "Latency (us)")
	for _, r := range rows {
		fmt.Printf("%-10d %12.2f\n", r.Size, float64(r.Latency.Nanoseconds())/1e3)
	}
	return nil
}

func runRMA(opts runtime.Options, kind string, sessions bool, maxSize, iters, skip int) error {
	opts.NP, opts.PPN = 2, 2
	opts.Cluster = topo.New(opts.Cluster.Profile, 1)
	if !sessions {
		// One-sided kernels here always build the window from a group; the
		// baseline variant uses the WPM world group.
		opts.Config.CIDMode = core.CIDExtended
	}
	var mu sync.Mutex
	var rows []osu.RMAResult
	err := runtime.Run(opts, func(p *mpi.Process) error {
		sess, err := p.SessionInit(nil, nil)
		if err != nil {
			return err
		}
		defer sess.Finalize()
		grp, err := sess.GroupFromPset(mpi.PsetWorld)
		if err != nil {
			return err
		}
		win, err := sess.WinAllocateFromGroup(grp, "osu.rma", maxSize)
		if err != nil {
			return err
		}
		defer win.Free()
		var res []osu.RMAResult
		if kind == "put" {
			res, err = osu.PutLatency(win, osu.DefaultSizes(maxSize), iters, skip)
		} else {
			res, err = osu.GetLatency(win, osu.DefaultSizes(maxSize), iters, skip)
		}
		if err != nil {
			return err
		}
		if res != nil {
			mu.Lock()
			rows = res
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("# OSU MPI One-sided %s Latency Test\n%-10s %12s\n", kind, "Size", "Latency (us)")
	for _, r := range rows {
		fmt.Printf("%-10d %12.2f\n", r.Size, float64(r.Latency.Nanoseconds())/1e3)
	}
	return nil
}

func variant(sessions bool) string {
	if sessions {
		return "MPI_Session_init"
	}
	return "MPI_Init"
}
