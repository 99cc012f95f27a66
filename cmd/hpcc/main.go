// Command hpcc runs the ported HPC Challenge bandwidth/latency kernel
// (§IV-D): 8-byte natural- and random-order ring latencies plus ring
// bandwidth, in the baseline variant or with the lat/bw component running
// inside its own MPI session.
//
// Usage:
//
//	hpcc -np 16 -ppn 8
//	hpcc -np 16 -ppn 8 -sessions
//
// Latencies are wall-clock. The default loopback profile charges no
// modeled cost, so they measure the implementation; on jupiter or trinity
// each modeled cost is a sleep of at least that long. Fig. 6's exact
// modeled ring latencies come from the bench package's TestFigures runner
// (make figures).
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"gompi/internal/core"
	"gompi/internal/hpcc"
	"gompi/internal/topo"
	"gompi/mpi"
	"gompi/runtime"
)

func main() {
	np := flag.Int("np", 8, "number of ranks")
	ppn := flag.Int("ppn", 4, "ranks per node")
	sessions := flag.Bool("sessions", false, "run the lat/bw component in its own MPI session")
	iters := flag.Int("iters", 500, "timed ring iterations")
	trials := flag.Int("trials", 5, "random ring permutations")
	profileName := flag.String("profile", "loopback", "cluster profile: loopback (no modeled cost: wall clock measures the implementation), "+
		"jupiter or trinity (modeled costs become wall-clock sleeps of at least that long; exact modeled numbers come from make figures)")
	flag.Parse()

	var profile topo.Profile
	switch *profileName {
	case "loopback":
		profile = topo.Loopback(*ppn)
	case "jupiter":
		profile = topo.Jupiter()
	case "trinity":
		profile = topo.Trinity()
	default:
		fmt.Fprintf(os.Stderr, "hpcc: unknown profile %q\n", *profileName)
		os.Exit(2)
	}
	mode := core.CIDConsensus
	if *sessions {
		mode = core.CIDExtended
	}
	nodes := (*np + *ppn - 1) / *ppn
	opts := runtime.Options{
		Cluster: topo.New(profile, nodes),
		NP:      *np,
		PPN:     *ppn,
		Config:  core.Config{CIDMode: mode},
	}
	cfg := hpcc.Config{Iters: *iters, RandomTrials: *trials, BandwidthLen: 1 << 20, Seed: 1}

	var mu sync.Mutex
	var result hpcc.Result
	err := runtime.Run(opts, func(p *mpi.Process) error {
		// Like the real benchmark, the harness always initializes the WPM;
		// only the lat/bw component differs between variants.
		if err := p.Init(); err != nil {
			return err
		}
		defer p.Finalize()
		var res hpcc.Result
		var err error
		if *sessions {
			res, err = hpcc.RunWithSessions(p, cfg)
		} else {
			res, err = hpcc.BenchLatBw(p.CommWorld(), cfg)
		}
		if err != nil {
			return err
		}
		if p.JobRank() == 0 {
			mu.Lock()
			result = res
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpcc:", err)
		os.Exit(1)
	}
	mode2 := "MPI_Init"
	if *sessions {
		mode2 = "MPI Sessions (component-scoped)"
	}
	fmt.Printf("HPCC bench_lat_bw (%s), np=%d ppn=%d\n", mode2, *np, *ppn)
	fmt.Printf("  natural order ring latency: %8.2f us\n", float64(result.NaturalLatency.Nanoseconds())/1e3)
	fmt.Printf("  random  order ring latency: %8.2f us\n", float64(result.RandomLatency.Nanoseconds())/1e3)
	fmt.Printf("  natural ring bandwidth:     %8.2f MB/s\n", result.NaturalBandBs/1e6)
}
