// Command twomesh runs the 2MESH multi-physics proxy application (§IV-E)
// in its Baseline or Sessions configuration and reports the phase timing
// breakdown, reproducing the Fig. 7 measurement procedure.
//
// Usage:
//
//	twomesh -problem P1 -np 16 -ppn 8
//	twomesh -problem P3 -np 32 -ppn 8 -sessions
//	twomesh -problem tiny -np 4 -ppn 2 -recover -kill-rank 3 -kill-phase 1
//
// With -recover the proxy runs fault-aware: each epoch's communicator is
// built from the dynamic gompi://alive pset and rebuilt over the survivors
// when a rank dies. -kill-rank/-kill-phase inject a deterministic rank
// death to demonstrate the mid-job recovery.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"gompi/internal/core"
	"gompi/internal/topo"
	"gompi/internal/twomesh"
	"gompi/mpi"
	"gompi/runtime"
)

func main() {
	problemName := flag.String("problem", "P1", "problem: P1, P2, P3, tiny")
	np := flag.Int("np", 16, "number of ranks")
	ppn := flag.Int("ppn", 8, "ranks per node")
	threads := flag.Int("threads", 4, "worker threads per L1 leader")
	sessions := flag.Bool("sessions", false, "sessions-enabled executable")
	recoverMode := flag.Bool("recover", false, "fault-aware run: rebuild the communicator over gompi://alive on rank death")
	killRank := flag.Int("kill-rank", -1, "with -recover: rank to kill (-1 = none)")
	killPhase := flag.Int("kill-phase", 0, "with -recover: phase at which the killed rank dies")
	flag.Parse()

	var prob twomesh.Problem
	switch *problemName {
	case "P1":
		prob = twomesh.P1()
	case "P2":
		prob = twomesh.P2()
	case "P3":
		prob = twomesh.P3()
	case "tiny":
		prob = twomesh.Tiny()
	default:
		fmt.Fprintf(os.Stderr, "twomesh: unknown problem %q\n", *problemName)
		os.Exit(2)
	}
	mode := core.CIDConsensus
	if *sessions || *recoverMode {
		// The recovery path constructs communicators from groups mid-job,
		// which needs the extended-CID Sessions machinery.
		mode = core.CIDExtended
	}
	nodes := (*np + *ppn - 1) / *ppn
	opts := runtime.Options{
		Cluster: topo.New(topo.Trinity(), nodes),
		NP:      *np,
		PPN:     *ppn,
		Config:  core.Config{CIDMode: mode},
	}

	var mu sync.Mutex
	var rep twomesh.Report
	haveRep := false
	recoveries := 0
	// Rank 0 leads its node, so it never quiesces: the quiesce and poll
	// figures come from every rank, the rest from rank 0.
	var maxQuiesce time.Duration
	polls := 0
	err := runtime.Run(opts, func(p *mpi.Process) error {
		if *recoverMode {
			var inject func(phase int)
			if p.JobRank() == *killRank {
				rank := p.JobRank()
				inject = func(phase int) {
					if phase == *killPhase {
						panic(fmt.Sprintf("chaos: rank %d killed at phase %d", rank, phase))
					}
				}
			}
			r, recs, err := twomesh.RunRecover(p, prob, inject)
			if err != nil {
				return err
			}
			mu.Lock()
			if !haveRep {
				rep, recoveries, haveRep = r, recs, true
			}
			mu.Unlock()
			return nil
		}
		if _, err := p.InitThread(mpi.ThreadMultiple); err != nil {
			return err
		}
		defer p.Finalize()
		r, err := twomesh.Run(p, prob, *sessions, *threads)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		if p.JobRank() == 0 {
			rep, haveRep = r, true
		}
		maxQuiesce = max(maxQuiesce, r.Quiesce)
		polls += r.PollCount
		return nil
	})
	if err != nil {
		// With an injected kill, the victim's abnormal exit is the expected
		// outcome; the run succeeded if every OTHER rank completed.
		var je *runtime.JobError
		expected := *recoverMode && *killRank >= 0 &&
			errors.As(err, &je) && len(je.Errors) == 1 && je.Errors[0].Rank == *killRank
		if !expected {
			fmt.Fprintln(os.Stderr, "twomesh:", err)
			os.Exit(1)
		}
		fmt.Printf("rank %d killed at phase %d; survivors recovered\n", *killRank, *killPhase)
	}
	fmt.Printf("2MESH %s (%s), np=%d ppn=%d threads=%d\n", rep.Problem, rep.Mode, *np, *ppn, *threads)
	fmt.Printf("  total:    %v\n", rep.Total)
	fmt.Printf("  L0:       %v\n", rep.L0Time)
	if *recoverMode {
		fmt.Printf("  recoveries: %d\n", recoveries)
	} else {
		fmt.Printf("  L1:       %v (max quiesce %v over %d barriers, %d polls over all ranks)\n",
			rep.L1Time, maxQuiesce, rep.Barriers, polls)
	}
	fmt.Printf("  residual: %g\n", rep.Residual)
}
