package quo_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"gompi/internal/core"
	"gompi/internal/quo"
	"gompi/internal/topo"
	"gompi/mpi"
	"gompi/runtime"
)

// TestChaosQuiesceFailsFastOnPeerDeath: a node-mate dies while the others
// are parked in the sessions quiesce with an hour between tests. The park
// ends on the failed barrier's completion, so Barrier must come back with
// MPI_ERR_PROC_FAILED at once instead of sleeping out the interval.
func TestChaosQuiesceFailsFastOnPeerDeath(t *testing.T) {
	job, err := runtime.NewJob(runtime.Options{
		Cluster: topo.New(topo.Loopback(3), 1),
		PPN:     3,
		Config:  core.Config{CIDMode: core.CIDExtended},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Shutdown()

	const victim = 2
	launched := make(chan error, 1)
	go func() {
		launched <- job.Launch(func(p *mpi.Process) error {
			ctx, err := quo.CreateWithSession(p)
			if err != nil {
				return err
			}
			if p.JobRank() == victim {
				// Let the survivors park, then crash without any cleanup.
				time.Sleep(30 * time.Millisecond)
				panic("quo chaos: node-mate dies while the others quiesce")
			}
			defer ctx.Free()
			ctx.SetPollInterval(time.Hour)
			start := time.Now()
			err = ctx.Barrier()
			if cls := mpi.ErrorClassOf(err); cls != mpi.ErrClassProcFailed {
				return fmt.Errorf("rank %d: barrier = %v (class %v), want MPI_ERR_PROC_FAILED", p.JobRank(), err, cls)
			}
			if waited := time.Since(start); waited > 5*time.Second {
				return fmt.Errorf("rank %d: barrier took %v to report the dead peer", p.JobRank(), waited)
			}
			return nil
		})
	}()
	select {
	case err := <-launched:
		if err == nil {
			t.Fatal("expected the injected rank death to be reported by Launch")
		}
		var je *runtime.JobError
		if !errors.As(err, &je) || len(je.Errors) != 1 || je.Errors[0].Rank != victim {
			t.Fatalf("Launch error = %v, want only rank %d", err, victim)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("survivors still parked 10 s after their node-mate died")
	}
}
