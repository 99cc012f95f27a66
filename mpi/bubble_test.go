//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package mpi_test

import (
	"fmt"
	"testing"
	"testing/synctest"
	"time"

	"gompi/internal/topo"
	"gompi/mpi"
	"gompi/runtime"
)

// TestStartedCollWaitInBubble waits on started collectives (Iallreduce and
// a persistent allreduce) inside a synctest bubble, on the Jupiter profile,
// where every send sleeps its modelled latency. A completion hook that
// sends sleeps while it holds the collective's driver token, so a Wait
// that arrives then must park. Each round sleeps a little longer between
// the start and the Wait, which sweeps the Wait across the hooks' sends.
// A Wait that spun for the token instead was never durably blocked, the
// bubble's clock never moved, and the job livelocked; a wall-clock
// watchdog outside the bubble turns that into a failure.
func TestStartedCollWaitInBubble(t *testing.T) {
	done := make(chan error, 1)
	go synctest.Run(func() {
		done <- runtime.Run(runtime.Options{Cluster: topo.New(topo.Jupiter(), 2), PPN: 2, Config: exCfg()},
			func(p *mpi.Process) error {
				if err := p.Init(); err != nil {
					return err
				}
				defer p.Finalize()
				return startedCollRounds(p.CommWorld(), 80)
			})
	})
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("started collectives in a bubble still running after 60s of wall time: a Wait is spinning on the driver token")
	}
}

// startedCollRounds runs rounds of a started Iallreduce and a started
// persistent allreduce, Waited on after a model-time pause of 50 ns times
// the round, and checks the sums.
func startedCollRounds(world *mpi.Comm, rounds int) error {
	rank, size := world.Rank(), world.Size()
	want := int64(size * (size + 1) / 2)
	send := mpi.PackInt64s([]int64{int64(rank + 1)})
	recv := make([]byte, 8)
	pc, err := world.AllreduceInit(send, recv, 1, mpi.Int64, mpi.OpSum)
	if err != nil {
		return err
	}
	defer pc.Free()
	check := func(what string, i int) error {
		if got := mpi.UnpackInt64s(recv)[0]; got != want {
			return fmt.Errorf("rank %d %s round %d: sum %d, want %d", rank, what, i, got, want)
		}
		return nil
	}
	for i := 0; i < rounds; i++ {
		pause := time.Duration(i) * 50 * time.Nanosecond
		req, err := world.Iallreduce(send, recv, 1, mpi.Int64, mpi.OpSum)
		if err != nil {
			return err
		}
		time.Sleep(pause)
		if _, err := req.Wait(); err != nil {
			return err
		}
		if err := check("Iallreduce", i); err != nil {
			return err
		}
		if err := pc.Start(); err != nil {
			return err
		}
		time.Sleep(pause)
		if err := pc.Wait(); err != nil {
			return err
		}
		if err := check("persistent allreduce", i); err != nil {
			return err
		}
	}
	return nil
}
