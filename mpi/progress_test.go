package mpi_test

import (
	"bytes"
	"fmt"
	goruntime "runtime"
	"testing"
	"time"

	"gompi/mpi"
)

// TestNonblockingCollsSpawnNoGoroutines: a nonblocking collective is its
// schedule, moved by its caller and by its steps' completions, with no
// goroutine behind it. A thousand outstanding Ibarriers and a thousand
// outstanding Iallreduces per rank leave the process's goroutine count
// where it was; WaitAll then completes every one with the right sums.
func TestNonblockingCollsSpawnNoGoroutines(t *testing.T) {
	const n = 1000
	withWorld(t, 1, 2, exCfg(), func(p *mpi.Process, world *mpi.Comm) error {
		rank := world.Rank()
		sends, recvs := make([][]byte, n), make([][]byte, n)
		for i := range sends {
			sends[i] = mpi.PackInt64s([]int64{int64(i + rank)})
			recvs[i] = make([]byte, 8)
		}
		if err := world.Barrier(); err != nil {
			return err
		}
		before := goruntime.NumGoroutine()
		reqs := make([]mpi.Request, 0, 2*n)
		for i := 0; i < n; i++ {
			b, err := world.Ibarrier()
			if err != nil {
				return err
			}
			a, err := world.Iallreduce(sends[i], recvs[i], 1, mpi.Int64, mpi.OpSum)
			if err != nil {
				return err
			}
			reqs = append(reqs, b, a)
		}
		during := goruntime.NumGoroutine()
		if d := during - before; d > 2 || d < -2 {
			return fmt.Errorf("rank %d: %d goroutines before %d outstanding collectives, %d with them", rank, before, 2*n, during)
		}
		if err := mpi.WaitAll(reqs...); err != nil {
			return err
		}
		for i, got := range recvs {
			if want := mpi.PackInt64s([]int64{int64(2*i + 1)}); !bytes.Equal(got, want) {
				return fmt.Errorf("rank %d: Iallreduce %d = %v, want %v", rank, i, mpi.UnpackInt64s(got), mpi.UnpackInt64s(want))
			}
		}
		return nil
	})
}

// TestStartedCollsCompleteOnDoneAlone: a started collective finishes on
// its steps' completions, so a caller that only selects on Done — never
// calling Test or Wait while the round runs — still sees it close. Two
// nodes of two ranks put both BTLs' deliveries in the path: sm's inline,
// and net's, inline to an idle endpoint or on its pump when frames queue.
func TestStartedCollsCompleteOnDoneAlone(t *testing.T) {
	withWorld(t, 2, 2, exCfg(), func(p *mpi.Process, world *mpi.Comm) error {
		await := func(what string, done <-chan struct{}) error {
			select {
			case <-done:
				return nil
			case <-time.After(10 * time.Second):
				return fmt.Errorf("rank %d: %s never closed Done without Test or Wait", world.Rank(), what)
			}
		}
		send := mpi.PackInt64s([]int64{int64(world.Rank() + 1)})
		recv := make([]byte, 8)
		pc, err := world.AllreduceInit(send, recv, 1, mpi.Int64, mpi.OpSum)
		if err != nil {
			return err
		}
		for round := 0; round < 3; round++ {
			if err := pc.Start(); err != nil {
				return err
			}
			if err := await("persistent allreduce", pc.Done()); err != nil {
				return err
			}
			if err := pc.Wait(); err != nil {
				return err
			}
			if got := mpi.UnpackInt64s(recv)[0]; got != 1+2+3+4 {
				return fmt.Errorf("rank %d round %d: sum %d, want 10", world.Rank(), round, got)
			}
		}
		if err := pc.Free(); err != nil {
			return err
		}
		req, err := world.Ibarrier()
		if err != nil {
			return err
		}
		if err := await("Ibarrier", req.Done()); err != nil {
			return err
		}
		done, _, err := req.Test()
		if err == nil && !done {
			err = fmt.Errorf("rank %d: Ibarrier's Done closed but Test reports it pending", world.Rank())
		}
		return err
	})
}
