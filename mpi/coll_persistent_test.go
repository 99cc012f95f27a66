package mpi_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"gompi/mpi"
)

// TestPersistentAllreduce runs the setup-once/start-many path end to end:
// fresh inputs each round, same bound buffers, correct result every time.
func TestPersistentAllreduce(t *testing.T) {
	for _, sh := range []struct{ nodes, ppn int }{{1, 1}, {1, 4}, {2, 3}} {
		run(t, sh.nodes, sh.ppn, propCfg(), func(p *mpi.Process) error {
			if err := p.Init(); err != nil {
				return err
			}
			defer p.Finalize()
			world := p.CommWorld()
			size, rank := world.Size(), world.Rank()
			const count = 32
			send := make([]byte, count*8)
			recv := make([]byte, count*8)
			req, err := world.AllreduceInit(send, recv, count, mpi.Int64, mpi.OpSum)
			if err != nil {
				return err
			}
			for round := 0; round < 4; round++ {
				in := make([]int64, count)
				for i := range in {
					in[i] = int64(rank*1000 + round*37 + i)
				}
				copy(send, mpi.PackInt64s(in))
				if err := req.Start(); err != nil {
					return fmt.Errorf("round %d: %w", round, err)
				}
				if err := req.Wait(); err != nil {
					return fmt.Errorf("round %d: %w", round, err)
				}
				got := mpi.UnpackInt64s(recv)
				for i := range got {
					var want int64
					for r := 0; r < size; r++ {
						want += int64(r*1000 + round*37 + i)
					}
					if got[i] != want {
						return fmt.Errorf("round %d [%d]: got %d want %d", round, i, got[i], want)
					}
				}
			}
			return req.Free()
		})
	}
}

// TestPersistentCollKinds smoke-tests every *Init constructor and checks
// the framework counters the persistent path is supposed to move.
func TestPersistentCollKinds(t *testing.T) {
	run(t, 1, 4, propCfg(), func(p *mpi.Process) error {
		if err := p.Init(); err != nil {
			return err
		}
		defer p.Finalize()
		world := p.CommWorld()
		size, rank := world.Size(), world.Rank()

		bar, err := world.BarrierInit()
		if err != nil {
			return err
		}
		payload := []byte("persistent-broadcast-payload")
		buf := make([]byte, len(payload))
		if rank == 0 {
			copy(buf, payload)
		}
		bc, err := world.BcastInit(buf, 0)
		if err != nil {
			return err
		}
		blk := 16
		gsend := make([]byte, blk)
		for i := range gsend {
			gsend[i] = byte(rank*50 + i)
		}
		grecv := make([]byte, size*blk)
		ag, err := world.AllgatherInit(gsend, grecv)
		if err != nil {
			return err
		}
		asend := make([]byte, size*8)
		arecv := make([]byte, size*8)
		for d := 0; d < size; d++ {
			copy(asend[d*8:], mpi.PackInt64s([]int64{int64(rank*100 + d)}))
		}
		a2a, err := world.AlltoallInit(asend, arecv)
		if err != nil {
			return err
		}
		rsend := mpi.PackInt64s([]int64{int64(rank + 1)})
		rrecv := make([]byte, 8)
		red, err := world.ReduceInit(rsend, rrecv, 1, mpi.Int64, mpi.OpSum, 0)
		if err != nil {
			return err
		}

		for round := 0; round < 3; round++ {
			// StartAll composes the whole set, mixed kinds included.
			if err := mpi.StartAll(bar, bc, ag, a2a, red); err != nil {
				return err
			}
			for _, r := range []*mpi.PersistentColl{bar, bc, ag, a2a, red} {
				if err := r.Wait(); err != nil {
					return err
				}
			}
			if !bytes.Equal(buf, payload) {
				return fmt.Errorf("round %d: bcast payload corrupt", round)
			}
			for r := 0; r < size; r++ {
				for i := 0; i < blk; i++ {
					if grecv[r*blk+i] != byte(r*50+i) {
						return fmt.Errorf("round %d: allgather block %d corrupt", round, r)
					}
				}
			}
			for s := 0; s < size; s++ {
				got := mpi.UnpackInt64s(arecv[s*8 : s*8+8])[0]
				if want := int64(s*100 + rank); got != want {
					return fmt.Errorf("round %d: alltoall block from %d = %d, want %d", round, s, got, want)
				}
			}
			if rank == 0 {
				got := mpi.UnpackInt64s(rrecv)[0]
				if want := int64(size * (size + 1) / 2); got != want {
					return fmt.Errorf("round %d: reduce got %d want %d", round, got, want)
				}
			}
		}

		// State machine: double Start, Wait-after-complete, use-after-Free.
		if err := bar.Start(); err != nil {
			return err
		}
		if err := bar.Start(); !errors.Is(err, mpi.ErrActive) {
			return fmt.Errorf("double Start: %v", err)
		}
		if err := bar.Free(); !errors.Is(err, mpi.ErrActive) {
			return fmt.Errorf("Free while active: %v", err)
		}
		if err := bar.Wait(); err != nil {
			return err
		}
		if err := bar.Wait(); !errors.Is(err, mpi.ErrCollNotStarted) {
			return fmt.Errorf("Wait on inactive: %v", err)
		}
		for _, r := range []*mpi.PersistentColl{bar, bc, ag, a2a, red} {
			if err := r.Free(); err != nil {
				return err
			}
		}
		if err := bar.Start(); !errors.Is(err, mpi.ErrCollFreed) {
			return fmt.Errorf("Start after Free: %v", err)
		}

		st := p.CollStatsSnapshot()
		// 3 StartAll rounds x 5 requests, plus the lone barrier Start.
		if st["persistent_starts"] < 16 {
			return fmt.Errorf("persistent_starts = %d, want >= 16 (%v)", st["persistent_starts"], st)
		}
		return nil
	})
}
