package mpi_test

import (
	"errors"
	"fmt"
	"testing"

	"gompi/mpi"
)

// TestNegativeCountRejected: a negative element count makes every byte
// length computed from it negative, which passes every "buffer at least
// this long" test; each reduction entry point must reject it through the
// communicator's error handler, as MPI_ERR_BUFFER, before it reaches the
// framework (where it used to panic in makeslice).
func TestNegativeCountRejected(t *testing.T) {
	withWorld(t, 1, 2, exCfg(), func(p *mpi.Process, world *mpi.Comm) error {
		handled := 0
		world.SetErrhandler(mpi.ErrhandlerCreate("count", func(error) { handled++ }))
		buf, out := make([]byte, 64), make([]byte, 64)
		sum := mpi.OpCreate("sum", func(inout, in []byte, count int, dt mpi.Datatype) error { return nil })
		calls := []struct {
			name string
			call func() error
		}{
			{"Reduce", func() error { return world.Reduce(buf, out, -1, mpi.Int64, mpi.OpSum, 0) }},
			{"Allreduce", func() error { return world.Allreduce(buf, out, -1, mpi.Int64, mpi.OpSum) }},
			{"Iallreduce", func() error { _, err := world.Iallreduce(buf, out, -1, mpi.Int64, mpi.OpSum); return err }},
			{"ReduceUser", func() error { return world.ReduceUser(buf, out, -1, mpi.Int64, sum, 0) }},
			{"AllreduceUser", func() error { return world.AllreduceUser(buf, out, -1, mpi.Int64, sum) }},
			{"Scan", func() error { return world.Scan(buf, out, -1, mpi.Int64, mpi.OpSum) }},
			{"Exscan", func() error { return world.Exscan(buf, out, -1, mpi.Int64, mpi.OpSum) }},
			{"ReduceScatterBlock", func() error { return world.ReduceScatterBlock(buf, out, -1, mpi.Int64, mpi.OpSum) }},
			{"ReduceInit", func() error { _, err := world.ReduceInit(buf, out, -1, mpi.Int64, mpi.OpSum, 0); return err }},
			{"AllreduceInit", func() error { _, err := world.AllreduceInit(buf, out, -1, mpi.Int64, mpi.OpSum); return err }},
		}
		for i, tc := range calls {
			err := tc.call()
			if !errors.Is(err, mpi.ErrBuffer) || mpi.ErrorClassOf(err) != mpi.ErrClassBuffer {
				return fmt.Errorf("%s(count -1) = %v (class %v), want MPI_ERR_BUFFER", tc.name, err, mpi.ErrorClassOf(err))
			}
			if handled != i+1 {
				return fmt.Errorf("%s(count -1) bypassed the communicator's error handler", tc.name)
			}
		}
		// Every member rejected every call before claiming a tag window, so
		// the communicator is still in step.
		world.SetErrhandler(nil)
		got, err := world.AllreduceInt64(1, mpi.OpSum)
		if err != nil || got != 2 {
			return fmt.Errorf("allreduce after the rejected calls = %d, %v", got, err)
		}
		return nil
	})
}

// TestVectorCollectiveBlockValidation: Gatherv and Scatterv used to skip
// the root's own block when bounds-checking (and Gatherv copied it before
// checking anything), so a root block outside the buffer panicked with a
// slice-bounds error; negative counts or displacements did the same in
// Allgatherv. Every block is validated before the first copy or message.
func TestVectorCollectiveBlockValidation(t *testing.T) {
	withWorld(t, 1, 1, exCfg(), func(p *mpi.Process, world *mpi.Comm) error {
		// One member: the root validates alone, nobody is left waiting.
		buf16, blk := make([]byte, 16), make([]byte, 8)
		for _, tc := range []struct {
			name           string
			counts, displs []int
		}{
			{"root block past the end", []int{8}, []int{12}},
			{"negative count", []int{-1}, []int{0}},
			{"negative displacement", []int{8}, []int{-8}},
			{"displacement past the end", []int{0}, []int{17}},
		} {
			for name, call := range map[string]func() error{
				"Gatherv":    func() error { return world.Gatherv(blk, buf16, tc.counts, tc.displs, 0) },
				"Scatterv":   func() error { return world.Scatterv(buf16, tc.counts, tc.displs, blk, 0) },
				"Allgatherv": func() error { return world.Allgatherv(blk, buf16, tc.counts, tc.displs) },
			} {
				if err := call(); mpi.ErrorClassOf(err) != mpi.ErrClassBuffer {
					return fmt.Errorf("%s, %s: %v (class %v), want MPI_ERR_BUFFER", name, tc.name, err, mpi.ErrorClassOf(err))
				}
			}
		}
		// A block that ends exactly at the end of the buffer is fine.
		if err := world.Gatherv(blk, buf16, []int{8}, []int{8}, 0); err != nil {
			return err
		}
		return world.Scatterv(buf16, []int{8}, []int{8}, blk, 0)
	})
	// The issue's reproducer: two members, the root's block at 12 in a
	// 16-byte buffer. Rank 1's 8-byte send is eager, so it completes
	// whether or not the root ever receives it.
	withWorld(t, 1, 2, exCfg(), func(p *mpi.Process, world *mpi.Comm) error {
		err := world.Gatherv(make([]byte, 8), make([]byte, 16), []int{8, 8}, []int{12, 0}, 0)
		if world.Rank() == 0 && mpi.ErrorClassOf(err) != mpi.ErrClassBuffer {
			return fmt.Errorf("gatherv with the root block out of bounds = %v, want MPI_ERR_BUFFER", err)
		}
		if world.Rank() != 0 && err != nil {
			return err
		}
		return nil
	})
}
