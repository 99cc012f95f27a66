package mpi_test

import (
	"fmt"
	"testing"

	"gompi/mpi"
)

func TestScanInclusive(t *testing.T) {
	withWorld(t, 1, 4, exCfg(), func(p *mpi.Process, world *mpi.Comm) error {
		in := mpi.PackInt64s([]int64{int64(world.Rank() + 1)})
		out := make([]byte, 8)
		if err := world.Scan(in, out, 1, mpi.Int64, mpi.OpSum); err != nil {
			return err
		}
		got := mpi.UnpackInt64s(out)[0]
		r := int64(world.Rank())
		want := (r + 1) * (r + 2) / 2 // 1+2+...+(rank+1)
		if got != want {
			return fmt.Errorf("rank %d scan = %d, want %d", world.Rank(), got, want)
		}
		return nil
	})
}

func TestExscanExclusive(t *testing.T) {
	withWorld(t, 2, 2, exCfg(), func(p *mpi.Process, world *mpi.Comm) error {
		in := mpi.PackInt64s([]int64{int64(world.Rank() + 1)})
		out := mpi.PackInt64s([]int64{-999}) // sentinel: untouched at rank 0
		if err := world.Exscan(in, out, 1, mpi.Int64, mpi.OpSum); err != nil {
			return err
		}
		got := mpi.UnpackInt64s(out)[0]
		if world.Rank() == 0 {
			if got != -999 {
				return fmt.Errorf("rank 0 exscan buffer modified: %d", got)
			}
			return nil
		}
		r := int64(world.Rank())
		want := r * (r + 1) / 2 // 1+2+...+rank
		if got != want {
			return fmt.Errorf("rank %d exscan = %d, want %d", world.Rank(), got, want)
		}
		return nil
	})
}

func TestScanNonCommutativeOrder(t *testing.T) {
	// MAX is commutative; use subtraction-like check via prefix strings?
	// Instead verify prefix ordering with OpProd over distinct primes: the
	// product is order-insensitive, so assert the exact prefix VALUES which
	// only hold if each rank's contribution is included exactly once.
	withWorld(t, 1, 3, exCfg(), func(p *mpi.Process, world *mpi.Comm) error {
		primes := []int64{2, 3, 5}
		in := mpi.PackInt64s([]int64{primes[world.Rank()]})
		out := make([]byte, 8)
		if err := world.Scan(in, out, 1, mpi.Int64, mpi.OpProd); err != nil {
			return err
		}
		want := []int64{2, 6, 30}[world.Rank()]
		if got := mpi.UnpackInt64s(out)[0]; got != want {
			return fmt.Errorf("rank %d: %d != %d", world.Rank(), got, want)
		}
		return nil
	})
}

func TestReduceScatterBlock(t *testing.T) {
	withWorld(t, 2, 2, exCfg(), func(p *mpi.Process, world *mpi.Comm) error {
		n := world.Size()
		// Each rank contributes vector [rank, rank, rank, rank] (one value
		// per destination block).
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(world.Rank() * (i + 1))
		}
		out := make([]byte, 8)
		if err := world.ReduceScatterBlock(mpi.PackInt64s(vals), out, 1, mpi.Int64, mpi.OpSum); err != nil {
			return err
		}
		// Block i = sum over ranks r of r*(i+1) = (i+1) * sum(r).
		sumR := int64(n * (n - 1) / 2)
		want := int64(world.Rank()+1) * sumR
		if got := mpi.UnpackInt64s(out)[0]; got != want {
			return fmt.Errorf("rank %d: %d != %d", world.Rank(), got, want)
		}
		return nil
	})
}

func TestAllgatherv(t *testing.T) {
	withWorld(t, 2, 2, exCfg(), func(p *mpi.Process, world *mpi.Comm) error {
		n := world.Size()
		// Rank r contributes r+1 bytes of value 'a'+r.
		counts := make([]int, n)
		displs := make([]int, n)
		total := 0
		for r := 0; r < n; r++ {
			counts[r] = r + 1
			displs[r] = total
			total += counts[r]
		}
		mine := make([]byte, counts[world.Rank()])
		for i := range mine {
			mine[i] = byte('a' + world.Rank())
		}
		all := make([]byte, total)
		if err := world.Allgatherv(mine, all, counts, displs); err != nil {
			return err
		}
		for r := 0; r < n; r++ {
			for i := 0; i < counts[r]; i++ {
				if all[displs[r]+i] != byte('a'+r) {
					return fmt.Errorf("block %d corrupt: %q", r, all)
				}
			}
		}
		return nil
	})
}

func TestGathervScatterv(t *testing.T) {
	withWorld(t, 1, 3, exCfg(), func(p *mpi.Process, world *mpi.Comm) error {
		const root = 1
		n := world.Size()
		counts := []int{2, 3, 4}
		displs := []int{0, 2, 5}
		mine := make([]byte, counts[world.Rank()])
		for i := range mine {
			mine[i] = byte(world.Rank()*10 + i)
		}
		var all []byte
		if world.Rank() == root {
			all = make([]byte, 9)
		}
		if err := world.Gatherv(mine, all, counts, displs, root); err != nil {
			return err
		}
		if world.Rank() == root {
			for r := 0; r < n; r++ {
				for i := 0; i < counts[r]; i++ {
					if all[displs[r]+i] != byte(r*10+i) {
						return fmt.Errorf("gatherv block %d corrupt: %v", r, all)
					}
				}
			}
			for i := range all {
				all[i] += 100
			}
		}
		back := make([]byte, counts[world.Rank()])
		if err := world.Scatterv(all, counts, displs, back, root); err != nil {
			return err
		}
		for i := range back {
			if back[i] != byte(world.Rank()*10+i)+100 {
				return fmt.Errorf("scatterv rank %d byte %d = %d", world.Rank(), i, back[i])
			}
		}
		return nil
	})
}

func TestIallreduceAndIbcast(t *testing.T) {
	withWorld(t, 2, 2, exCfg(), func(p *mpi.Process, world *mpi.Comm) error {
		in := mpi.PackInt64s([]int64{int64(world.Rank())})
		out := make([]byte, 8)
		req, err := world.Iallreduce(in, out, 1, mpi.Int64, mpi.OpMax)
		if err != nil {
			return err
		}
		if _, err := req.Wait(); err != nil {
			return err
		}
		if got := mpi.UnpackInt64s(out)[0]; got != 3 {
			return fmt.Errorf("iallreduce max = %d", got)
		}
		buf := []byte{0}
		if world.Rank() == 2 {
			buf[0] = 42
		}
		breq, err := world.Ibcast(buf, 2)
		if err != nil {
			return err
		}
		if _, err := breq.Wait(); err != nil {
			return err
		}
		if buf[0] != 42 {
			return fmt.Errorf("ibcast = %d", buf[0])
		}
		return nil
	})
}

// TestIallreduceSameShapeInFlight: two nonblocking allreduces of one shape
// outstanding on one communicator. The second finds the shape's parked run
// state checked out and must get staging of its own — sharing it would let
// the two schedules reduce into each other's partial sums (and the race
// detector would see the writes). Repeated, so later rounds start from a
// parked state and one dropped spare.
func TestIallreduceSameShapeInFlight(t *testing.T) {
	const count = 512
	withWorld(t, 2, 2, exCfg(), func(p *mpi.Process, world *mpi.Comm) error {
		rank, size := int64(world.Rank()), int64(world.Size())
		a, b := make([]int64, count), make([]int64, count)
		for round := int64(0); round < 8; round++ {
			for i := range a {
				a[i] = rank + int64(i) + round
				b[i] = -3 * (rank + int64(i))
			}
			outA, outB := make([]byte, 8*count), make([]byte, 8*count)
			reqA, err := world.Iallreduce(mpi.PackInt64s(a), outA, count, mpi.Int64, mpi.OpSum)
			if err != nil {
				return err
			}
			reqB, err := world.Iallreduce(mpi.PackInt64s(b), outB, count, mpi.Int64, mpi.OpSum)
			if err != nil {
				return err
			}
			if _, err := reqB.Wait(); err != nil {
				return err
			}
			if _, err := reqA.Wait(); err != nil {
				return err
			}
			ranks := size * (size - 1) / 2 // 0+1+...+(size-1)
			gotA, gotB := mpi.UnpackInt64s(outA), mpi.UnpackInt64s(outB)
			for i := range gotA {
				wantA := ranks + size*(int64(i)+round)
				wantB := -3 * (ranks + size*int64(i))
				if gotA[i] != wantA || gotB[i] != wantB {
					return fmt.Errorf("rank %d round %d element %d: sums %d, %d; want %d, %d",
						rank, round, i, gotA[i], gotB[i], wantA, wantB)
				}
			}
		}
		return nil
	})
}

func TestSsendCompletesOnMatch(t *testing.T) {
	withWorld(t, 1, 2, exCfg(), func(p *mpi.Process, world *mpi.Comm) error {
		if world.Rank() == 0 {
			// Synchronous send must not complete before the receive is
			// posted; with the blocking form we can only verify it
			// round-trips correctly, and use Issend + Test for the
			// no-early-completion property.
			req := world.Issend([]byte("sync"), 1, 9)
			done, _, _ := req.Test()
			if done {
				return fmt.Errorf("Issend completed before any receive was posted")
			}
			// Tell rank 1 to post the receive now.
			if err := world.Send([]byte{1}, 1, 10); err != nil {
				return err
			}
			if _, err := req.Wait(); err != nil {
				return err
			}
			return world.Ssend([]byte("again"), 1, 11)
		}
		var go1 [1]byte
		if _, err := world.Recv(go1[:], 0, 10); err != nil {
			return err
		}
		buf := make([]byte, 5)
		st, err := world.Recv(buf, 0, 9)
		if err != nil {
			return err
		}
		if string(buf[:st.Count]) != "sync" {
			return fmt.Errorf("got %q", buf[:st.Count])
		}
		if _, err := world.Recv(buf, 0, 11); err != nil {
			return err
		}
		return nil
	})
}

func TestCollectiveBufferValidation(t *testing.T) {
	withWorld(t, 1, 2, exCfg(), func(p *mpi.Process, world *mpi.Comm) error {
		short := make([]byte, 4)
		if err := world.Scan(short, short, 1, mpi.Int64, mpi.OpSum); err == nil {
			return fmt.Errorf("short scan buffer accepted")
		}
		if err := world.Allgatherv(nil, nil, []int{1}, []int{0}); err == nil {
			return fmt.Errorf("wrong-length counts accepted")
		}
		if err := world.ReduceScatterBlock(short, short, 1, mpi.Int64, mpi.OpSum); err == nil {
			return fmt.Errorf("short reduce_scatter buffer accepted")
		}
		return nil
	})
}
