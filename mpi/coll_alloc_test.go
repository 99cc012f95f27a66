package mpi

import (
	"bytes"
	"sync"
	"testing"

	"gompi/internal/coll"
	"gompi/internal/coll/colltest"
	"gompi/internal/opal"
)

// TestPersistentCollStartAllocs gates the persistent-collective trigger
// path at the mpi surface: once AllreduceInit has bound the schedule,
// PersistentColl.Start issues a round's first steps on the caller, the
// steps' completion hooks carry it while the caller is away, and Wait
// finishes it — allocating nothing per round, across every rank. The
// framework carries a disabled trace, as a production instance's does,
// and runs over colltest's pooled in-memory mesh, so the count belongs to
// the collective layers alone: the PML's own per-message allocations
// (pml.allocs_per_eager_msg) stay out of it.
func TestPersistentCollStartAllocs(t *testing.T) {
	const ranks, count = 4, 16
	fw, err := coll.NewFramework([]string{"tuned", "basic"}, opal.NewTrace(16))
	if err != nil {
		t.Fatal(err)
	}
	mesh := colltest.NewMesh[coll.Req](ranks)
	reqs := make([]*PersistentColl, ranks)
	outs := make([][]byte, ranks)
	want := make([]int64, count)
	for r := range reqs {
		in := make([]int64, count)
		for i := range in {
			in[i] = int64(r*100 + i)
			want[i] += in[i]
		}
		outs[r] = make([]byte, count*8)
		ex, err := fw.NewModule(mesh.Rank(r), nil, "alloc").
			PrepareAllreduce(PackInt64s(in), outs[r], count, 8, builtinReducer(OpSum, Int64), true, -16)
		if err != nil {
			t.Fatal(err)
		}
		reqs[r] = &PersistentColl{c: &Comm{}, ex: ex}
	}
	round := func(r int) error {
		if err := reqs[r].Start(); err != nil {
			return err
		}
		return reqs[r].Wait()
	}

	// Ranks 1.. run on workers triggered over unbuffered channels; rank 0
	// runs on the caller, so a round is one call.
	var workers sync.WaitGroup
	trigger := make([]chan struct{}, ranks)
	result := make(chan error, ranks)
	for r := 1; r < ranks; r++ {
		trigger[r] = make(chan struct{})
		workers.Add(1)
		go func(r int) {
			defer workers.Done()
			for range trigger[r] {
				result <- round(r)
			}
		}(r)
	}
	defer func() {
		for r := 1; r < ranks; r++ {
			close(trigger[r])
		}
		workers.Wait()
	}()
	step := func() {
		for r := 1; r < ranks; r++ {
			trigger[r] <- struct{}{}
		}
		err := round(0)
		for r := 1; r < ranks; r++ {
			if werr := <-result; werr != nil && err == nil {
				err = werr
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ { // warm the op pools and queue capacities
		step()
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Errorf("a PersistentColl Start/Wait round allocated %.1f times; the trigger path must stay allocation-free", allocs)
	}
	for r := range outs {
		if !bytes.Equal(outs[r], PackInt64s(want)) {
			t.Fatalf("rank %d: wrong sum after repeated rounds", r)
		}
	}
}
