package coll

import (
	"bytes"
	"sync"
	"testing"
)

// lockstep drives one persistent allreduce across every rank of an NBMesh:
// worker goroutines for ranks 1..N-1 run one round per trigger over
// unbuffered channels, rank 0 runs on the caller's goroutine.
type lockstep struct {
	execs   []*Exec
	out0    []byte
	trigger []chan struct{}
	done    []chan error
}

func newLockstep(t *testing.T, ranks, count int) *lockstep {
	t.Helper()
	fw, err := NewFramework([]string{"tuned", "basic"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mesh := NewNBMesh(ranks)
	ls := &lockstep{}
	var workers sync.WaitGroup
	for r := 0; r < ranks; r++ {
		out := make([]byte, count*8)
		ex, err := fw.NewModule(mesh.Rank(r), nil, "lockstep").
			PrepareAllreduce(rankInput(r, count, 8), out, count, 8, sumI64, true, -16)
		if err != nil {
			t.Fatal(err)
		}
		ls.execs = append(ls.execs, ex)
		if r == 0 {
			ls.out0 = out
			continue
		}
		trigger, done := make(chan struct{}), make(chan error)
		ls.trigger = append(ls.trigger, trigger)
		ls.done = append(ls.done, done)
		workers.Add(1)
		go func() {
			defer workers.Done()
			for range trigger {
				done <- ex.Run()
			}
		}()
	}
	t.Cleanup(func() {
		for _, c := range ls.trigger {
			close(c)
		}
		workers.Wait()
	})
	return ls
}

// step runs one round on every rank and returns the first error.
func (ls *lockstep) step() error {
	for _, c := range ls.trigger {
		c <- struct{}{}
	}
	err := ls.execs[0].Run()
	for _, d := range ls.done {
		if werr := <-d; werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

// TestPersistentCollStartAllocs corroborates the //gompilint:noalloc
// annotations on the persistent-collective hot path (run, testStep,
// waitStep, execState.reset) at runtime: once an Exec is bound, driving a
// full 8-rank allreduce round — across every rank's goroutine, since
// AllocsPerRun counts process-wide mallocs — allocates nothing. The
// schedule, engine state, and request records were all sized at *Init
// time; a regression here means someone put an allocation back on the
// per-round path.
func TestPersistentCollStartAllocs(t *testing.T) {
	const ranks, count = 8, 128
	ls := newLockstep(t, ranks, count)

	// Validate the driver once, then warm every pool and queue capacity.
	for i := 0; i < 9; i++ {
		if err := ls.step(); err != nil {
			t.Fatal(err)
		}
	}
	want := refFold(t, sumI64, ranks, 0, count, 8, func(r int) []byte { return rankInput(r, count, 8) })
	if !bytes.Equal(ls.out0, want) {
		t.Fatal("lockstep allreduce produced the wrong sum")
	}

	allocs := testing.AllocsPerRun(100, func() {
		if err := ls.step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("persistent collective round allocated %.1f times per step; the //gompilint:noalloc engine loop must stay allocation-free", allocs)
	}
}
