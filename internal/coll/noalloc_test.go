package coll

import (
	"bytes"
	"sync"
	"testing"
)

// lockstep drives one collective across every rank of an NBMesh: worker
// goroutines for ranks 1..N-1 run one round per trigger over unbuffered
// channels, rank 0 runs on the caller's goroutine.
type lockstep struct {
	op      func(r int) error
	trigger []chan struct{}
	done    []chan error
}

func newLockstep(t *testing.T, ranks int, op func(r int) error) *lockstep {
	t.Helper()
	ls := &lockstep{op: op}
	var workers sync.WaitGroup
	for r := 1; r < ranks; r++ {
		r := r
		trigger, done := make(chan struct{}), make(chan error)
		ls.trigger = append(ls.trigger, trigger)
		ls.done = append(ls.done, done)
		workers.Add(1)
		go func() {
			defer workers.Done()
			for range trigger {
				done <- op(r)
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
	err := ls.op(0)
	for _, d := range ls.done {
		if werr := <-d; werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

// requireNoAllocs warms every pool and queue capacity, then fails the test
// if a full round — across every rank's goroutine, since AllocsPerRun
// counts process-wide mallocs — allocates.
func requireNoAllocs(t *testing.T, ls *lockstep, what string) {
	t.Helper()
	for i := 0; i < 9; i++ {
		if err := ls.step(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := ls.step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("%s allocated %.1f times per round; the //gompilint:noalloc path must stay allocation-free", what, allocs)
	}
}

func newModules(t *testing.T, ranks int) []*Module {
	t.Helper()
	fw, err := NewFramework([]string{"tuned", "basic"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mesh := NewNBMesh(ranks)
	mods := make([]*Module, ranks)
	for r := range mods {
		mods[r] = fw.NewModule(mesh.Rank(r), nil, "lockstep")
	}
	return mods
}

// TestPersistentCollStartAllocs corroborates the //gompilint:noalloc
// annotations on the persistent-collective hot path (run, testStep,
// waitStep, execState.reset) at runtime: once an Exec is bound, driving a
// full 8-rank allreduce round allocates nothing. The schedule, run state,
// and request records were all sized at *Init time; a regression here
// means someone put an allocation back on the per-round path.
func TestPersistentCollStartAllocs(t *testing.T) {
	const ranks, count = 8, 128
	mods := newModules(t, ranks)
	execs := make([]*Exec, ranks)
	var out0 []byte
	for r, m := range mods {
		out := make([]byte, count*8)
		ex, err := m.PrepareAllreduce(rankInput(r, count, 8), out, count, 8, sumI64, true, -16)
		if err != nil {
			t.Fatal(err)
		}
		execs[r] = ex
		if r == 0 {
			out0 = out
		}
	}
	requireNoAllocs(t, newLockstep(t, ranks, func(r int) error { return execs[r].Run() }), "persistent allreduce")
	want := refFold(t, sumI64, ranks, 0, count, 8, func(r int) []byte { return rankInput(r, count, 8) })
	if !bytes.Equal(out0, want) {
		t.Fatal("lockstep allreduce produced the wrong sum")
	}
}

// TestPerCallCollAllocs is the same claim for the per-call path: a warm
// call of any framework collective checks out the run state parked with
// its cached schedule, runs, and parks it again — Module.dispatch and
// everything under it allocate nothing. Each result is checked once, so
// a state reused across calls is also shown to be rewound properly.
func TestPerCallCollAllocs(t *testing.T) {
	const ranks, count, root = 8, 128, 3
	ins := make([][]byte, ranks)
	for r := range ins {
		ins[r] = rankInput(r, count, 8)
	}
	input := func(r int) []byte { return ins[r] }
	sum := refFold(t, sumI64, ranks, 0, count, 8, input)
	var gathered []byte
	for r := 0; r < ranks; r++ {
		gathered = append(gathered, input(r)...)
	}
	blk := count * 8 / ranks

	for _, tc := range []struct {
		name string
		call func(m *Module, r int, out []byte) error
		want func(r int) []byte // nil: nothing to check at this rank
	}{
		{"barrier", func(m *Module, r int, out []byte) error { return m.Barrier(-16) }, nil},
		{"bcast", func(m *Module, r int, out []byte) error {
			if r == root {
				copy(out, input(root))
			}
			return m.Bcast(out[:count*8], root, -16)
		}, func(int) []byte { return input(root) }},
		{"reduce", func(m *Module, r int, out []byte) error {
			return m.Reduce(input(r), out[:count*8], count, 8, sumI64, true, root, -16)
		}, func(r int) []byte {
			if r != root {
				return nil
			}
			return sum
		}},
		{"allreduce", func(m *Module, r int, out []byte) error {
			return m.Allreduce(input(r), out[:count*8], count, 8, sumI64, true, -16)
		}, func(int) []byte { return sum }},
		{"allgather", func(m *Module, r int, out []byte) error {
			return m.Allgather(input(r), out, -16)
		}, func(int) []byte { return gathered }},
		{"alltoall", func(m *Module, r int, out []byte) error {
			return m.Alltoall(input(r), out[:count*8], -16)
		}, func(r int) []byte {
			var w []byte
			for src := 0; src < ranks; src++ {
				w = append(w, input(src)[r*blk:(r+1)*blk]...)
			}
			return w
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mods := newModules(t, ranks)
			outs := make([][]byte, ranks)
			for r := range outs {
				outs[r] = make([]byte, ranks*count*8)
			}
			ls := newLockstep(t, ranks, func(r int) error { return tc.call(mods[r], r, outs[r]) })
			requireNoAllocs(t, ls, "per-call "+tc.name)
			for r := 0; tc.want != nil && r < ranks; r++ {
				if w := tc.want(r); w != nil && !bytes.Equal(outs[r][:len(w)], w) {
					t.Errorf("rank %d: wrong %s result after repeated warm calls", r, tc.name)
				}
			}
		})
	}
}
