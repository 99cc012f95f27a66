package coll

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

// Run-state ownership (DESIGN.md §5c): what a module may keep between
// per-call collectives, and when it must not.

// allreduceAll runs one same-shape allreduce on every module, one goroutine
// per rank, and returns rank 0's result.
func allreduceAll(t *testing.T, mods []*Module, count, tag int) []byte {
	t.Helper()
	outs := make([][]byte, len(mods))
	errs := make([]error, len(mods))
	var wg sync.WaitGroup
	for r, m := range mods {
		outs[r] = make([]byte, count*8)
		wg.Add(1)
		go func(r int, m *Module) {
			defer wg.Done()
			errs[r] = m.Allreduce(rankInput(r, count, 8), outs[r], count, 8, sumI64, true, tag)
		}(r, m)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return outs[0]
}

// soleEntry returns the only cache entry of a module that has seen one shape.
func soleEntry(t *testing.T, m *Module) (schedKey, *compiled) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.cache) != 1 {
		t.Fatalf("module caches %d shapes, want 1", len(m.cache))
	}
	for k, e := range m.cache {
		return k, e
	}
	panic("unreachable")
}

// TestRunStateCheckoutIsExclusive: a second call that finds its shape's
// state checked out (two same-shape nonblocking collectives in flight) gets
// a state — and a staging arena — of its own, and of the two only one is
// kept when both return.
func TestRunStateCheckoutIsExclusive(t *testing.T) {
	const count = 64
	mods := newModules(t, 2)
	allreduceAll(t, mods, count, -16)
	m := mods[0]
	key, e := soleEntry(t, m)
	if e.idle == nil || e.s.stage == 0 {
		t.Fatalf("after a clean call: idle=%v stage=%d, want a parked state with staging", e.idle, e.s.stage)
	}

	_, first, err := m.checkout(key)
	if err != nil {
		t.Fatal(err)
	}
	_, second, err := m.checkout(key)
	if err != nil {
		t.Fatal(err)
	}
	if first == second || &first.bind.stage[0] == &second.bind.stage[0] {
		t.Fatal("two calls in flight share one run state")
	}
	if e.idle != nil || m.parked != 0 {
		t.Fatalf("with every state checked out: idle=%v parked=%d", e.idle, m.parked)
	}
	m.park(e, second)
	m.park(e, first)
	if e.idle != second || m.parked != e.s.stage {
		t.Fatalf("after both returned: idle is not the first one parked, or parked=%d (stage %d)", m.parked, e.s.stage)
	}
}

// failingRank is a mesh endpoint whose sends can be made to fail.
type failingRank struct {
	*NBMeshRank
	fail bool
}

var errInjected = errors.New("injected send failure")

func (f *failingRank) Isend(buf []byte, dest, tag int) (Req, error) {
	if f.fail {
		return nil, errInjected
	}
	return f.NBMeshRank.Isend(buf, dest, tag)
}

// TestErroredRunIsNotParked: the engine abandons outstanding requests when
// a step fails, and an abandoned receive may still land in the staging
// arena later. The state of a failed run is therefore dropped, never
// parked; the next call of that shape builds a fresh one and is correct.
func TestErroredRunIsNotParked(t *testing.T) {
	const count = 64
	fw, err := NewFramework([]string{"tuned", "basic"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mesh := NewNBMesh(2)
	flaky := &failingRank{NBMeshRank: mesh.Rank(0)}
	mods := []*Module{fw.NewModule(flaky, nil, "flaky"), fw.NewModule(mesh.Rank(1), nil, "peer")}
	want := refFold(t, sumI64, 2, 0, count, 8, func(r int) []byte { return rankInput(r, count, 8) })

	if got := allreduceAll(t, mods, count, -16); !bytes.Equal(got, want) {
		t.Fatal("wrong sum before the fault")
	}
	_, e := soleEntry(t, mods[0])
	parked := e.idle
	if parked == nil {
		t.Fatal("clean call did not park its state")
	}

	// Rank 0 alone enters the next call and fails in its first send, with
	// its receive already posted into the checked-out staging.
	flaky.fail = true
	out := make([]byte, count*8)
	if err := mods[0].Allreduce(rankInput(0, count, 8), out, count, 8, sumI64, true, -32); !errors.Is(err, errInjected) {
		t.Fatalf("allreduce over a failing transport = %v", err)
	}
	if e.idle != nil || mods[0].parked != 0 {
		t.Fatalf("errored run parked its state: idle=%v parked=%d", e.idle, mods[0].parked)
	}

	// Healed, on a new tag window (as mpi.Comm would claim): correct, on a
	// state that is not the abandoned one, and parked again.
	flaky.fail = false
	if got := allreduceAll(t, mods, count, -48); !bytes.Equal(got, want) {
		t.Fatal("wrong sum after the fault")
	}
	if e.idle == nil || e.idle == parked {
		t.Fatalf("after recovery: idle=%p, abandoned state %p", e.idle, parked)
	}
}

// TestParkedStagingCap: one module never keeps more than maxParkedStage
// bytes of staging parked. A shape whose arena alone exceeds the cap is not
// retained at all; shapes that fit are retained until the cap is spent.
func TestParkedStagingCap(t *testing.T) {
	mods := newModules(t, 2)
	m := mods[0]
	stageOf := func(count int) (*compiled, int) {
		t.Helper()
		allreduceAll(t, mods, count, -16)
		m.mu.Lock()
		defer m.mu.Unlock()
		for k, e := range m.cache {
			if k.count == count {
				return e, e.s.stage
			}
		}
		t.Fatalf("no cache entry for count %d", count)
		return nil, 0
	}

	big, stage := stageOf(maxParkedStage/8 + 1)
	if stage <= maxParkedStage {
		t.Fatalf("test shape stages %d bytes, need more than the %d-byte cap", stage, maxParkedStage)
	}
	if big.idle != nil || m.parked != 0 {
		t.Fatalf("a %d-byte arena over the %d-byte cap was retained (parked=%d)", stage, maxParkedStage, m.parked)
	}

	// Three shapes of ~3/8 of the cap each: two fit, the third does not.
	third := maxParkedStage * 3 / 8 / 8
	var kept int
	for i := 0; i < 3; i++ {
		e, stage := stageOf(third + i)
		if stage == 0 || stage > maxParkedStage/2 {
			t.Fatalf("test shape stages %d bytes, want (0, cap/2]", stage)
		}
		if e.idle != nil {
			kept++
		}
	}
	if kept != 2 || m.parked > maxParkedStage {
		t.Fatalf("kept %d of 3 shapes with %d bytes parked (cap %d); want 2 within the cap", kept, m.parked, maxParkedStage)
	}
}
