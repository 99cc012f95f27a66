package coll

import (
	"strings"
	"testing"
)

func TestTunedDecisionTable(t *testing.T) {
	e := Env{}
	cases := []struct {
		op          Op
		size, bytes int
		commutative bool
		want        string
	}{
		{Barrier, 4, 0, true, "binomial"},
		{Barrier, 16, 0, true, "dissemination"},
		{Bcast, 2, 1 << 20, true, "binomial"},
		{Bcast, 8, 1024, true, "binomial"},
		{Bcast, 8, 64 << 10, true, "scatter_allgather"},
		{Bcast, 8, 1 << 20, true, "pipeline"},
		{Reduce, 2, 1024, true, "linear"},
		{Reduce, 8, 1024, true, "binomial"},
		{Allreduce, 8, 1024, true, "recursive_doubling"},
		{Allreduce, 8, 128 << 10, true, "ring"},
		{Allreduce, 8, 128 << 10, false, "recursive_doubling"}, // ring reorders
		{Allgather, 8, 512, true, "bruck"},
		{Allgather, 8, 64 << 10, true, "ring"},
		{Alltoall, 8, 256, true, "bruck"},
		{Alltoall, 8, 64 << 10, true, "pairwise"},
	}
	for _, c := range cases {
		got := tunedDecide(c.op, e, c.size, c.bytes, c.commutative)
		if got != c.want {
			t.Errorf("tuned(%s, size=%d, bytes=%d, comm=%v) = %q, want %q",
				c.op, c.size, c.bytes, c.commutative, got, c.want)
		}
		if got != "" && !knownAlgorithm(c.op, got) {
			t.Errorf("tuned returned unregistered algorithm %q for %s", got, c.op)
		}
	}
}

func TestBasicDecisionAlwaysAnswers(t *testing.T) {
	for _, op := range Ops() {
		got := basicDecide(op, Env{}, 8, 1024, false)
		if got == "" || !knownAlgorithm(op, got) {
			t.Errorf("basic(%s) = %q, not a registered algorithm", op, got)
		}
	}
}

func TestHierDecisionGating(t *testing.T) {
	multi := Env{Nodes: []int{0, 0, 1, 1}}
	oneEach := Env{Nodes: []int{0, 1, 2, 3}}
	single := Env{Nodes: []int{0, 0, 0, 0}}
	if got := hierDecide(Bcast, multi, 4, 1024, true); got != "hier" {
		t.Fatalf("multi-node bcast: got %q", got)
	}
	if got := hierDecide(Allreduce, multi, 4, 1024, true); got != "hier" {
		t.Fatalf("multi-node commutative allreduce: got %q", got)
	}
	if got := hierDecide(Allreduce, multi, 4, 1024, false); got != "" {
		t.Fatalf("non-commutative allreduce must pass: got %q", got)
	}
	if got := hierDecide(Alltoall, multi, 4, 1024, true); got != "" {
		t.Fatalf("alltoall has no hier shape: got %q", got)
	}
	for name, e := range map[string]Env{"nil": {}, "one-per-node": oneEach, "single-node": single} {
		if got := hierDecide(Bcast, e, 4, 1024, true); got != "" {
			t.Fatalf("%s placement must pass: got %q", name, got)
		}
	}
}

func TestNewFrameworkUnknownComponent(t *testing.T) {
	if _, err := NewFramework([]string{"bogus"}, nil); err == nil {
		t.Fatal("unknown component must error")
	}
	if _, err := NewFramework(nil, nil); err == nil {
		t.Fatal("empty chain must error")
	}
}

func TestModuleHints(t *testing.T) {
	fw, err := NewFramework([]string{"tuned", "basic"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := fw.NewModule(NewNBMesh(1).Rank(0), nil, "c")
	if err := m.SetHint(Allreduce, "nope"); err == nil ||
		!strings.Contains(err.Error(), "has no algorithm") {
		t.Fatalf("unknown hint: err = %v", err)
	}
	if err := m.SetHint(Allreduce, "ring"); err != nil {
		t.Fatal(err)
	}
	if comp, algo := m.pick(Allreduce, 8, true); comp != "info" || algo != "ring" {
		t.Fatalf("hint not honored: %s/%s", comp, algo)
	}
	// A reordering hint with a non-commutative reduction is ignored, not run.
	if comp, algo := m.pick(Allreduce, 8, false); comp == "info" || algo == "ring" {
		t.Fatalf("reordering hint must be ignored for non-commutative ops: %s/%s", comp, algo)
	}
	if err := m.SetHint(Allreduce, ""); err != nil {
		t.Fatal(err)
	}
	if comp, _ := m.pick(Allreduce, 8, true); comp != "tuned" {
		t.Fatalf("cleared hint, want tuned, got %s", comp)
	}
}

// TestPickFallback: a pure-hier chain declines flat-only operations; the
// dispatcher must still produce a runnable algorithm.
func TestPickFallback(t *testing.T) {
	fw, err := NewFramework([]string{"hier"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := fw.NewModule(NewNBMesh(1).Rank(0), nil, "c")
	comp, algo := m.pick(Reduce, 8, true)
	if comp != "fallback" || !knownAlgorithm(Reduce, algo) {
		t.Fatalf("pure-hier reduce: %s/%s", comp, algo)
	}
}
