package simnet

import (
	"testing"

	"gompi/internal/topo"
)

func TestSameDragonflyGroup(t *testing.T) {
	p := topo.Loopback(1)
	if !p.SameDragonflyGroup(0, 99) {
		t.Fatal("disabled topology must report one group")
	}
	p.DragonflyGroupSize = 4
	cases := []struct {
		a, b int
		want bool
	}{
		{0, 3, true}, {0, 4, false}, {4, 7, true}, {3, 4, false}, {8, 11, true},
	}
	for _, c := range cases {
		if got := p.SameDragonflyGroup(c.a, c.b); got != c.want {
			t.Errorf("SameDragonflyGroup(%d,%d) = %v", c.a, c.b, got)
		}
	}
}
