package opal

import (
	"fmt"
	"testing"
)

func TestTraceDisabledByDefault(t *testing.T) {
	tr := NewTrace(32)
	tr.Logf("pml", "dropped")
	if got := tr.Events(); len(got) != 0 {
		t.Fatalf("disabled tracer recorded %d events", len(got))
	}
	if tr.Enabled() {
		t.Fatal("tracer enabled by default")
	}
}

func TestTraceRecordsInOrder(t *testing.T) {
	tr := NewTrace(32)
	tr.Enable(true)
	for i := 0; i < 5; i++ {
		tr.Logf("coll", "event %d", i)
	}
	evs := tr.Events()
	if len(evs) != 5 {
		t.Fatalf("events = %d", len(evs))
	}
	for i, ev := range evs {
		if ev.Msg != fmt.Sprintf("event %d", i) || ev.Layer != "coll" {
			t.Fatalf("event %d = %+v", i, ev)
		}
		if ev.Seq != uint64(i+1) {
			t.Fatalf("seq = %d", ev.Seq)
		}
	}
}

func TestTraceRingWraps(t *testing.T) {
	tr := NewTrace(16)
	tr.Enable(true)
	for i := 0; i < 40; i++ {
		tr.Logf("pml", "e%d", i)
	}
	evs := tr.Events()
	if len(evs) != 16 {
		t.Fatalf("events = %d, want ring capacity 16", len(evs))
	}
	if evs[0].Msg != "e24" || evs[15].Msg != "e39" {
		t.Fatalf("window = %q .. %q", evs[0].Msg, evs[15].Msg)
	}
}

func TestTraceReset(t *testing.T) {
	tr := NewTrace(16)
	tr.Enable(true)
	tr.Logf("x", "a")
	tr.Reset()
	if len(tr.Events()) != 0 {
		t.Fatal("events survived reset")
	}
	tr.Logf("x", "b")
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Seq != 1 {
		t.Fatalf("after reset: %+v", evs)
	}
}

func TestTraceMinimumCapacity(t *testing.T) {
	tr := NewTrace(1)
	tr.Enable(true)
	for i := 0; i < 20; i++ {
		tr.Logf("x", "e%d", i)
	}
	if len(tr.Events()) != 16 {
		t.Fatalf("minimum capacity not enforced: %d", len(tr.Events()))
	}
}

// TestTraceRingAllocatedOnFirstEnable: a tracer that is never enabled —
// every rank's, when tracing is off — costs its header, not its ring.
func TestTraceRingAllocatedOnFirstEnable(t *testing.T) {
	var tr *Trace
	if allocs := testing.AllocsPerRun(20, func() { tr = NewTrace(512) }); allocs > 1 {
		t.Fatalf("NewTrace made %v allocations, want just the tracer", allocs)
	}
	if tr.ring != nil {
		t.Fatal("ring allocated before Enable(true)")
	}
	tr.Enable(false)
	if tr.ring != nil {
		t.Fatal("ring allocated by Enable(false)")
	}
	tr.Enable(true)
	if len(tr.ring) != 512 {
		t.Fatalf("ring holds %d events after Enable(true), want 512", len(tr.ring))
	}
}
