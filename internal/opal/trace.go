package opal

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Trace is a lightweight fixed-size ring buffer for middleware diagnostics,
// the analogue of Open MPI's per-framework verbosity streams. It is cheap
// enough to leave compiled in: a disabled tracer is one atomic load, and it
// holds no ring until it is first enabled. Callers on hot paths check
// Enabled before they build Logf's arguments, since boxing them into
// ...any allocates whether or not the event is recorded.
type Trace struct {
	enabled atomic.Bool
	mu      sync.Mutex
	size    int
	ring    []TraceEvent // allocated by the first Enable(true)
	next    int
	wrapped bool
	seq     uint64
}

// TraceEvent is one recorded diagnostic event.
type TraceEvent struct {
	Seq   uint64
	When  time.Time
	Layer string // e.g. "pml", "pmix", "coll"
	Msg   string
}

// NewTrace builds a tracer with the given capacity (minimum 16).
func NewTrace(capacity int) *Trace {
	if capacity < 16 {
		capacity = 16
	}
	return &Trace{size: capacity}
}

// Enable turns event recording on or off. Events logged while disabled are
// dropped.
func (t *Trace) Enable(on bool) {
	t.mu.Lock()
	if on && t.ring == nil {
		t.ring = make([]TraceEvent, t.size)
	}
	t.enabled.Store(on)
	t.mu.Unlock()
}

// Enabled reports whether recording is on. It takes no lock, and a nil
// tracer reports false.
func (t *Trace) Enabled() bool {
	return t != nil && t.enabled.Load()
}

// Logf records one event if tracing is enabled.
func (t *Trace) Logf(layer, format string, args ...any) {
	if !t.enabled.Load() {
		return
	}
	t.mu.Lock()
	if t.ring == nil {
		t.mu.Unlock()
		return
	}
	t.seq++
	t.ring[t.next] = TraceEvent{
		Seq:   t.seq,
		When:  time.Now(),
		Layer: layer,
		Msg:   fmt.Sprintf(format, args...),
	}
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.wrapped = true
	}
	t.mu.Unlock()
}

// Events returns the recorded events in order, oldest first.
func (t *Trace) Events() []TraceEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []TraceEvent
	if t.wrapped {
		out = append(out, t.ring[t.next:]...)
	}
	out = append(out, t.ring[:t.next]...)
	// Filter zero entries (unwrapped, partially filled ring).
	filtered := out[:0]
	for _, ev := range out {
		if ev.Seq != 0 {
			filtered = append(filtered, ev)
		}
	}
	cp := make([]TraceEvent, len(filtered))
	copy(cp, filtered)
	return cp
}

// Reset clears the buffer.
func (t *Trace) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.ring {
		t.ring[i] = TraceEvent{}
	}
	t.next = 0
	t.wrapped = false
	t.seq = 0
}
