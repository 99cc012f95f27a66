package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed call the harness made into a layer. Start and End are
// nanoseconds since the harness epoch (shared with rank children through
// the plan), so spans from several processes line up on one time axis.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Job    int    `json:"job"`  // which launched job the span belongs to
	Rank   int    `json:"rank"` // -1 for the harness process itself
	N      int    `json:"n,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanIDs hands out process-unique span identifiers; rank children add
// their own prefix so identifiers stay unique across the job.
var spanIDs atomic.Uint64

// tracer collects the spans of one goroutine (a rank, or the harness
// itself). A nil tracer records nothing, which is how tracing is turned
// off: the calls stay in place and cost one nil check.
type tracer struct {
	epoch  time.Time
	prefix uint64
	job    int
	rank   int
	spans  []span
}

func newTracer(epoch time.Time, prefix uint64, job, rank int) *tracer {
	return &tracer{epoch: epoch, prefix: prefix, job: job, rank: rank}
}

// begin opens a span under parent and returns its index, or -1 when
// tracing is off.
func (t *tracer) begin(name string, parent uint64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		Name:   name,
		Start:  int64(time.Since(t.epoch)),
		ID:     t.prefix | spanIDs.Add(1),
		Parent: parent,
		Job:    t.job,
		Rank:   t.rank,
	})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch))
}

// id returns the identifier of an open or closed span (0 when off), for
// use as the parent of spans recorded elsewhere.
func (t *tracer) id(i int) uint64 {
	if t == nil || i < 0 {
		return 0
	}
	return t.spans[i].ID
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its direct children cover (overlapping children — ranks
// running in parallel under one Launch — are merged before subtracting).
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, hi := int64(0), s.Start
		for _, k := range kids {
			lo, end := k.Start, k.End
			if lo < hi {
				lo = hi
			}
			if end > s.End {
				end = s.End
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// spanSummary aggregates spans by name.
type spanSummary struct {
	Name    string
	Count   int
	TotalNs int64
	SelfNs  int64
}

func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	byName := make(map[string]*spanSummary)
	for _, s := range spans {
		e := byName[s.Name]
		if e == nil {
			e = &spanSummary{Name: s.Name}
			byName[s.Name] = e
		}
		e.Count++
		e.TotalNs += s.dur()
		e.SelfNs += self[s.ID]
	}
	out := make([]spanSummary, 0, len(byName))
	for _, e := range byName {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfNs > out[j].SelfNs })
	return out
}

// writeChromeTrace writes the spans as a Chrome trace-event file (the JSON
// array-of-events form Perfetto and chrome://tracing load): one complete
// ("X") event per span, pid = job, tid = rank, with the span and parent
// identifiers in args so the parent links survive the format.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		if s.N > 0 {
			args["ops"] = s.N
		}
		events = append(events, event{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Pid: s.Job, Tid: s.Rank + 1, Args: args,
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
