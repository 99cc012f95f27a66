package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the bench binary when the
// startup-proc workload re-executes "itself" as a rank child.
func TestMain(m *testing.M) {
	if os.Getenv(envNoop) != "" {
		os.Exit(0)
	}
	if os.Getenv(envRank) != "" {
		os.Exit(childMain())
	}
	os.Exit(m.Run())
}

func smokeBudget() time.Duration {
	if testing.Short() {
		return 150 * time.Millisecond
	}
	return 600 * time.Millisecond
}

// TestSmokeWorkloads runs every workload end to end with a budget of
// milliseconds: every metric must come out, nothing may fail, and the
// process must get its goroutines and descriptors back.
func TestSmokeWorkloads(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			base := takeBaseline()
			r, err := runWorkload(config{workload: m.name, seed: 42, seconds: smokeBudget().Seconds()}, smokeBudget())
			if err != nil {
				t.Fatal(err)
			}
			rep := r.report(nil)
			if !rep.Correct || rep.FailedOps != 0 {
				t.Fatalf("failed_ops=%d: %v", rep.FailedOps, rep.Failures)
			}
			for _, def := range e2eMetrics {
				if mr := rep.Metrics[def.name]; mr.N == 0 || mr.Median <= 0 {
					t.Errorf("%s: n=%d median=%v", def.name, mr.N, mr.Median)
				}
			}
			if rep.Ops < 100 {
				t.Errorf("only %d operations attempted", rep.Ops)
			}
			if err := base.check(); err != nil {
				t.Error(err)
			}
			var out bytes.Buffer
			rep.printResultLine(&out)
			var line struct {
				Metrics map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal(out.Bytes(), &line); err != nil || len(line.Metrics) != len(e2eMetrics) {
				t.Errorf("result line has %d metrics (err %v), want %d", len(line.Metrics), err, len(e2eMetrics))
			}
		})
	}
}

// TestSmokeTraced runs the traced variant of one workload: every per-layer
// metric must be present and the trace-event file must load, with parent
// links.
func TestSmokeTraced(t *testing.T) {
	m, _ := modeByName("startup-proc") // the one workload that also needs the job-cycle probe
	layers, err := runProbes(smokeBudget(), m)
	if err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	cfg := config{workload: m.name, seed: 7, seconds: smokeBudget().Seconds(), trace: true, traceOut: tracePath}
	r, err := runWorkload(cfg, smokeBudget())
	if err != nil {
		t.Fatal(err)
	}
	rep := r.report(layers)
	if !rep.Correct {
		t.Fatalf("traced run failed: %v", rep.Failures)
	}
	for _, name := range layerMetricNames() {
		if _, ok := rep.Layers[name]; !ok {
			t.Errorf("per-layer metric %s missing", name)
		}
	}
	if rep.Layers["btl.udp.drops"] != 0 {
		t.Errorf("btl.udp.drops = %v", rep.Layers["btl.udp.drops"])
	}
	if err := writeChromeTrace(tracePath, r.l.spans); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Dur  float64
			Args struct{ ID, Parent uint64 }
		}
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("trace file does not load: %v", err)
	}
	ids, linked := map[uint64]bool{}, 0
	for _, e := range file.TraceEvents {
		ids[e.Args.ID] = true
	}
	for _, e := range file.TraceEvents {
		if e.Args.Parent != 0 && ids[e.Args.Parent] {
			linked++
		}
	}
	if len(file.TraceEvents) == 0 || linked == 0 {
		t.Fatalf("%d events, %d with a parent in the file", len(file.TraceEvents), linked)
	}
}

// TestWrongExpectationFails flips one expected value: the run must count a
// failed operation and report itself incorrect.
func TestWrongExpectationFails(t *testing.T) {
	good := twomeshResidual[4]
	twomeshResidual[4] = good + 1
	defer func() { twomeshResidual[4] = good }()
	r, err := runWorkload(config{workload: "data-sim", seed: 1, seconds: 0.05}, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rep := r.report(nil); rep.Correct || rep.FailedOps == 0 {
		t.Fatalf("a wrong residual went unnoticed: correct=%v failed_ops=%d", rep.Correct, rep.FailedOps)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {99, 0}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}, {100000, 99.99}, {5000000, 99.99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got := percentile(v, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v", got)
	}
	if got := median(v); got != 50.5 {
		t.Errorf("median of 1..100 = %v", got)
	}
}

func TestBatchSizing(t *testing.T) {
	for _, c := range []struct {
		perOpNs float64
		want    int
	}{{0, 1}, {1000, 200}, {900, 223}, {200e3, 1}, {5e6, 1}, {0.001, maxBatch}} {
		if got := batchSize(c.perOpNs); got != c.want {
			t.Errorf("batchSize(%v) = %d, want %d", c.perOpNs, got, c.want)
		}
	}
	if got := batchCount(100*time.Millisecond, 200, 1000); got != 500 {
		t.Errorf("batchCount = %d, want 500", got)
	}
	if got := batchCount(time.Microsecond, 200, 1000); got != 1 {
		t.Errorf("a slice shorter than one batch must still run one, got %d", got)
	}
	// measure sizes its batches to last minBatch and returns per-op means.
	s, err := measure(5*time.Millisecond, func(n int) (time.Duration, error) {
		return time.Duration(n) * time.Microsecond, nil
	})
	if err != nil || len(s) < 3 {
		t.Fatalf("measure: %d samples, err %v", len(s), err)
	}
	if median(s) != 1000 {
		t.Errorf("per-op sample = %v ns, want 1000", median(s))
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := quartileSpread(v); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if got := quartileSpread([]float64{1, 2}); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread of two values = %v, want 1", got)
	}
	if quartileSpread([]float64{5}) != 0 {
		t.Error("one value has no spread")
	}
}

func TestInputsFollowSeed(t *testing.T) {
	a, b := genInputs(7, len(longKernels), rounds), genInputs(7, len(longKernels), rounds)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different inputs")
	}
	c := genInputs(8, len(longKernels), rounds)
	if bytes.Equal(a.Ping, c.Ping) || reflect.DeepEqual(a.Reduce, c.Reduce) {
		t.Fatal("different seeds, same payloads")
	}
	if len(a.Orders) != rounds || len(a.Orders[0]) != len(longKernels) {
		t.Fatalf("orders: %d rounds of %d", len(a.Orders), len(a.Orders[0]))
	}
	send, want := a.reduceOperand(3, 4, 2)
	if len(send) != 16 || binary.LittleEndian.Uint64(want) != uint64(4*a.Reduce[0]+6) {
		t.Errorf("reduce operand: %d bytes, expected sum %d", len(send), binary.LittleEndian.Uint64(want))
	}
	if blk := a.gatherBlock(2); blk[0] != a.Gather[0]^2 {
		t.Error("gather block does not encode its rank")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "parent", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "b", ID: 3, Parent: 1, Start: 20, End: 50},    // overlaps a: ranks in parallel
		{Name: "c", ID: 4, Parent: 1, Start: 60, End: 70},    //
		{Name: "d", ID: 5, Parent: 1, Start: 95, End: 120},   // runs past the parent: clipped
		{Name: "leaf", ID: 6, Parent: 3, Start: 25, End: 45}, // grandchild counts against b only
	}
	self := selfTimes(spans)
	// covered: [10,50) + [60,70) + [95,100) = 55
	if self[1] != 45 {
		t.Errorf("parent self time = %d, want 45", self[1])
	}
	if self[2] != 20 || self[3] != 10 || self[6] != 20 {
		t.Errorf("child self times = %d, %d, %d; want 20, 10, 20", self[2], self[3], self[6])
	}
	sum := summarize(spans)
	if sum[0].Name != "parent" || sum[0].SelfNs != 45 || sum[0].TotalNs != 100 {
		t.Errorf("summary starts with %+v", sum[0])
	}
	var tr *tracer
	tr.end(tr.begin("off", 0)) // a nil tracer records nothing and must not panic
	if tr.id(-1) != 0 {
		t.Error("nil tracer handed out a span id")
	}
}

func TestJudge(t *testing.T) {
	for _, c := range []struct {
		a, b, spa, spb float64
		higher         bool
		want           string
	}{
		{100, 105, 0.02, 0.02, false, verdictSame},
		{100, 130, 0.02, 0.02, false, verdictWorse},
		{100, 70, 0.02, 0.02, false, verdictBetter},
		{100, 70, 0.02, 0.02, true, verdictWorse},
		{100, 130, 0.02, 0.02, true, verdictBetter},
		{100, 130, 0.30, 0.02, false, verdictUnresolved},
		{100, 101, 0.02, 0.30, false, verdictUnresolved},
	} {
		if got := judge(c.a, c.b, c.spa, c.spb, 0.10, c.higher); got != c.want {
			t.Errorf("judge(%v, %v, spreads %v/%v, higher=%v) = %q, want %q", c.a, c.b, c.spa, c.spb, c.higher, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, reps ...report) string {
		path := filepath.Join(dir, name)
		for i := range reps {
			if err := reps[i].appendTo(path); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	rec := func(lat float64, rounds []float64, allocs float64, traced bool) report {
		return report{
			Workload: "data-sim", Traced: traced,
			Metrics: map[string]metricReport{"latency_8B_us": {Unit: "us", Median: lat, RoundMedians: rounds}},
			Layers:  map[string]float64{"pml.allocs_per_eager_msg": allocs},
		}
	}
	bounds := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bounds, []byte(`{"end_to_end":[{"name":"latency_8B_us","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	steady := []float64{1.0, 1.01, 0.99, 1.0, 1.0}
	base := write("a.json", rec(1.0, steady, 3.002, false), rec(1.0, steady, 3.002, true))

	var out bytes.Buffer
	same := write("same.json", rec(1.03, steady, 3.001, false), rec(1.03, steady, 3.001, true))
	if code := compareMain(base, same, bounds, &out); code != 0 || !strings.Contains(out.String(), verdictSame) || !strings.Contains(out.String(), "same count") {
		t.Errorf("equal runs: exit %d\n%s", code, out.String())
	}
	out.Reset()
	slow := write("slow.json", rec(1.3, steady, 4, false), rec(1.3, steady, 4, true))
	if code := compareMain(base, slow, bounds, &out); code != 1 || !strings.Contains(out.String(), verdictWorse) || !strings.Contains(out.String(), "COUNT GREW") {
		t.Errorf("slower run with more allocations: exit %d\n%s", code, out.String())
	}
	out.Reset()
	noisy := write("noisy.json", rec(1.3, []float64{0.8, 1.0, 1.3, 1.6, 1.9}, 3, false))
	if code := compareMain(base, noisy, bounds, &out); code != 0 || !strings.Contains(out.String(), verdictUnresolved) {
		t.Errorf("noisy run: exit %d\n%s", code, out.String())
	}
	if code := compareMain(base, filepath.Join(dir, "missing.json"), bounds, &out); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}

// TestBenchmarkFile holds BENCHMARK.json at the repository root to the
// harness: same workloads, same metrics, same units and directions.
func TestBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json two directories up:", err)
	}
	var bf struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(modes) {
		t.Fatalf("%d workloads listed, harness has %d", len(bf.Workloads), len(modes))
	}
	for i, w := range bf.Workloads {
		if w.Name != modes[i].name {
			t.Errorf("workload %d is %q, harness has %q", i, w.Name, modes[i].name)
		}
	}
	if len(bf.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("%d end-to-end metrics listed, harness has %d", len(bf.EndToEnd), len(e2eMetrics))
	}
	for i, m := range bf.EndToEnd {
		def := e2eMetrics[i]
		if m.Name != def.name || m.Unit != def.unit || (m.Better == "higher") != def.higherBetter {
			t.Errorf("end-to-end metric %d: file has %+v, harness has %+v", i, m, def)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	names := layerMetricNames()
	if len(bf.PerLayer) != len(names) {
		t.Fatalf("%d per-layer metrics listed, harness has %d", len(bf.PerLayer), len(names))
	}
	for i, m := range bf.PerLayer {
		if m.Name != names[i] || m.Unit != layerUnit(names[i]) {
			t.Errorf("per-layer metric %d: file has %s [%s], harness has %s [%s]", i, m.Name, m.Unit, names[i], layerUnit(names[i]))
		}
	}
}
