package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metricReport is one end-to-end metric of one run.
type metricReport struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	// Tail is the percentile furthest into the bad tail that still has at
	// least ten samples beyond it — p99 of a latency, p1 of a rate — or 0
	// when the sample supports none. TailValue is its value.
	Tail      float64 `json:"tail_percentile"`
	TailValue float64 `json:"tail_value"`
	N         int     `json:"n"`
	// RoundMedians are the medians of the individual rounds; their spread
	// is what -compare holds against the bound.
	RoundMedians []float64 `json:"round_medians"`
	HigherBetter bool      `json:"higher_better,omitempty"`
}

// report is the full record of one run, the unit -compare works on.
type report struct {
	Workload   string                  `json:"workload"`
	Seed       uint64                  `json:"seed"`
	Seconds    float64                 `json:"seconds"`
	Traced     bool                    `json:"traced"`
	NProc      int                     `json:"nproc"`
	GOMAXPROCS int                     `json:"gomaxprocs"`
	GoVersion  string                  `json:"go_version"`
	GitSHA     string                  `json:"git_sha"`
	Ops        int                     `json:"ops"`
	FailedOps  int                     `json:"failed_ops"`
	Failures   []string                `json:"failures,omitempty"`
	Correct    bool                    `json:"correct"`
	Metrics    map[string]metricReport `json:"metrics"`
	Layers     map[string]float64      `json:"layers,omitempty"`
	Claim      *string                 `json:"claim"` // always null: this harness claims no gain
}

func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func roundMedians(rounds [][]float64) []float64 {
	var out []float64
	for _, r := range rounds {
		if len(r) > 0 {
			out = append(out, median(r))
		}
	}
	return out
}

func summarizeMetric(def metricDef, rounds [][]float64) metricReport {
	all := flatten(rounds)
	mr := metricReport{
		Unit: def.unit, Median: median(all), N: len(all),
		RoundMedians: roundMedians(rounds), HigherBetter: def.higherBetter,
	}
	if p := tailPercentile(len(all)); p > 0 {
		if def.higherBetter {
			p = 100 - p
		}
		mr.Tail, mr.TailValue = p, percentile(all, p)
	}
	return mr
}

// report folds the run into its record. layers are the probe results of a
// traced run; the span-derived layer metrics and the tracing overheads are
// added here.
func (r *run) report(layers map[string]float64) *report {
	rep := &report{
		Workload: r.cfg.workload, Seed: r.cfg.seed, Seconds: r.cfg.seconds, Traced: r.cfg.trace,
		NProc: goruntime.NumCPU(), GOMAXPROCS: goruntime.GOMAXPROCS(0),
		GoVersion: goruntime.Version(), GitSHA: gitSHA(),
		Ops: r.ops, FailedOps: r.failed, Failures: r.failures,
		Metrics: map[string]metricReport{},
	}
	complete := true
	for _, def := range e2eMetrics {
		mr := summarizeMetric(def, r.series(def.name).plain)
		rep.Metrics[def.name] = mr
		if mr.N == 0 || mr.Median <= 0 {
			complete = false
		}
	}
	if !complete && r.failed == 0 {
		r.fail("report", fmt.Errorf("a metric has no samples"))
		rep.FailedOps, rep.Failures = r.failed, r.failures
	}
	rep.Correct = r.failed == 0
	if r.cfg.trace {
		rep.Layers = layers
		r.spanLayers(rep)
		for _, def := range e2eMetrics {
			plain, traced := rep.Metrics[def.name].Median, median(flatten(r.series(def.name).traced))
			if plain > 0 && traced > 0 {
				cost := traced / plain
				if def.higherBetter {
					cost = plain / traced
				}
				rep.Layers["trace.overhead_pct."+def.name] = (cost - 1) * 100
			}
		}
	}
	return rep
}

// Span names behind the span-derived layer metrics.
var spanLayerNames = map[string]string{
	"mpi.session_init_us":           "mpi.SessionInit",
	"mpi.group_from_pset_us":        "mpi.GroupFromPset",
	"mpi.comm_create_from_group_us": "mpi.CommCreateFromGroup",
	"mpi.comm_free_us":              "mpi.CommFree",
	"mpi.session_finalize_us":       "mpi.SessionFinalize",
	"mpi.world_finalize_us":         "mpi.WorldFinalize",
	"runtime.new_job_us":            "runtime.NewJob",
	"runtime.launch_us":             "runtime.Launch",
	"runtime.shutdown_us":           "runtime.Shutdown",
}

// spanLayers derives the layer metrics that come from spans of the
// workload's own start-up cycles. Each is the median over jobs of the span
// on the job's critical rank — the rank whose initialisation sequence was
// slowest, the one sessions_init_us reports — so the parts add up to the
// end-to-end number they explain.
func (r *run) spanLayers(rep *report) {
	type key struct{ job, rank int }
	byRank := map[key]map[string]int64{}
	kinds := map[int]string{}
	for _, s := range r.l.spans {
		if strings.HasPrefix(s.Name, "job.") {
			kinds[s.Job] = strings.TrimPrefix(s.Name, "job.")
		}
		k := key{s.Job, s.Rank}
		if byRank[k] == nil {
			byRank[k] = map[string]int64{}
		}
		byRank[k][s.Name] += s.dur()
	}
	initOf := func(m map[string]int64) int64 {
		return m["mpi.SessionInit"] + m["mpi.GroupFromPset"] + m["mpi.CommCreateFromGroup"] + m["mpi.Init"]
	}
	critical := map[int]key{}
	for k, m := range byRank {
		if kinds[k.job] == kindLong || k.rank < 0 {
			continue
		}
		if c, ok := critical[k.job]; !ok || initOf(m) > initOf(byRank[c]) {
			critical[k.job] = k
		}
	}
	samples := map[string][]float64{}
	for job, c := range critical {
		for name, d := range byRank[c] {
			samples[name] = append(samples[name], float64(d)/1e3)
		}
		// job_cycle_ms is the Sessions cycle, so only its jobs explain it.
		for name, d := range byRank[key{job, -1}] {
			if kinds[job] == kindSessions {
				samples[name] = append(samples[name], float64(d)/1e3)
			}
		}
	}
	for metric, spanName := range spanLayerNames {
		if s := samples[spanName]; len(s) > 0 {
			rep.Layers[metric] = median(s)
		}
	}
	if lat, ok := rep.Metrics["latency_8B_us"]; ok {
		rep.Layers["mpi.sendrecv_overhead_ns"] = lat.Median*1e3 - rep.Layers["pml.eager_pingpong_ns"]
	}
}

func (rep *report) print(w io.Writer, r *run) {
	fmt.Fprintf(w, "gompi bench  workload=%s  seed=%d  seconds=%g  traced=%v\n", rep.Workload, rep.Seed, rep.Seconds, rep.Traced)
	fmt.Fprintf(w, "  %s\n", r.m.why)
	fmt.Fprintf(w, "  closed loop from one harness process; %d ranks; fabric profile loopback (no injected delay)\n", r.m.np())
	if r.m.btl == "udp" {
		fmt.Fprintln(w, "  udp traffic crossed the host's loopback interface, not a link")
	}
	fmt.Fprintf(w, "  nproc=%d GOMAXPROCS=%d %s git=%s\n\n", rep.NProc, rep.GOMAXPROCS, rep.GoVersion, rep.GitSHA)

	fmt.Fprintf(w, "%-28s %-6s %14s %8s %14s %7s\n", "end-to-end metric", "unit", "median", "tail", "tail value", "n")
	for _, def := range e2eMetrics {
		m := rep.Metrics[def.name]
		tail, tv := "-", "-"
		if m.Tail > 0 {
			tail, tv = fmt.Sprintf("p%g", m.Tail), fmt.Sprintf("%.4f", m.TailValue)
		}
		fmt.Fprintf(w, "%-28s %-6s %14.4f %8s %14s %7d\n", def.name, m.Unit, m.Median, tail, tv, m.N)
	}
	fmt.Fprintf(w, "\nops=%d failed_ops=%d\n", rep.Ops, rep.FailedOps)
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "  failed: %s\n", f)
	}
	if !rep.Traced {
		return
	}

	fmt.Fprintf(w, "\n%-44s %14s\n", "per-layer metric", "value")
	for _, name := range layerMetricNames() {
		if v, ok := rep.Layers[name]; ok {
			fmt.Fprintf(w, "%-44s %14.4f\n", name, v)
		} else {
			fmt.Fprintf(w, "%-44s %14s\n", name, "missing")
		}
	}

	fmt.Fprintln(w, "\nlayer sums against the end-to-end number they explain")
	sum := func(names ...string) float64 {
		var t float64
		for _, n := range names {
			t += rep.Layers[n]
		}
		return t
	}
	initSum := sum("mpi.session_init_us", "mpi.group_from_pset_us", "mpi.comm_create_from_group_us")
	fmt.Fprintf(w, "  mpi.session_init + group_from_pset + comm_create_from_group = %.1f us  vs sessions_init_us %.1f (traced rounds: %.1f)\n",
		initSum, rep.Metrics["sessions_init_us"].Median, median(flatten(r.series("sessions_init_us").traced)))
	if !r.m.proc {
		fmt.Fprintf(w, "  runtime.new_job + launch + shutdown = %.3f ms  vs job_cycle_ms %.3f (traced rounds: %.3f)\n",
			sum("runtime.new_job_us", "runtime.launch_us", "runtime.shutdown_us")/1e3,
			rep.Metrics["job_cycle_ms"].Median, median(flatten(r.series("job_cycle_ms").traced)))
	}

	fmt.Fprintf(w, "\n%-34s %8s %14s %14s\n", "span", "count", "total ms", "self ms")
	for _, s := range summarize(r.l.spans) {
		fmt.Fprintf(w, "%-34s %8d %14.3f %14.3f\n", s.Name, s.Count, float64(s.TotalNs)/1e6, float64(s.SelfNs)/1e6)
	}
	fmt.Fprintf(w, "\ntrace-event file: %s (open in https://ui.perfetto.dev)\n", r.cfg.traceOut)
}

// printResultLine prints the one-line result the benchmark gate reads:
// every end-to-end metric of an untraced run, every per-layer metric of a
// traced one.
func (rep *report) printResultLine(w io.Writer) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: rep.Correct, Attempted: rep.Ops, Failed: rep.FailedOps, Metrics: map[string]value{}}
	if rep.Traced {
		for _, name := range layerMetricNames() {
			out.Metrics[name] = value{rep.Layers[name], layerUnit(name)}
		}
	} else {
		for _, def := range e2eMetrics {
			out.Metrics[def.name] = value{rep.Metrics[def.name].Median, def.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", b)
}

func (rep *report) appendTo(path string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetricNames lists every per-layer metric in print order.
func layerMetricNames() []string {
	names := make([]string, 0, len(layerUnits)+len(e2eMetrics))
	for n := range layerUnits {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, def := range e2eMetrics {
		names = append(names, "trace.overhead_pct."+def.name)
	}
	return names
}

func layerUnit(name string) string {
	if u, ok := layerUnits[name]; ok {
		return u
	}
	return "%"
}
