package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json that -compare reads: the
// bound each end-to-end metric may worsen by.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBounds(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// side is one file's view of one workload: every record of it, pooled.
type side struct {
	medians map[string][]float64 // per metric, one per record
	rounds  map[string][]float64 // per metric, every record's round medians
	layers  map[string]float64   // per-layer metrics of the last traced record
}

// spread is the side's own noise on one metric: with three or more records
// the quartile spread of their medians (the rule the benchmark gate applies
// to repeated runs), with fewer the spread of the rounds inside them.
func (s *side) spread(metric string) float64 {
	if len(s.medians[metric]) >= 3 {
		return quartileSpread(s.medians[metric])
	}
	return quartileSpread(s.rounds[metric])
}

func readRecords(path string) (map[string]*side, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]*side{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var rep report
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		s := out[rep.Workload]
		if s == nil {
			s = &side{medians: map[string][]float64{}, rounds: map[string][]float64{}}
			out[rep.Workload] = s
		}
		if rep.Traced {
			// A traced record's end-to-end numbers come from half the
			// samples; only its layer metrics are used.
			s.layers = rep.Layers
			continue
		}
		for name, m := range rep.Metrics {
			s.medians[name] = append(s.medians[name], m.Median)
			s.rounds[name] = append(s.rounds[name], m.RoundMedians...)
		}
	}
	return out, sc.Err()
}

// Verdicts of one workload x metric comparison.
const (
	verdictSame       = "within bound"
	verdictBetter     = "improved"
	verdictWorse      = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// judge compares b against the base a. When either side's own spread
// exceeds the bound, a difference of that size cannot
// be told from noise and the verdict is unresolved.
func judge(a, b, spreadA, spreadB, bound float64, higherBetter bool) string {
	worse := (b - a) / a // how much worse b is, as a share of a
	if higherBetter {
		worse = (a - b) / a
	}
	switch {
	case spreadA > bound || spreadB > bound:
		return verdictUnresolved
	case worse > bound:
		return verdictWorse
	case worse < -bound:
		return verdictBetter
	}
	return verdictSame
}

// isCount says whether a per-layer metric is a count made by the program
// (allocations, drops): those repeat exactly and are compared exactly.
func isCount(name string) bool { return layerUnit(name) == "count" }

// compareMain prints, per workload and metric, b's value as a ratio of a's
// with the base, and the verdict against the bound in BENCHMARK.json. It
// returns 1 when any metric regressed or any count grew.
func compareMain(pathA, pathB, boundsPath string, w io.Writer) int {
	bounds, err := readBounds(boundsPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -compare takes each metric's bound from BENCHMARK.json:", err)
		return 2
	}
	a, err := readRecords(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readRecords(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return compareSides(a, b, bounds, pathA, w)
}

func compareSides(a, b map[string]*side, bounds map[string]float64, baseName string, w io.Writer) int {
	status := 0
	var workloads []string
	for name := range a {
		if b[name] != nil {
			workloads = append(workloads, name)
		}
	}
	sort.Strings(workloads)
	if len(workloads) == 0 {
		fmt.Fprintln(os.Stderr, "bench: the two files share no workload")
		return 2
	}
	for _, wl := range workloads {
		sa, sb := a[wl], b[wl]
		fmt.Fprintf(w, "workload %s (base: %s)\n", wl, baseName)
		fmt.Fprintf(w, "  %-28s %-6s %14s %14s %8s %8s %8s %7s  %s\n", "metric", "unit", "base", "new", "new/base", "spread a", "spread b", "bound", "verdict")
		for _, def := range e2eMetrics {
			ma, mb := sa.medians[def.name], sb.medians[def.name]
			if len(ma) == 0 || len(mb) == 0 {
				continue
			}
			va, vb := median(ma), median(mb)
			spa, spb := sa.spread(def.name), sb.spread(def.name)
			verdict := judge(va, vb, spa, spb, bounds[def.name], def.higherBetter)
			if verdict == verdictWorse {
				status = 1
			}
			fmt.Fprintf(w, "  %-28s %-6s %14.4f %14.4f %8.3f %7.1f%% %7.1f%% %6.0f%%  %s\n",
				def.name, def.unit, va, vb, vb/va, 100*spa, 100*spb, 100*bounds[def.name], verdict)
		}
		if sa.layers == nil || sb.layers == nil {
			continue
		}
		for _, name := range layerMetricNames() {
			if !isCount(name) {
				continue
			}
			// Stray runtime allocations add a few per thousand operations;
			// beyond that a count either repeats or the code changed.
			ca, cb := math.Round(100*sa.layers[name])/100, math.Round(100*sb.layers[name])/100
			verdict := "same count"
			if cb > ca {
				verdict, status = "COUNT GREW", 1
			} else if cb < ca {
				verdict = "count fell"
			}
			fmt.Fprintf(w, "  %-28s %-6s %14.2f %14.2f %45s\n", name, "count", ca, cb, verdict)
		}
	}
	return status
}
