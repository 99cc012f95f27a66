//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package bench

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"gompi/internal/hpcc"
	"gompi/internal/osu"
	"gompi/internal/topo"
	"gompi/internal/twomesh"
)

// The figure runner: every table and figure of the paper's evaluation,
// each run once inside a synctest bubble, so every modeled cost is exact
// model time and the output is identical from run to run. TestFigures
// renders them all and compares the text against the committed
// figures_output.txt (run it with GOEXPERIMENT=synctest; `make figures`).
// On drift it rewrites the file in place and fails, so `git diff` shows
// what moved.

const goldenFile = "../figures_output.txt"

// Node-count sweeps run at the paper's axis; message-size and ring sweeps
// at sizes whose real memmove and goroutine count keep the run short.
var (
	sweepNodes = []int{1, 2, 4, 8, 16, 32}
	ringNodes  = []int{1, 2, 4, 8} // 8 nodes spans two dragonfly groups
)

const (
	latMaxSize = 1 << 16
	bwMaxSize  = 1 << 14
	osuIters   = 50
	osuSkip    = 10
)

// A verdict is a figure's check against the paper's claim, printed as the
// last line of the figure and asserted by TestFigures.
type verdict struct {
	ok    bool
	claim string
}

func (v verdict) String() string {
	if v.ok {
		return "verdict: ok - " + v.claim
	}
	return "verdict: FAIL - " + v.claim
}

// A figure renders one section of the output and judges it.
type figure struct {
	name string
	run  func() (string, verdict, error)
}

var figures = []figure{
	{"Fig. 3a", fig3a},
	{"Fig. 3b", fig3b},
	{"Fig. 4", fig4},
	{"Fig. 5a", fig5a},
	{"Fig. 5b", fig5b},
	{"Fig. 5c", fig5c},
	{"Fig. 6", fig6},
	{"Fig. 7", fig7},
	{"Ablations", ablations},
}

// A section is one figure's rendered text, its verdict and its error.
type section struct {
	text string
	v    verdict
	err  error
}

// inBubble runs f once inside a synctest bubble and returns its result.
// The hand-over under a mutex orders the bubble's writes before the
// caller's reads for the race detector, which does not count
// synctest.Run's wait for the bubble as synchronization.
func inBubble[T any](f func() T) T {
	var (
		mu sync.Mutex
		r  T
	)
	synctest.Run(func() {
		v := f()
		mu.Lock()
		r = v
		mu.Unlock()
	})
	mu.Lock()
	defer mu.Unlock()
	return r
}

func TestFigures(t *testing.T) {
	var b strings.Builder
	b.WriteString(Table1())
	for _, f := range figures {
		start := time.Now()
		r := inBubble(func() section {
			text, v, err := f.run()
			return section{text, v, err}
		})
		t.Logf("%s: %v of wall time", f.name, time.Since(start).Round(time.Millisecond))
		if r.err != nil {
			t.Fatalf("%s: %v", f.name, r.err)
		}
		if !r.v.ok {
			t.Errorf("%s: %s", f.name, r.v)
		}
		fmt.Fprintf(&b, "\n%s%s\n", r.text, r.v)
	}
	got := b.String()
	want, err := os.ReadFile(goldenFile)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if got != string(want) {
		if err := os.WriteFile(goldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("figures_output.txt drifted from the committed file; rewrote it, see git diff")
	}
}

// TestDupSweepDeterministic runs one Fig. 4 point five times and requires
// identical values. A dup's cost used to depend on which goroutine won a
// tie: which of two modex fetches a daemon answered first, and which of
// several same-instant requests a PMIx server or a global link served first.
func TestDupSweepDeterministic(t *testing.T) {
	var first []DupPoint
	for i := 0; i < 5; i++ {
		type sweep struct {
			pts []DupPoint
			err error
		}
		r := inBubble(func() sweep {
			pts, err := DupSweep(topo.Jupiter(), 8, []int{4}, 5)
			return sweep{pts, err}
		})
		pts, err := r.pts, r.err
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = pts
		} else if !reflect.DeepEqual(pts, first) {
			t.Fatalf("run %d: %+v, run 0: %+v", i, pts, first)
		}
	}
}

func ratio(a, b time.Duration) float64 { return float64(a) / float64(b) }

// within reports whether x is within frac of 1.
func within(x, frac float64) bool { return math.Abs(x-1) <= frac }

func fig3a() (string, verdict, error) {
	pts, err := InitSweep(topo.Jupiter(), 1, sweepNodes)
	if err != nil {
		return "", verdict{}, err
	}
	ok := true
	for i, p := range pts {
		if p.Sessions <= p.WorldInit || i > 0 && (p.WorldInit < pts[i-1].WorldInit || p.Sessions < pts[i-1].Sessions) {
			ok = false
		}
	}
	lo, hi := initRatios(pts)
	return RenderInit(pts, "3a"), verdict{
		ok: ok,
		claim: fmt.Sprintf("at 1 ppn Sessions costs more than MPI_Init (%.3f..%.3f) and both grow with node count",
			lo, hi),
	}, nil
}

func fig3b() (string, verdict, error) {
	pts, err := InitSweep(topo.Jupiter(), 28, sweepNodes)
	if err != nil {
		return "", verdict{}, err
	}
	lo, hi := initRatios(pts)
	rising := true
	for i := 1; i < len(pts); i++ {
		if initRatio(pts[i]) < initRatio(pts[i-1]) {
			rising = false
		}
	}
	return RenderInit(pts, "3b"), verdict{
		ok: lo >= 1.1 && hi <= 1.3 && rising,
		claim: fmt.Sprintf("Sessions/MPI_Init at 28 ppn in [1.10, 1.30] and not falling with nodes: %.3f..%.3f, %s",
			lo, hi, map[bool]string{true: "not falling", false: "falls"}[rising]),
	}, nil
}

func initRatio(p InitPoint) float64 { return ratio(p.Sessions, p.WorldInit) }

func initRatios(pts []InitPoint) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, p := range pts {
		r := initRatio(p)
		lo, hi = math.Min(lo, r), math.Max(hi, r)
	}
	return lo, hi
}

func fig4() (string, verdict, error) {
	pts, err := DupSweep(topo.Jupiter(), 28, sweepNodes, 5)
	if err != nil {
		return "", verdict{}, err
	}
	// The prototype takes a fresh PGCID (a PMIx group construct) per dup;
	// the §III-B3 subfield derivation is local.
	ok := true
	for _, p := range pts {
		if p.Sessions <= p.Baseline || p.SessionsSubfield >= p.Baseline {
			ok = false
		}
	}
	return RenderDup(pts), verdict{
		ok:    ok,
		claim: "prototype Sessions dup costs more than MPI_Init's at every node count, subfield dup less",
	}, nil
}

func fig5a() (string, verdict, error) {
	pts, err := LatencySweep(topo.Jupiter(), latMaxSize, osuIters, osuSkip)
	if err != nil {
		return "", verdict{}, err
	}
	ok := true
	for _, p := range pts {
		if p.Sessions != p.Baseline {
			ok = false
		}
	}
	return RenderLatency(pts), verdict{
		ok:    ok,
		claim: "relative latency exactly 1.000 at every size (the exCID handshake is in warm-up)",
	}, nil
}

func fig5b() (string, verdict, error) {
	pts, err := MBwMrSweep(topo.Jupiter(), 2, bwMaxSize, 64, osuIters/2, osuSkip/2, osu.SyncBarrier)
	if err != nil {
		return "", verdict{}, err
	}
	lo, hi := bwRelatives(pts)
	return RenderMBwMr(pts, "5b", 2, "barrier"), verdict{
		ok:    !math.IsNaN(lo) && within(lo, 0.01) && within(hi, 0.01),
		claim: fmt.Sprintf("one pair: relative bandwidth within 1%%: %.3f..%.3f", lo, hi),
	}, nil
}

func fig5c() (string, verdict, error) {
	var b strings.Builder
	finite := true
	for _, mode := range []struct {
		fig  string
		sync osu.SyncMode
		name string
	}{
		{"5c", osu.SyncBarrier, "barrier"},
		{"5c (modified)", osu.SyncSendrecv, "sendrecv"},
	} {
		pts, err := MBwMrSweep(topo.Jupiter(), 16, bwMaxSize, 64, osuIters/2, osuSkip/2, mode.sync)
		if err != nil {
			return "", verdict{}, err
		}
		for _, p := range pts {
			for _, x := range []float64{p.BaselineBW, p.SessionsBW, p.Relative, p.BaselineRate, p.SessionsRate} {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					finite = false
				}
			}
		}
		if b.Len() > 0 {
			b.WriteString("\n")
		}
		b.WriteString(RenderMBwMr(pts, mode.fig, 16, mode.name))
	}
	return b.String(), verdict{ok: finite, claim: "8 pairs, both pre-syncs: no NaN and no Inf"}, nil
}

func bwRelatives(pts []BWPoint) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, p := range pts {
		if math.IsNaN(p.Relative) {
			return math.NaN(), math.NaN()
		}
		lo, hi = math.Min(lo, p.Relative), math.Max(hi, p.Relative)
	}
	return lo, hi
}

func fig6() (string, verdict, error) {
	cfg := hpcc.Config{Iters: 200, RandomTrials: 3, BandwidthLen: 1 << 16, Seed: 1}
	pts, err := HPCCSweep(topo.Jupiter(), 8, ringNodes, cfg)
	if err != nil {
		return "", verdict{}, err
	}
	worst := 0.0
	for _, p := range pts {
		for _, r := range []float64{ratio(p.SessionsRandom, p.BaselineRandom), ratio(p.SessionsNatural, p.BaselineNatural)} {
			worst = math.Max(worst, math.Abs(r-1))
		}
	}
	return RenderHPCC(pts), verdict{
		ok:    worst <= 0.01,
		claim: fmt.Sprintf("sessions ring latency within 1%% of MPI_Init's: worst %.2f%%", 100*worst),
	}, nil
}

func fig7() (string, verdict, error) {
	pts, err := TwoMeshSweep(topo.Trinity(), []TwoMeshConfig{
		{Problem: twomesh.P1(), Nodes: 2, PPN: 4, Threads: 4},
		{Problem: twomesh.P2(), Nodes: 2, PPN: 4, Threads: 4},
		{Problem: twomesh.P3(), Nodes: 4, PPN: 4, Threads: 4},
	})
	if err != nil {
		return "", verdict{}, err
	}
	worst := 0.0
	for _, p := range pts {
		worst = math.Max(worst, math.Abs(p.Normalized-1))
	}
	return RenderTwoMesh(pts), verdict{
		ok:    worst <= 0.01,
		claim: fmt.Sprintf("normalized 2MESH time within 1%%: worst %.3f%%", 100*worst),
	}, nil
}

func ablations() (string, verdict, error) {
	profile := topo.Jupiter()
	fm, err := AblationFirstMessage(profile, 200)
	if err != nil {
		return "", verdict{}, err
	}
	g, err := AblationGroupConstruct(profile, 2, 4, 5)
	if err != nil {
		return "", verdict{}, err
	}
	w, err := AblationWinCreate(profile, 2, 4, 3)
	if err != nil {
		return "", verdict{}, err
	}
	btl, err := AblationBTL(profile, 200, 8)
	if err != nil {
		return "", verdict{}, err
	}
	coll, err := AblationColl(profile, 2, 8, 20, 256, 4096)
	if err != nil {
		return "", verdict{}, err
	}
	text := RenderAblations(fm, g) + RenderWinAblation(w) + RenderBTLAblation(btl) + RenderCollAblation(coll)
	return text, verdict{
		ok: fm.FirstMessage > fm.SteadyState && g.InviteJoin < g.Collective &&
			w.Direct < w.Intermediate && btl.SM == btl.Net,
		claim: "the exCID first message costs its larger header over steady state, invite/join less than a " +
			"collective construct, the direct window constructor less than the intermediate comm, and sm " +
			"the same modeled intra-node cost as net",
	}, nil
}
