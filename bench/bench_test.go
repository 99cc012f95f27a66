package bench

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"gompi/internal/hpcc"
	"gompi/internal/osu"
	"gompi/internal/topo"
	"gompi/internal/twomesh"
	"gompi/mpi"
	"gompi/runtime"
)

// The sweep generators are exercised on the zero-latency loopback profile:
// fast plumbing checks. The modeled figures themselves come from
// TestFigures (figures_test.go), in model time.

func lb() topo.Profile { return topo.Loopback(8) }

func TestInitSweepSmoke(t *testing.T) {
	pts, err := InitSweep(lb(), 2, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.WorldInit <= 0 || p.Sessions <= 0 {
			t.Fatalf("empty timings: %+v", p)
		}
	}
	// An InitPoint's components are job-wide maxima, each possibly from a
	// different rank, so their sum may exceed the largest total. A rank's
	// own components are disjoint slices of its own total.
	err = runtime.Run(jobOpts(lb(), 2, 2, excidCfg()), func(p *mpi.Process) error {
		b, cleanup, err := osu.MeasureSessionsInit(p, "smoke")
		if err != nil {
			return err
		}
		if b.SessionInit+b.GroupFromPset+b.CommCreate > b.Total+time.Millisecond {
			return fmt.Errorf("rank %d: breakdown exceeds total: %+v", p.JobRank(), b)
		}
		return cleanup()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDupSweepSmoke(t *testing.T) {
	pts, err := DupSweep(lb(), 2, []int{1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Baseline <= 0 || p.Sessions <= 0 || p.SessionsSubfield <= 0 {
			t.Fatalf("empty timings: %+v", p)
		}
	}
}

func TestLatencySweepSmoke(t *testing.T) {
	pts, err := LatencySweep(lb(), 64, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 7 { // 1..64
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Baseline <= 0 || p.Sessions <= 0 || p.Relative <= 0 {
			t.Fatalf("empty point: %+v", p)
		}
	}
}

func TestMBwMrSweepSmoke(t *testing.T) {
	pts, err := MBwMrSweep(lb(), 4, 64, 4, 5, 1, osu.SyncSendrecv)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.BaselineBW <= 0 || p.SessionsBW <= 0 {
			t.Fatalf("empty point: %+v", p)
		}
	}
}

func TestHPCCSweepSmoke(t *testing.T) {
	cfg := hpcc.Config{Iters: 10, RandomTrials: 1, BandwidthLen: 1 << 10, Seed: 1}
	pts, err := HPCCSweep(lb(), 2, []int{1, 2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.BaselineNatural <= 0 || p.SessionsNatural <= 0 || p.BaselineRandom <= 0 || p.SessionsRandom <= 0 {
			t.Fatalf("empty point: %+v", p)
		}
	}
}

func TestTwoMeshSweepSmoke(t *testing.T) {
	pts, err := TwoMeshSweep(lb(), []TwoMeshConfig{
		{Problem: twomesh.Tiny(), Nodes: 1, PPN: 4, Threads: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Normalized <= 0 {
		t.Fatalf("points = %+v", pts)
	}
}

func TestAblationsSmoke(t *testing.T) {
	fm, err := AblationFirstMessage(lb(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if fm.ExtMessages == 0 {
		t.Fatal("no extended messages counted on an exCID comm")
	}
	q, err := AblationQuiesce(lb(), 4, 3, 20*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if q.Native <= 0 || q.Sessions <= 0 {
		t.Fatalf("quiesce = %+v", q)
	}
	g, err := AblationGroupConstruct(lb(), 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.Collective <= 0 || g.InviteJoin <= 0 {
		t.Fatalf("group construct = %+v", g)
	}
	w, err := AblationWinCreate(lb(), 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if w.Intermediate <= 0 || w.Direct <= 0 {
		t.Fatalf("win create = %+v", w)
	}
	btl, err := AblationBTL(lb(), 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if btl.SM <= 0 || btl.Net <= 0 {
		t.Fatalf("btl = %+v", btl)
	}
	coll, err := AblationColl(lb(), 2, 2, 2, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	if coll.FlatAllreduce <= 0 || coll.HierAllreduce <= 0 || coll.FlatBcast <= 0 || coll.HierBcast <= 0 {
		t.Fatalf("coll = %+v", coll)
	}
	// Rendering glue.
	out := RenderAblations(fm, g)
	if !strings.Contains(out, "exCID first message") {
		t.Fatalf("render = %q", out)
	}
	if !strings.Contains(RenderWinAblation(w), "window from group") {
		t.Fatal("win ablation render missing")
	}
	if !strings.Contains(RenderBTLAblation(btl), "BTL intra-node 8B") {
		t.Fatal("btl ablation render missing")
	}
	if !strings.Contains(RenderCollAblation(coll), "coll allreduce 128B") {
		t.Fatal("coll ablation render missing")
	}
}

func TestRenderers(t *testing.T) {
	if !strings.Contains(Table1(), "Trinity") {
		t.Fatal("Table1 missing Trinity")
	}
	init := RenderInit([]InitPoint{{Nodes: 1, PPN: 2, WorldInit: time.Millisecond, Sessions: 1200 * time.Microsecond}}, "3a")
	if !strings.Contains(init, "1.20x") {
		t.Fatalf("RenderInit = %q", init)
	}
	dup := RenderDup([]DupPoint{{Nodes: 2, Baseline: time.Microsecond, Sessions: 3 * time.Microsecond, SessionsSubfield: time.Microsecond}})
	if !strings.Contains(dup, "3.00x") {
		t.Fatalf("RenderDup = %q", dup)
	}
	lat := RenderLatency([]LatencyPoint{{Size: 8, Baseline: time.Microsecond, Sessions: time.Microsecond, Relative: 1}})
	if !strings.Contains(lat, "1.000") {
		t.Fatalf("RenderLatency = %q", lat)
	}
	bw := RenderMBwMr([]BWPoint{{Size: 8, BaselineBW: 1e6, SessionsBW: 1e6, Relative: 1}}, "5b", 2, "barrier")
	if !strings.Contains(bw, "osu_mbw_mr") {
		t.Fatalf("RenderMBwMr = %q", bw)
	}
	ring := RenderHPCC([]RingPoint{{Nodes: 1}})
	if !strings.Contains(ring, "HPCC") {
		t.Fatalf("RenderHPCC = %q", ring)
	}
	tm := RenderTwoMesh([]TwoMeshPoint{{Problem: "P1", NP: 16, Baseline: time.Second, Sessions: time.Second, Normalized: 1}})
	if !strings.Contains(tm, "P1") {
		t.Fatalf("RenderTwoMesh = %q", tm)
	}
}

// BenchmarkAblationQuiesce: QUO native barrier vs sessions Ibarrier
// test-and-park. The difference is implementation cost (parking, polling,
// wake-ups), which model time cannot see, so this stays a wall-clock
// benchmark on the Loopback profile, where no modeled cost is charged.
func BenchmarkAblationQuiesce(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := AblationQuiesce(topo.Loopback(8), 8, 20, 50*time.Microsecond)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Native.Nanoseconds())/1e3, "native-us")
		b.ReportMetric(float64(res.Sessions.Nanoseconds())/1e3, "sessions-us")
	}
}
