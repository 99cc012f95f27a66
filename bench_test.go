package gompi_test

// One testing.B benchmark per table and figure of the paper's evaluation
// (§IV), all driven by the generators in the bench package. Benchmarks run
// at reduced scale so `go test -bench=.` completes quickly; cmd/figures
// regenerates the full paper-scale sweeps.

import (
	"testing"
	"time"

	"gompi/bench"
	"gompi/internal/hpcc"
	"gompi/internal/osu"
	"gompi/internal/topo"
	"gompi/internal/twomesh"
)

var benchNodes = []int{1, 2, 4}

// BenchmarkTable1Profiles renders Table I (the simulated system profiles).
func BenchmarkTable1Profiles(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(bench.Table1()) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig3aInit1PPN: MPI startup, 1 process per node (Fig. 3a).
func BenchmarkFig3aInit1PPN(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := bench.InitSweep(topo.Jupiter(), 1, benchNodes)
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-1]
		b.ReportMetric(float64(last.WorldInit.Microseconds()), "init-us")
		b.ReportMetric(float64(last.Sessions.Microseconds()), "sessions-us")
	}
}

// BenchmarkFig3bInit28PPN: MPI startup, 28 processes per node (Fig. 3b).
func BenchmarkFig3bInit28PPN(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := bench.InitSweep(topo.Jupiter(), 28, benchNodes[:2])
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-1]
		b.ReportMetric(float64(last.WorldInit.Microseconds()), "init-us")
		b.ReportMetric(float64(last.Sessions.Microseconds()), "sessions-us")
		b.ReportMetric(float64(last.SessionInit)/float64(last.Sessions), "sessinit-frac")
	}
}

// BenchmarkFig4CommDup: per-iteration MPI_Comm_dup time (Fig. 4).
func BenchmarkFig4CommDup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := bench.DupSweep(topo.Jupiter(), 8, benchNodes, 5)
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-1]
		b.ReportMetric(float64(last.Baseline.Microseconds()), "init-dup-us")
		b.ReportMetric(float64(last.Sessions.Microseconds()), "sessions-dup-us")
		b.ReportMetric(float64(last.SessionsSubfield.Microseconds()), "subfield-dup-us")
	}
}

// BenchmarkFig5aLatency: relative osu_latency (Fig. 5a).
func BenchmarkFig5aLatency(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := bench.LatencySweep(topo.Jupiter(), 1<<16, 50, 10)
		if err != nil {
			b.Fatal(err)
		}
		var rel float64
		for _, p := range pts {
			rel += p.Relative
		}
		b.ReportMetric(rel/float64(len(pts)), "mean-relative")
	}
}

// BenchmarkFig5bMBWMR2Procs: relative bandwidth/message rate, one pair
// (Fig. 5b).
func BenchmarkFig5bMBWMR2Procs(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := bench.MBwMrSweep(topo.Jupiter(), 2, 1<<14, 32, 20, 5, osu.SyncBarrier)
		if err != nil {
			b.Fatal(err)
		}
		var rel float64
		for _, p := range pts {
			rel += p.Relative
		}
		b.ReportMetric(rel/float64(len(pts)), "mean-relative")
	}
}

// BenchmarkFig5cMBWMR16Procs: relative bandwidth/message rate, 8 pairs,
// stock barrier pre-sync (Fig. 5c).
func BenchmarkFig5cMBWMR16Procs(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := bench.MBwMrSweep(topo.Jupiter(), 16, 1<<13, 32, 15, 3, osu.SyncBarrier)
		if err != nil {
			b.Fatal(err)
		}
		var rel float64
		for _, p := range pts {
			rel += p.Relative
		}
		b.ReportMetric(rel/float64(len(pts)), "mean-relative")
	}
}

// BenchmarkFig5cSendrecvSync: the paper's fix — pairwise Sendrecv pre-sync
// makes the two builds essentially identical (§IV-C3).
func BenchmarkFig5cSendrecvSync(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := bench.MBwMrSweep(topo.Jupiter(), 16, 1<<13, 32, 15, 3, osu.SyncSendrecv)
		if err != nil {
			b.Fatal(err)
		}
		var rel float64
		for _, p := range pts {
			rel += p.Relative
		}
		b.ReportMetric(rel/float64(len(pts)), "mean-relative")
	}
}

// BenchmarkFig6HPCCRings: 8-byte random/natural ring latencies (Fig. 6a/6b).
func BenchmarkFig6HPCCRings(b *testing.B) {
	b.ReportAllocs()
	cfg := hpcc.Config{Iters: 300, RandomTrials: 3, BandwidthLen: 1 << 16, Seed: 1}
	for i := 0; i < b.N; i++ {
		pts, err := bench.HPCCSweep(topo.Jupiter(), 8, benchNodes, cfg)
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-1]
		b.ReportMetric(float64(last.BaselineRandom.Nanoseconds())/1e3, "rand-init-us")
		b.ReportMetric(float64(last.SessionsRandom.Nanoseconds())/1e3, "rand-sess-us")
	}
}

// BenchmarkFig7TwoMesh: normalized 2MESH execution times (Fig. 7).
// Problem configurations are scaled so per-phase compute dominates, as in
// the paper's minutes-long production runs; cmd/figures -full runs the
// paper-scale process counts.
func BenchmarkFig7TwoMesh(b *testing.B) {
	b.ReportAllocs()
	scale := func(p twomesh.Problem) twomesh.Problem {
		p.L0Steps *= 2
		p.L1Steps *= 2
		return p
	}
	configs := []bench.TwoMeshConfig{
		{Problem: scale(twomesh.P1()), Nodes: 2, PPN: 4, Threads: 4},
		{Problem: scale(twomesh.P2()), Nodes: 2, PPN: 4, Threads: 4},
		{Problem: scale(twomesh.P3()), Nodes: 4, PPN: 4, Threads: 4},
	}
	for i := 0; i < b.N; i++ {
		pts, err := bench.TwoMeshSweep(topo.Trinity(), configs)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			b.ReportMetric(p.Normalized, "norm-"+p.Problem)
		}
	}
}

// BenchmarkAblationFirstMessage: exCID handshake cost vs steady state.
func BenchmarkAblationFirstMessage(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bench.AblationFirstMessage(topo.Jupiter(), 100)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.FirstMessage.Nanoseconds())/1e3, "first-us")
		b.ReportMetric(float64(res.SteadyState.Nanoseconds())/1e3, "steady-us")
	}
}

// BenchmarkAblationBTL: intra-node small-message latency over the
// shared-memory fast path vs the same exchange forced onto the fabric
// transport (BTL "^sm").
func BenchmarkAblationBTL(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bench.AblationBTL(topo.Jupiter(), 50, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.SM.Nanoseconds())/1e3, "sm-us")
		b.ReportMetric(float64(res.Net.Nanoseconds())/1e3, "net-us")
	}
}

// BenchmarkAblationColl: flat (tuned-only) vs hierarchical allreduce and
// bcast on two fully-subscribed-enough Jupiter nodes (8 ranks/node). The
// hierarchical component should win by replacing the per-round inter-node
// exchanges of the flat schedules with one leader exchange per node.
func BenchmarkAblationColl(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bench.AblationColl(topo.Jupiter(), 2, 8, 20, 256, 4096)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.FlatAllreduce.Nanoseconds())/1e3, "flat-allreduce-us")
		b.ReportMetric(float64(res.HierAllreduce.Nanoseconds())/1e3, "hier-allreduce-us")
		b.ReportMetric(float64(res.FlatBcast.Nanoseconds())/1e3, "flat-bcast-us")
		b.ReportMetric(float64(res.HierBcast.Nanoseconds())/1e3, "hier-bcast-us")
	}
}

// BenchmarkAblationQuiesce: QUO native barrier vs sessions Ibarrier
// test-and-park.
func BenchmarkAblationQuiesce(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bench.AblationQuiesce(topo.Trinity(), 8, 20, 50*time.Microsecond)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Native.Nanoseconds())/1e3, "native-us")
		b.ReportMetric(float64(res.Sessions.Nanoseconds())/1e3, "sessions-us")
	}
}

// BenchmarkAblationWinCreate: window-from-group via intermediate
// communicator (the prototype's path) vs the direct constructor the paper
// lists as future work.
func BenchmarkAblationWinCreate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bench.AblationWinCreate(topo.Jupiter(), 2, 4, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Intermediate.Nanoseconds())/1e3, "intermediate-us")
		b.ReportMetric(float64(res.Direct.Nanoseconds())/1e3, "direct-us")
	}
}

// BenchmarkAblationGroupConstruct: collective vs invite/join construction.
func BenchmarkAblationGroupConstruct(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bench.AblationGroupConstruct(topo.Jupiter(), 2, 4, 5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Collective.Nanoseconds())/1e3, "collective-us")
		b.ReportMetric(float64(res.InviteJoin.Nanoseconds())/1e3, "invitejoin-us")
	}
}
