package bench

import (
	"fmt"
	"strings"
	"time"

	"gompi/internal/topo"
)

// Table1 renders the simulated analogue of the paper's Table I: the
// hardware/software profiles of the two evaluation systems.
func Table1() string {
	var b strings.Builder
	t, j := topo.Trinity(), topo.Jupiter()
	fmt.Fprintf(&b, "TABLE I: Hardware and software used for this study (simulated profiles).\n")
	fmt.Fprintf(&b, "%-22s %-28s %-28s\n", "", "Trinity", "Jupiter")
	row := func(k, a, c string) { fmt.Fprintf(&b, "%-22s %-28s %-28s\n", k, a, c) }
	row("Model", t.Model, j.Model)
	row("Cores/node", fmt.Sprintf("%d", t.CoresPerNode), fmt.Sprintf("%d", j.CoresPerNode))
	row("Network", "Aries-like simnet", "Aries-like simnet")
	row("Inter-node latency", t.InterNodeLatency.String(), j.InterNodeLatency.String())
	row("Intra-node latency", t.IntraNodeLatency.String(), j.IntraNodeLatency.String())
	row("Inter-node BW", fmt.Sprintf("%.0f GB/s", t.InterNodeBandwidth/1e9), fmt.Sprintf("%.0f GB/s", j.InterNodeBandwidth/1e9))
	row("Intra-node BW", fmt.Sprintf("%.0f GB/s", t.IntraNodeBandwidth/1e9), fmt.Sprintf("%.0f GB/s", j.IntraNodeBandwidth/1e9))
	row("PMIx RPC overhead", t.RPCOverhead.String(), j.RPCOverhead.String())
	row("Component load", t.ComponentLoadCost.String(), j.ComponentLoadCost.String())
	return b.String()
}

func us(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1e3) }

// RenderInit formats Fig. 3 data.
func RenderInit(points []InitPoint, fig string) string {
	var b strings.Builder
	if len(points) == 0 {
		return ""
	}
	fmt.Fprintf(&b, "Fig. %s: MPI initialization time, %d process(es) per node (us)\n", fig, points[0].PPN)
	fmt.Fprintf(&b, "%-6s %12s %12s %10s | %12s %12s %12s\n",
		"nodes", "MPI_Init", "Sessions", "ratio", "sess_init", "group_pset", "comm_create")
	for _, p := range points {
		ratio := 0.0
		if p.WorldInit > 0 {
			ratio = float64(p.Sessions) / float64(p.WorldInit)
		}
		fmt.Fprintf(&b, "%-6d %12s %12s %9.2fx | %12s %12s %12s\n",
			p.Nodes, us(p.WorldInit), us(p.Sessions), ratio,
			us(p.SessionInit), us(p.GroupFromPset), us(p.CommCreate))
	}
	return b.String()
}

// RenderDup formats Fig. 4 data (plus the subfield ablation column).
func RenderDup(points []DupPoint) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig. 4: MPI_Comm_dup time per iteration (us)")
	fmt.Fprintf(&b, "%-6s %14s %14s %10s %18s\n", "nodes", "MPI_Init", "Sessions", "ratio", "Sessions+subfield")
	for _, p := range points {
		ratio := 0.0
		if p.Baseline > 0 {
			ratio = float64(p.Sessions) / float64(p.Baseline)
		}
		fmt.Fprintf(&b, "%-6d %14s %14s %9.2fx %18s\n",
			p.Nodes, us(p.Baseline), us(p.Sessions), ratio, us(p.SessionsSubfield))
	}
	return b.String()
}

// RenderLatency formats Fig. 5a data.
func RenderLatency(points []LatencyPoint) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig. 5a: osu_latency, 2 processes, single node")
	fmt.Fprintf(&b, "%-10s %12s %12s %10s\n", "size(B)", "init(us)", "sessions(us)", "relative")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10d %12s %12s %10.3f\n", p.Size, us(p.Baseline), us(p.Sessions), p.Relative)
	}
	return b.String()
}

// RenderMBwMr formats Fig. 5b/5c data.
func RenderMBwMr(points []BWPoint, fig string, procs int, sync string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. %s: osu_mbw_mr, %d processes, %s pre-sync\n", fig, procs, sync)
	fmt.Fprintf(&b, "%-10s %14s %14s %10s %14s %14s\n",
		"size(B)", "init(MB/s)", "sess(MB/s)", "relative", "init(msg/s)", "sess(msg/s)")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10d %14.1f %14.1f %10.3f %14.0f %14.0f\n",
			p.Size, p.BaselineBW/1e6, p.SessionsBW/1e6, p.Relative, p.BaselineRate, p.SessionsRate)
	}
	return b.String()
}

// RenderHPCC formats Fig. 6a/6b data.
func RenderHPCC(points []RingPoint) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig. 6: HPCC 8-byte ring latencies (us)")
	fmt.Fprintf(&b, "%-6s | %12s %12s | %12s %12s\n",
		"nodes", "rand/init", "rand/sess", "nat/init", "nat/sess")
	for _, p := range points {
		fmt.Fprintf(&b, "%-6d | %12s %12s | %12s %12s\n",
			p.Nodes, us(p.BaselineRandom), us(p.SessionsRandom),
			us(p.BaselineNatural), us(p.SessionsNatural))
	}
	return b.String()
}

// RenderTwoMesh formats Fig. 7 data.
func RenderTwoMesh(points []TwoMeshPoint) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig. 7: normalized 2MESH execution times")
	fmt.Fprintf(&b, "%-8s %6s %14s %14s %12s\n", "problem", "np", "baseline(ms)", "sessions(ms)", "normalized")
	for _, p := range points {
		fmt.Fprintf(&b, "%-8s %6d %14.2f %14.2f %12.4f\n",
			p.Problem, p.NP, float64(p.Baseline.Microseconds())/1e3,
			float64(p.Sessions.Microseconds())/1e3, p.Normalized)
	}
	return b.String()
}

// RenderAblations formats the DESIGN.md §5 ablation results.
func RenderAblations(fm FirstMessageResult, q QuiesceResult, g GroupConstructResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Ablations (DESIGN.md §5)")
	fmt.Fprintf(&b, "exCID first message:   %s us (handshake)  vs steady state %s us  [%d ext msgs]\n",
		us(fm.FirstMessage), us(fm.SteadyState), fm.ExtMessages)
	fmt.Fprintf(&b, "QUO quiesce barrier:   native %s us  vs sessions Ibarrier+park %s us\n",
		us(q.Native), us(q.Sessions))
	fmt.Fprintf(&b, "PMIx group construct:  collective %s us  vs async invite/join %s us\n",
		us(g.Collective), us(g.InviteJoin))
	return b.String()
}

// RenderBTLAblation formats the sm-vs-net intra-node transport comparison.
func RenderBTLAblation(r BTLResult) string {
	speedup := 0.0
	if r.SM > 0 {
		speedup = float64(r.Net) / float64(r.SM)
	}
	return fmt.Sprintf("BTL intra-node %dB:    sm fast path %s us  vs net path %s us  (%.2fx)\n",
		r.Size, us(r.SM), us(r.Net), speedup)
}

// RenderCollAblation formats the flat-vs-hierarchical collective
// comparison.
func RenderCollAblation(r CollAblationResult) string {
	speed := func(flat, hier time.Duration) float64 {
		if hier <= 0 {
			return 0
		}
		return float64(flat) / float64(hier)
	}
	return fmt.Sprintf("coll allreduce %dB:    flat %s us  vs hier %s us  (%.2fx)  [%dx%d ranks]\n"+
		"coll bcast %dB:        flat %s us  vs hier %s us  (%.2fx)  [%dx%d ranks]\n",
		r.AllreduceBytes, us(r.FlatAllreduce), us(r.HierAllreduce),
		speed(r.FlatAllreduce, r.HierAllreduce), r.Nodes, r.PPN,
		r.BcastBytes, us(r.FlatBcast), us(r.HierBcast),
		speed(r.FlatBcast, r.HierBcast), r.Nodes, r.PPN)
}

// RenderWinAblation formats the window-construction comparison.
func RenderWinAblation(w WinCreateResult) string {
	return fmt.Sprintf("window from group:     intermediate comm %s us  vs direct constructor %s us\n",
		us(w.Intermediate), us(w.Direct))
}
