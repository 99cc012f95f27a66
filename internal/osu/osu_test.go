package osu_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"gompi/internal/core"
	"gompi/internal/osu"
	"gompi/internal/topo"
	"gompi/mpi"
	"gompi/runtime"
)

func runJob(t *testing.T, nodes, ppn int, cfg core.Config, main func(p *mpi.Process) error) {
	t.Helper()
	err := runtime.Run(runtime.Options{
		Cluster: topo.New(topo.Loopback(ppn), nodes),
		PPN:     ppn,
		Config:  cfg,
	}, main)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMeasureWorldInit(t *testing.T) {
	runJob(t, 2, 2, core.Config{CIDMode: core.CIDConsensus}, func(p *mpi.Process) error {
		d, cleanup, err := osu.MeasureWorldInit(p)
		if err != nil {
			return err
		}
		if d <= 0 {
			return fmt.Errorf("init time = %v", d)
		}
		if !p.Initialized() {
			return fmt.Errorf("not initialized after measurement")
		}
		return cleanup()
	})
}

func TestMeasureSessionsInitBreakdown(t *testing.T) {
	runJob(t, 2, 2, core.Config{CIDMode: core.CIDExtended}, func(p *mpi.Process) error {
		b, cleanup, err := osu.MeasureSessionsInit(p, "osu.test")
		if err != nil {
			return err
		}
		if b.Total <= 0 || b.SessionInit <= 0 || b.CommCreate <= 0 {
			return fmt.Errorf("breakdown = %+v", b)
		}
		if b.SessionInit+b.GroupFromPset+b.CommCreate > b.Total+time.Millisecond {
			return fmt.Errorf("breakdown exceeds total: %+v", b)
		}
		return cleanup()
	})
}

func TestMeasureCommDup(t *testing.T) {
	runJob(t, 1, 4, core.Config{CIDMode: core.CIDExtended}, func(p *mpi.Process) error {
		sess, err := p.SessionInit(nil, nil)
		if err != nil {
			return err
		}
		grp, err := sess.GroupFromPset(mpi.PsetWorld)
		if err != nil {
			return err
		}
		comm, err := sess.CommCreateFromGroup(grp, "dup.comm", nil, nil)
		if err != nil {
			return err
		}
		d, err := osu.MeasureCommDup(comm, 3)
		if err != nil {
			return err
		}
		if d <= 0 {
			return fmt.Errorf("dup time = %v", d)
		}
		if err := comm.Free(); err != nil {
			return err
		}
		return sess.Finalize()
	})
}

func TestLatencyKernel(t *testing.T) {
	var mu sync.Mutex
	var results [][]osu.LatencyResult
	runJob(t, 1, 2, core.Config{CIDMode: core.CIDExtended}, func(p *mpi.Process) error {
		sess, err := p.SessionInit(nil, nil)
		if err != nil {
			return err
		}
		defer sess.Finalize()
		grp, err := sess.GroupFromPset(mpi.PsetWorld)
		if err != nil {
			return err
		}
		comm, err := sess.CommCreateFromGroup(grp, "lat.comm", nil, nil)
		if err != nil {
			return err
		}
		defer comm.Free()
		res, err := osu.Latency(comm, []int{1, 64, 1 << 17}, 20, 5)
		if err != nil {
			return err
		}
		if comm.Rank() == 0 {
			mu.Lock()
			results = append(results, res)
			mu.Unlock()
		}
		return nil
	})
	if len(results) != 1 {
		t.Fatalf("got %d result sets", len(results))
	}
	res := results[0]
	if len(res) != 3 {
		t.Fatalf("sizes = %d", len(res))
	}
	for _, r := range res {
		if r.Latency <= 0 {
			t.Fatalf("latency for size %d = %v", r.Size, r.Latency)
		}
	}
	// Larger messages should not be faster than tiny ones. 128 KiB is past
	// the sm eager limit (64 KiB), so it pays the rendezvous round trip; an
	// 8 KiB eager message differed from 1 B by less than the wake-up noise.
	if res[2].Latency < res[0].Latency {
		t.Fatalf("128K latency %v < 1B latency %v", res[2].Latency, res[0].Latency)
	}
}

func TestLatencyRequiresTwoRanks(t *testing.T) {
	runJob(t, 1, 4, core.Config{CIDMode: core.CIDConsensus}, func(p *mpi.Process) error {
		if err := p.Init(); err != nil {
			return err
		}
		defer p.Finalize()
		if _, err := osu.Latency(p.CommWorld(), []int{1}, 1, 0); err == nil {
			return fmt.Errorf("latency on 4 ranks should fail")
		}
		return nil
	})
}

func TestMBwMrBothSyncModes(t *testing.T) {
	for _, mode := range []osu.SyncMode{osu.SyncBarrier, osu.SyncSendrecv} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			var mu sync.Mutex
			var got []osu.BandwidthResult
			runJob(t, 1, 4, core.Config{CIDMode: core.CIDExtended}, func(p *mpi.Process) error {
				sess, err := p.SessionInit(nil, nil)
				if err != nil {
					return err
				}
				defer sess.Finalize()
				grp, err := sess.GroupFromPset(mpi.PsetWorld)
				if err != nil {
					return err
				}
				comm, err := sess.CommCreateFromGroup(grp, "mbw", nil, nil)
				if err != nil {
					return err
				}
				defer comm.Free()
				res, err := osu.MBwMr(comm, []int{1, 1024}, 8, 10, 2, mode)
				if err != nil {
					return err
				}
				if comm.Rank() == 0 {
					mu.Lock()
					got = res
					mu.Unlock()
				} else if res != nil {
					return fmt.Errorf("non-root got results")
				}
				return nil
			})
			if len(got) != 2 {
				t.Fatalf("results = %v", got)
			}
			for _, r := range got {
				if r.BandwidthBs <= 0 || r.MsgRate <= 0 {
					t.Fatalf("size %d: bw=%v rate=%v", r.Size, r.BandwidthBs, r.MsgRate)
				}
			}
			if got[1].BandwidthBs <= got[0].BandwidthBs {
				t.Fatalf("1KB bandwidth (%v) should beat 1B (%v)", got[1].BandwidthBs, got[0].BandwidthBs)
			}
		})
	}
}

func TestMBwMrOddRanksRejected(t *testing.T) {
	runJob(t, 1, 3, core.Config{CIDMode: core.CIDConsensus}, func(p *mpi.Process) error {
		if err := p.Init(); err != nil {
			return err
		}
		defer p.Finalize()
		if _, err := osu.MBwMr(p.CommWorld(), []int{1}, 2, 2, 0, osu.SyncBarrier); err == nil {
			return fmt.Errorf("odd rank count should fail")
		}
		return nil
	})
}

func TestDefaultSizes(t *testing.T) {
	sizes := osu.DefaultSizes(1 << 10)
	if len(sizes) != 11 || sizes[0] != 1 || sizes[10] != 1024 {
		t.Fatalf("sizes = %v", sizes)
	}
}
