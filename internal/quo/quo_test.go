package quo_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"gompi/internal/core"
	"gompi/internal/quo"
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

func TestCreateBaseline(t *testing.T) {
	runJob(t, 2, 3, core.Config{CIDMode: core.CIDConsensus}, func(p *mpi.Process) error {
		if err := p.Init(); err != nil {
			return err
		}
		defer p.Finalize()
		ctx, err := quo.Create(p, p.CommWorld())
		if err != nil {
			return err
		}
		if ctx.Mode() != quo.BarrierNative {
			return fmt.Errorf("baseline mode = %v", ctx.Mode())
		}
		if ctx.Size() != 6 {
			return fmt.Errorf("size = %d", ctx.Size())
		}
		if ctx.NumQids() != 3 {
			return fmt.Errorf("nqids = %d, want 3 per node", ctx.NumQids())
		}
		// Exactly one selected process per node under one-per-node policy.
		sel := int64(0)
		if ctx.Selected(quo.PolicyOnePerNode) {
			sel = 1
		}
		total, err := ctx.Comm().AllreduceInt64(sel, mpi.OpSum)
		if err != nil {
			return err
		}
		if total != 2 {
			return fmt.Errorf("selected = %d, want 2 (one per node)", total)
		}
		if !ctx.Selected(quo.PolicyAll) {
			return fmt.Errorf("PolicyAll must select everyone")
		}
		if err := ctx.Barrier(); err != nil {
			return err
		}
		return ctx.Free()
	})
}

func TestCreateWithSession(t *testing.T) {
	runJob(t, 2, 2, core.Config{CIDMode: core.CIDExtended}, func(p *mpi.Process) error {
		if err := p.Init(); err != nil {
			return err
		}
		defer p.Finalize()
		ctx, err := quo.CreateWithSession(p)
		if err != nil {
			return err
		}
		if ctx.Mode() != quo.BarrierSessionsIbarrier {
			return fmt.Errorf("mode = %v", ctx.Mode())
		}
		ctx.SetPollInterval(20 * time.Microsecond)
		for i := 0; i < 3; i++ {
			if err := ctx.Barrier(); err != nil {
				return err
			}
		}
		barriers, _ := ctx.Stats()
		if barriers != 3 {
			return fmt.Errorf("barriers = %d", barriers)
		}
		return ctx.Free()
	})
}

func TestSessionsBarrierQuiescesStragglers(t *testing.T) {
	var polls atomic.Int64
	runJob(t, 1, 4, core.Config{CIDMode: core.CIDExtended}, func(p *mpi.Process) error {
		if err := p.Init(); err != nil {
			return err
		}
		defer p.Finalize()
		ctx, err := quo.CreateWithSession(p)
		if err != nil {
			return err
		}
		ctx.SetPollInterval(50 * time.Microsecond)
		if ctx.ID() == 0 {
			time.Sleep(10 * time.Millisecond) // the "thread team" works
		}
		if err := ctx.Barrier(); err != nil {
			return err
		}
		_, pl := ctx.Stats()
		polls.Add(int64(pl))
		return ctx.Free()
	})
	if polls.Load() == 0 {
		t.Fatal("no Ibarrier polls recorded; quiesce loop did not engage")
	}
}

// stragglerPolls runs one sessions barrier on a 4-rank node whose leader
// arrives 20 ms late, with the given poll interval, and returns each rank's
// poll count. A job still running after 10 s fails the test.
func stragglerPolls(t *testing.T, poll time.Duration) []int {
	t.Helper()
	polls := make([]int, 4)
	done := make(chan error, 1)
	go func() {
		done <- runtime.Run(runtime.Options{
			Cluster: topo.New(topo.Loopback(4), 1),
			PPN:     4,
			Config:  core.Config{CIDMode: core.CIDExtended},
		}, func(p *mpi.Process) error {
			if err := p.Init(); err != nil {
				return err
			}
			defer p.Finalize()
			ctx, err := quo.CreateWithSession(p)
			if err != nil {
				return err
			}
			ctx.SetPollInterval(poll)
			if ctx.ID() == 0 {
				time.Sleep(20 * time.Millisecond)
			}
			if err := ctx.Barrier(); err != nil {
				return err
			}
			_, polls[ctx.ID()] = ctx.Stats()
			return ctx.Free()
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("poll interval %v: sessions barrier still parked after 10 s", poll)
	}
	return polls
}

// A parked rank wakes when the barrier completes, not when the poll
// interval runs out: with an hour between tests, every rank still leaves
// right after the straggler arrives, having parked at most once.
func TestSessionsBarrierWakesOnCompletion(t *testing.T) {
	for id, n := range stragglerPolls(t, time.Hour) {
		if n > 1 {
			t.Errorf("rank %d: %d polls with an hour's interval, want at most 1", id, n)
		}
	}
}

// A non-positive interval means "no periodic wake", not a busy spin on Test.
func TestSessionsBarrierZeroIntervalParks(t *testing.T) {
	for id, n := range stragglerPolls(t, 0) {
		if n > 1 {
			t.Errorf("rank %d: %d polls with a zero interval, want at most 1", id, n)
		}
	}
}

func TestBindStack(t *testing.T) {
	runJob(t, 1, 1, core.Config{CIDMode: core.CIDExtended}, func(p *mpi.Process) error {
		if err := p.Init(); err != nil {
			return err
		}
		defer p.Finalize()
		ctx, err := quo.CreateWithSession(p)
		if err != nil {
			return err
		}
		defer ctx.Free()
		if err := ctx.BindPop(); err == nil {
			return fmt.Errorf("pop on empty stack should fail")
		}
		ctx.BindPush("QUO_BIND_PUSH_OBJ:SOCKET")
		ctx.BindPush("QUO_BIND_PUSH_OBJ:CORE")
		if ctx.BindDepth() != 2 {
			return fmt.Errorf("depth = %d", ctx.BindDepth())
		}
		if err := ctx.BindPop(); err != nil {
			return err
		}
		if ctx.BindDepth() != 1 {
			return fmt.Errorf("depth after pop = %d", ctx.BindDepth())
		}
		return nil
	})
}

func TestDoubleFreeFails(t *testing.T) {
	runJob(t, 1, 1, core.Config{CIDMode: core.CIDExtended}, func(p *mpi.Process) error {
		if err := p.Init(); err != nil {
			return err
		}
		defer p.Finalize()
		ctx, err := quo.CreateWithSession(p)
		if err != nil {
			return err
		}
		if err := ctx.Free(); err != nil {
			return err
		}
		if err := ctx.Free(); err == nil {
			return fmt.Errorf("double free should fail")
		}
		return nil
	})
}
