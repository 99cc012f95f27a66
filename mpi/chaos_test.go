package mpi_test

import (
	"errors"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gompi/internal/core"
	"gompi/internal/simnet"
	"gompi/internal/topo"
	"gompi/mpi"
	"gompi/runtime"
)

// TestChaosPeerDeathMidCollective: a rank dies while the others sit inside
// Allreduce. The survivors must come back with MPI_ERR_PROC_FAILED — routed
// through the communicator's error handler — rather than hanging, and the
// poisoned communicator must keep failing fast on later collectives.
func TestChaosPeerDeathMidCollective(t *testing.T) {
	job, err := runtime.NewJob(runtime.Options{
		Cluster: topo.New(topo.Loopback(2), 2),
		PPN:     2,
		Config:  core.Config{CIDMode: core.CIDExtended},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Shutdown()

	var unblocked sync.WaitGroup
	unblocked.Add(3)
	err = job.Launch(func(p *mpi.Process) error {
		sess, err := p.SessionInit(nil, mpi.ErrorsReturn())
		if err != nil {
			return err
		}
		grp, err := sess.GroupFromPset(mpi.PsetWorld)
		if err != nil {
			return err
		}
		var handled atomic.Int32
		errh := mpi.ErrhandlerCreate("capture", func(error) { handled.Add(1) })
		comm, err := sess.CommCreateFromGroup(grp, "chaos", nil, errh)
		if err != nil {
			return err
		}
		if p.JobRank() == 3 {
			// Give the survivors time to block inside the collective, then
			// crash without any cleanup — a dying process doesn't Free or
			// Finalize, and doing so would read as a clean disconnect.
			time.Sleep(30 * time.Millisecond)
			panic("rank 3 dies mid-collective")
		}
		defer unblocked.Done()
		defer func() {
			_ = comm.Free()
			_ = sess.Finalize()
		}()

		_, err = comm.AllreduceInt64(int64(p.JobRank()), mpi.OpSum)
		if err == nil {
			return fmt.Errorf("rank %d: allreduce over a dead peer succeeded", p.JobRank())
		}
		if cls := mpi.ErrorClassOf(err); cls != mpi.ErrClassProcFailed {
			return fmt.Errorf("rank %d: allreduce class = %v (%v), want MPI_ERR_PROC_FAILED", p.JobRank(), cls, err)
		}
		// The next collective must not hang either: the channel stays
		// poisoned for as long as the dead rank is a member.
		if err := comm.Barrier(); mpi.ErrorClassOf(err) != mpi.ErrClassProcFailed {
			return fmt.Errorf("rank %d: barrier after failure = %v, want MPI_ERR_PROC_FAILED", p.JobRank(), err)
		}
		if handled.Load() < 2 {
			return fmt.Errorf("rank %d: errhandler invoked %d times, want >=2", p.JobRank(), handled.Load())
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected the injected rank death to be reported by Launch")
	}
	unblocked.Wait()
}

// TestChaosAllreduceUnderDataFaults: end-to-end correctness with the fabric
// duplicating, reordering and delaying data-plane packets — including the
// very first messages on each exCID channel, whose handshake is the fragile
// part. Results must stay exact; the PML's sequence screening should show it
// actually absorbed injected duplicates.
func TestChaosAllreduceUnderDataFaults(t *testing.T) {
	job, err := runtime.NewJob(runtime.Options{
		Cluster: topo.New(topo.Loopback(2), 2),
		PPN:     2,
		Config:  core.Config{CIDMode: core.CIDExtended},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Shutdown()

	// Installed before launch so even startup traffic runs through it. No
	// Drop here: the data plane recovers duplicated/reordered/late packets,
	// but a dropped eager payload is a genuine loss.
	job.Fabric().SetFaultPlan(&simnet.FaultPlan{
		Seed:    1234,
		Classes: simnet.FaultData,
		Dup:     0.2,
		Reorder: 0.15, ReorderBy: time.Millisecond,
		Delay: 0.2, DelayBy: 200 * time.Microsecond,
	})
	defer job.Fabric().SetFaultPlan(nil)

	const rounds = 10
	var screened atomic.Uint64
	err = job.Launch(func(p *mpi.Process) error {
		if err := p.Init(); err != nil {
			return err
		}
		defer p.Finalize()
		world := p.CommWorld()
		np := int64(world.Size())
		for round := 1; round <= rounds; round++ {
			got, err := world.AllreduceInt64(int64(world.Rank()+1)*int64(round), mpi.OpSum)
			if err != nil {
				return fmt.Errorf("rank %d round %d: %w", world.Rank(), round, err)
			}
			want := np * (np + 1) / 2 * int64(round)
			if got != want {
				return fmt.Errorf("rank %d round %d: allreduce = %d, want %d", world.Rank(), round, got, want)
			}
			if err := world.Barrier(); err != nil {
				return fmt.Errorf("rank %d round %d barrier: %w", world.Rank(), round, err)
			}
		}
		s := p.PMLStatsSnapshot()
		screened.Add(s.DupsDropped + s.ReorderStashed)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := job.Fabric().FaultStats(); s.Duplicated == 0 {
		t.Fatalf("fault plan never injected a duplicate: %+v", s)
	}
	if screened.Load() == 0 {
		t.Fatal("no rank screened a duplicated or reordered packet")
	}
}

// TestChaosSurvivorRebuildAfterDeath: the recovery tentpole at the mpi
// layer. A rank dies mid-collective; the survivors observe
// MPI_ERR_PROC_FAILED, resolve the dynamic gompi://alive pset — which
// already reflects the death, because the notification that completed their
// collective also updated the local terminated set — and rebuild a working
// communicator over the survivor group in normal collective time, not
// retry-budget time.
func TestChaosSurvivorRebuildAfterDeath(t *testing.T) {
	job, err := runtime.NewJob(runtime.Options{
		Cluster: topo.New(topo.Loopback(2), 2),
		PPN:     2,
		Config:  core.Config{CIDMode: core.CIDExtended},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Shutdown()

	var unblocked sync.WaitGroup
	unblocked.Add(3)
	err = job.Launch(func(p *mpi.Process) error {
		sess, err := p.SessionInit(nil, mpi.ErrorsReturn())
		if err != nil {
			return err
		}
		grp, err := sess.GroupFromPset(mpi.PsetWorld)
		if err != nil {
			return err
		}
		comm, err := sess.CommCreateFromGroup(grp, "pre-fault", nil, mpi.ErrorsReturn())
		if err != nil {
			return err
		}
		if p.JobRank() == 3 {
			time.Sleep(30 * time.Millisecond)
			panic("rank 3 dies mid-collective")
		}
		defer unblocked.Done()
		defer func() { _ = sess.Finalize() }()

		_, err = comm.AllreduceInt64(int64(p.JobRank()), mpi.OpSum)
		if cls := mpi.ErrorClassOf(err); cls != mpi.ErrClassProcFailed {
			return fmt.Errorf("rank %d: allreduce = %v (class %v), want MPI_ERR_PROC_FAILED", p.JobRank(), err, cls)
		}
		if err := comm.Free(); err != nil {
			return fmt.Errorf("rank %d: free poisoned comm: %v", p.JobRank(), err)
		}

		if !sess.PsetIsDynamic(mpi.PsetAlive) || sess.PsetIsDynamic(mpi.PsetWorld) {
			return fmt.Errorf("rank %d: PsetIsDynamic misclassifies", p.JobRank())
		}
		info, err := sess.PsetInfo(mpi.PsetAlive)
		if err != nil {
			return err
		}
		if v, _ := info.Get("mpi_size"); v != "3" {
			return fmt.Errorf("rank %d: alive mpi_size = %q, want 3", p.JobRank(), v)
		}
		if v, _ := info.Get("mpi_num_failed"); v != "1" {
			return fmt.Errorf("rank %d: mpi_num_failed = %q, want 1", p.JobRank(), v)
		}

		sg, err := sess.SurvivorGroup(mpi.PsetAlive)
		if err != nil {
			return err
		}
		if sg.Size() != 3 {
			return fmt.Errorf("rank %d: survivor group size %d, want 3", p.JobRank(), sg.Size())
		}
		start := time.Now()
		comm2, err := sess.CommCreateFromGroup(sg, "rebuild", nil, mpi.ErrorsReturn())
		if err != nil {
			return fmt.Errorf("rank %d: rebuild over survivors: %v", p.JobRank(), err)
		}
		if d := time.Since(start); d > 5*time.Second {
			return fmt.Errorf("rank %d: survivor construct took %v — retry-budget stall", p.JobRank(), d)
		}
		defer func() { _ = comm2.Free() }()
		sum, err := comm2.AllreduceInt64(int64(p.JobRank()), mpi.OpSum)
		if err != nil {
			return fmt.Errorf("rank %d: allreduce on rebuilt comm: %v", p.JobRank(), err)
		}
		if sum != 3 { // 0+1+2
			return fmt.Errorf("rank %d: rebuilt allreduce = %d, want 3", p.JobRank(), sum)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected the injected rank death to be reported by Launch")
	}
	unblocked.Wait()
}

// TestChaosStaleSurvivorGroupFailsFast: regression for the one-shot
// SurvivorGroup snapshot race. A group snapshot taken before a death must be
// rejected by CommCreateFromGroup immediately — classified
// MPI_ERR_PROC_FAILED — instead of burning the construct's full retry
// budget timing out against the dead member. Also the zero-survivor case:
// SurvivorGroup over a pset whose members are all dead returns a classified
// process-failure error, not a bare one.
func TestChaosStaleSurvivorGroupFailsFast(t *testing.T) {
	job, err := runtime.NewJob(runtime.Options{
		Cluster: topo.New(topo.Loopback(2), 2),
		PPN:     2,
		Config:  core.Config{CIDMode: core.CIDExtended},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Shutdown()

	var unblocked sync.WaitGroup
	unblocked.Add(2)
	err = job.Launch(func(p *mpi.Process) error {
		sess, err := p.SessionInit(nil, mpi.ErrorsReturn())
		if err != nil {
			return err
		}
		world, err := sess.GroupFromPset(mpi.PsetWorld)
		if err != nil {
			return err
		}
		syncComm, err := sess.CommCreateFromGroup(world, "stale-sync", nil, mpi.ErrorsReturn())
		if err != nil {
			return err
		}

		// Ranks 2 and 3 register the pset that will lose every member.
		if p.JobRank() >= 2 {
			doomed, err := world.Incl([]int{2, 3})
			if err != nil {
				return err
			}
			if err := sess.CreatePset("doomed", doomed); err != nil {
				return err
			}
		}

		// Survivors subscribe to the dynamic pset before any death.
		deaths := make(chan mpi.PsetChange, 8)
		watch := 0
		if p.JobRank() < 2 {
			watch, err = sess.WatchPset(mpi.PsetAlive, func(c mpi.PsetChange) { deaths <- c })
			if err != nil {
				return err
			}
		}
		if err := syncComm.Barrier(); err != nil {
			return err
		}

		// Snapshot while everyone is still alive: this is the stale group.
		stale, err := sess.SurvivorGroup(mpi.PsetWorld)
		if err != nil {
			return err
		}
		if stale.Size() != 4 {
			return fmt.Errorf("rank %d: pre-death survivor group size %d, want 4", p.JobRank(), stale.Size())
		}

		if p.JobRank() >= 2 {
			time.Sleep(30 * time.Millisecond)
			panic(fmt.Sprintf("rank %d dies", p.JobRank()))
		}
		defer unblocked.Done()
		defer func() { _ = sess.Finalize() }()
		defer func() { _ = syncComm.Free() }()

		// Wait until BOTH deaths are visible locally.
		dead := map[int]bool{}
		for len(dead) < 2 {
			select {
			case c := <-deaths:
				if !c.Alive {
					dead[c.Rank] = true
				}
			case <-time.After(10 * time.Second):
				return fmt.Errorf("rank %d: death notifications never arrived", p.JobRank())
			}
		}
		sess.UnwatchPset(watch)

		start := time.Now()
		_, err = sess.CommCreateFromGroup(stale, "stale-rebuild", nil, mpi.ErrorsReturn())
		if cls := mpi.ErrorClassOf(err); cls != mpi.ErrClassProcFailed {
			return fmt.Errorf("rank %d: stale construct = %v (class %v), want MPI_ERR_PROC_FAILED", p.JobRank(), err, cls)
		}
		if d := time.Since(start); d > 2*time.Second {
			return fmt.Errorf("rank %d: stale construct took %v, want immediate failure", p.JobRank(), d)
		}

		// Zero survivors: classified, not a bare error.
		_, err = sess.SurvivorGroup("doomed")
		if cls := mpi.ErrorClassOf(err); cls != mpi.ErrClassProcFailed {
			return fmt.Errorf("rank %d: zero-survivor group = %v (class %v), want MPI_ERR_PROC_FAILED", p.JobRank(), err, cls)
		}

		// A fresh survivor set still rebuilds and computes.
		sg, err := sess.SurvivorGroup(mpi.PsetAlive)
		if err != nil {
			return err
		}
		if sg.Size() != 2 {
			return fmt.Errorf("rank %d: survivor group size %d, want 2", p.JobRank(), sg.Size())
		}
		c2, err := sess.CommCreateFromGroup(sg, "fresh-rebuild", nil, mpi.ErrorsReturn())
		if err != nil {
			return err
		}
		defer func() { _ = c2.Free() }()
		sum, err := c2.AllreduceInt64(int64(p.JobRank()), mpi.OpSum)
		if err != nil || sum != 1 { // 0+1
			return fmt.Errorf("rank %d: rebuilt allreduce = %d, %v; want 1", p.JobRank(), sum, err)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected the injected rank deaths to be reported by Launch")
	}
	unblocked.Wait()
}

// TestChaosPeerDeathMidPersistentColl: a rank dies while the others are
// inside Start/Wait of a persistent allreduce. The survivors' Wait must
// surface MPI_ERR_PROC_FAILED instead of hanging, and the errored request
// must be restartable (failing fast again) and then cleanly freeable.
func TestChaosPeerDeathMidPersistentColl(t *testing.T) {
	job, err := runtime.NewJob(runtime.Options{
		Cluster: topo.New(topo.Loopback(2), 2),
		PPN:     2,
		Config:  core.Config{CIDMode: core.CIDExtended},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Shutdown()

	var unblocked sync.WaitGroup
	unblocked.Add(3)
	err = job.Launch(func(p *mpi.Process) error {
		sess, err := p.SessionInit(nil, mpi.ErrorsReturn())
		if err != nil {
			return err
		}
		grp, err := sess.GroupFromPset(mpi.PsetWorld)
		if err != nil {
			return err
		}
		comm, err := sess.CommCreateFromGroup(grp, "chaos-pcoll", nil, mpi.ErrorsReturn())
		if err != nil {
			return err
		}
		const count = 256
		send := make([]byte, count*8)
		recv := make([]byte, count*8)
		req, err := comm.AllreduceInit(send, recv, count, mpi.Int64, mpi.OpSum)
		if err != nil {
			return err
		}
		// One clean round proves the request works before the fault.
		if err := req.Start(); err != nil {
			return err
		}
		if err := req.Wait(); err != nil {
			return err
		}

		if p.JobRank() == 3 {
			// Die between rounds, while the survivors are already blocked
			// inside the next Start/Wait.
			time.Sleep(30 * time.Millisecond)
			panic("rank 3 dies mid persistent collective")
		}
		defer unblocked.Done()
		defer func() {
			_ = comm.Free()
			_ = sess.Finalize()
		}()

		if err := req.Start(); err != nil {
			return err
		}
		err = req.Wait()
		if err == nil {
			return fmt.Errorf("rank %d: persistent allreduce over a dead peer succeeded", p.JobRank())
		}
		if cls := mpi.ErrorClassOf(err); cls != mpi.ErrClassProcFailed {
			return fmt.Errorf("rank %d: Wait class = %v (%v), want MPI_ERR_PROC_FAILED", p.JobRank(), cls, err)
		}
		// The errored request is back in the inactive state: restarting it
		// must fail fast (poisoned channel), not hang, and Free must work.
		if err := req.Start(); err != nil {
			return err
		}
		if err := req.Wait(); mpi.ErrorClassOf(err) != mpi.ErrClassProcFailed {
			return fmt.Errorf("rank %d: restarted Wait = %v, want MPI_ERR_PROC_FAILED", p.JobRank(), err)
		}
		if err := req.Free(); err != nil {
			return fmt.Errorf("rank %d: Free after failure: %v", p.JobRank(), err)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected the injected rank death to be reported by Launch")
	}
	unblocked.Wait()
}

// TestChaosPersistentRoundPeerDeath: a member dies while the survivors'
// persistent allreduce round is in flight and they are outside Wait. The
// round has no goroutine of its own, so it is the PML's failure sweep,
// completing the round's stranded steps, that must carry it to its end:
// each survivor's Done closes without a Test or Wait, the Wait that
// follows returns MPI_ERR_PROC_FAILED at once, and the request then
// restarts (failing fast) and frees cleanly.
func TestChaosPersistentRoundPeerDeath(t *testing.T) {
	job, err := runtime.NewJob(runtime.Options{
		Cluster: topo.New(topo.Loopback(2), 2),
		PPN:     2,
		Config:  core.Config{CIDMode: core.CIDExtended},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Shutdown()

	var survived sync.WaitGroup
	survived.Add(3)
	err = job.Launch(func(p *mpi.Process) error {
		sess, err := p.SessionInit(nil, mpi.ErrorsReturn())
		if err != nil {
			return err
		}
		grp, err := sess.GroupFromPset(mpi.PsetWorld)
		if err != nil {
			return err
		}
		comm, err := sess.CommCreateFromGroup(grp, "chaos-pround", nil, mpi.ErrorsReturn())
		if err != nil {
			return err
		}
		const count = 256
		send := make([]byte, count*8)
		recv := make([]byte, count*8)
		req, err := comm.AllreduceInit(send, recv, count, mpi.Int64, mpi.OpSum)
		if err != nil {
			return err
		}
		if err := req.Start(); err != nil {
			return err
		}
		if err := req.Wait(); err != nil {
			return err
		}

		if p.JobRank() == 3 {
			// Die without entering the next round, which the survivors
			// have started by now.
			time.Sleep(30 * time.Millisecond)
			panic("rank 3 dies while the survivors' round is in flight")
		}
		defer survived.Done()
		defer func() {
			_ = comm.Free()
			_ = sess.Finalize()
		}()

		if err := req.Start(); err != nil {
			return err
		}
		select {
		case <-req.Done():
		case <-time.After(10 * time.Second):
			return fmt.Errorf("rank %d: the round's Done never closed after the peer died", p.JobRank())
		}
		t0 := time.Now()
		err = req.Wait()
		if took := time.Since(t0); took > 100*time.Millisecond {
			return fmt.Errorf("rank %d: Wait on a round that had already failed took %v", p.JobRank(), took)
		}
		if cls := mpi.ErrorClassOf(err); cls != mpi.ErrClassProcFailed {
			return fmt.Errorf("rank %d: Wait = %v (class %v), want MPI_ERR_PROC_FAILED", p.JobRank(), err, cls)
		}
		if err := req.Start(); err != nil {
			return err
		}
		t0 = time.Now()
		err = req.Wait()
		if took := time.Since(t0); took > time.Second {
			return fmt.Errorf("rank %d: restarted round took %v to fail", p.JobRank(), took)
		}
		if cls := mpi.ErrorClassOf(err); cls != mpi.ErrClassProcFailed {
			return fmt.Errorf("rank %d: restarted Wait = %v, want MPI_ERR_PROC_FAILED", p.JobRank(), err)
		}
		return req.Free()
	})
	if err == nil {
		t.Fatal("expected the injected rank death to be reported by Launch")
	}
	survived.Wait()
}

// TestChaosPeerDeathMidAllreduceDropsRunState: per-call collectives borrow
// the run state (staging arena + engine bookkeeping) parked with their
// cached schedule. A rank dies while the survivors are inside a 32 KiB
// allreduce whose state was parked by an earlier clean call; the run
// errors with receives still posted into that staging, so it must not be
// parked again. What the survivors do next has to be right: the other
// communicator's module, whose shapes were parked before the fault, and the
// same shape on a communicator rebuilt over the survivors. Operands come
// from a fixed seed, so a wrong sum reproduces.
func TestChaosPeerDeathMidAllreduceDropsRunState(t *testing.T) {
	const seed, count = 24, 4096
	operand := func(rank int) []int64 {
		rng := rand.New(rand.NewSource(seed*1000 + int64(rank)))
		v := make([]int64, count)
		for i := range v {
			v[i] = rng.Int63n(1 << 40)
		}
		return v
	}
	allreduce := func(c *mpi.Comm, p *mpi.Process, members int) error {
		out := make([]byte, 8*count)
		if err := c.Allreduce(mpi.PackInt64s(operand(p.JobRank())), out, count, mpi.Int64, mpi.OpSum); err != nil {
			return err
		}
		want := make([]int64, count)
		for r := 0; r < members; r++ {
			for i, v := range operand(r) {
				want[i] += v
			}
		}
		for i, got := range mpi.UnpackInt64s(out) {
			if got != want[i] {
				return fmt.Errorf("rank %d: element %d of the %d-member sum = %d, want %d", p.JobRank(), i, members, got, want[i])
			}
		}
		return nil
	}

	job, err := runtime.NewJob(runtime.Options{
		Cluster: topo.New(topo.Loopback(2), 2),
		PPN:     2,
		Config:  core.Config{CIDMode: core.CIDExtended},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Shutdown()

	var unblocked sync.WaitGroup
	unblocked.Add(3)
	err = job.Launch(func(p *mpi.Process) error {
		sess, err := p.SessionInit(nil, mpi.ErrorsReturn())
		if err != nil {
			return err
		}
		world, err := sess.GroupFromPset(mpi.PsetWorld)
		if err != nil {
			return err
		}
		comm, err := sess.CommCreateFromGroup(world, "all-four", nil, mpi.ErrorsReturn())
		if err != nil {
			return err
		}
		// One clean call parks the 32 KiB shape's state on every member.
		if err := allreduce(comm, p, 4); err != nil {
			return err
		}
		if p.JobRank() == 3 {
			time.Sleep(30 * time.Millisecond)
			panic("rank 3 dies mid-allreduce")
		}
		defer unblocked.Done()
		defer func() { _ = sess.Finalize() }()

		// A second communicator the dead rank is not a member of, with the
		// same shape and a broadcast parked before the fault.
		trio, err := world.Incl([]int{0, 1, 2})
		if err != nil {
			return err
		}
		sub, err := sess.CommCreateFromGroup(trio, "trio", nil, mpi.ErrorsReturn())
		if err != nil {
			return err
		}
		defer func() { _ = sub.Free() }()
		token := make([]byte, 1024)
		bcast := func() error {
			if sub.Rank() == 1 {
				for i := range token {
					token[i] = byte(seed + i)
				}
			} else {
				clear(token)
			}
			if err := sub.Bcast(token, 1); err != nil {
				return err
			}
			for i, b := range token {
				if b != byte(seed+i) {
					return fmt.Errorf("rank %d: bcast byte %d = %d", p.JobRank(), i, b)
				}
			}
			return nil
		}
		if err := allreduce(sub, p, 3); err != nil {
			return err
		}
		if err := bcast(); err != nil {
			return err
		}

		// The survivors sit inside the same shape, on its parked state,
		// when rank 3 dies.
		err = allreduce(comm, p, 4)
		if cls := mpi.ErrorClassOf(err); cls != mpi.ErrClassProcFailed {
			return fmt.Errorf("rank %d: allreduce over a dead peer = %v (class %v), want MPI_ERR_PROC_FAILED", p.JobRank(), err, cls)
		}

		// The surviving module's shapes still work, twice each (the second
		// call runs on whatever the first one parked).
		for i := 0; i < 2; i++ {
			if err := allreduce(sub, p, 3); err != nil {
				return fmt.Errorf("after the fault, on the other communicator: %w", err)
			}
			if err := bcast(); err != nil {
				return fmt.Errorf("after the fault, on the other communicator: %w", err)
			}
		}

		// And the same shape on a communicator rebuilt over the survivors.
		if err := comm.Free(); err != nil {
			return err
		}
		alive, err := sess.SurvivorGroup(mpi.PsetAlive)
		if err != nil {
			return err
		}
		rebuilt, err := sess.CommCreateFromGroup(alive, "rebuilt", nil, mpi.ErrorsReturn())
		if err != nil {
			return err
		}
		defer func() { _ = rebuilt.Free() }()
		for i := 0; i < 2; i++ {
			if err := allreduce(rebuilt, p, 3); err != nil {
				return fmt.Errorf("on the rebuilt communicator: %w", err)
			}
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected the injected rank death to be reported by Launch")
	}
	unblocked.Wait()
}

// TestChaosPeerDeathMidPrefixAndRooted: the prefix chain and the vector
// gather run on the schedule engine like every other collective, so a
// death inside them fails every survivor fast. Rank 0 dies while ranks 1-3
// wait in a Scan chain (each on its left neighbour), and the Gatherv root
// dies while the others' rendezvous sends wait for its CTS. Each survivor
// must return MPI_ERR_PROC_FAILED within 5 s, not the 60 s operation
// timeout.
func TestChaosPeerDeathMidPrefixAndRooted(t *testing.T) {
	const blk = 4096 // above the 1 KiB eager limit: the gatherv sends are rendezvous
	for _, tc := range []struct {
		name string
		call func(c *mpi.Comm) error
	}{
		{"scan", func(c *mpi.Comm) error {
			return c.Scan(mpi.PackInt64s([]int64{1}), make([]byte, 8), 1, mpi.Int64, mpi.OpSum)
		}},
		{"gatherv", func(c *mpi.Comm) error {
			counts, displs := make([]int, c.Size()), make([]int, c.Size())
			for i := range counts {
				counts[i], displs[i] = blk, i*blk
			}
			return c.Gatherv(make([]byte, blk), nil, counts, displs, 0)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			job, err := runtime.NewJob(runtime.Options{
				Cluster: topo.New(topo.Loopback(2), 2),
				PPN:     2,
				Config:  core.Config{CIDMode: core.CIDExtended, EagerLimit: 1024},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer job.Shutdown()
			var unblocked sync.WaitGroup
			unblocked.Add(3)
			err = job.Launch(func(p *mpi.Process) error {
				sess, err := p.SessionInit(nil, mpi.ErrorsReturn())
				if err != nil {
					return err
				}
				grp, err := sess.GroupFromPset(mpi.PsetWorld)
				if err != nil {
					return err
				}
				comm, err := sess.CommCreateFromGroup(grp, "chaos-"+tc.name, nil, mpi.ErrorsReturn())
				if err != nil {
					return err
				}
				if p.JobRank() == 0 {
					time.Sleep(30 * time.Millisecond)
					panic("rank 0 dies mid-collective")
				}
				defer unblocked.Done()
				defer func() {
					_ = comm.Free()
					_ = sess.Finalize()
				}()
				start := time.Now()
				err = tc.call(comm)
				if cls := mpi.ErrorClassOf(err); cls != mpi.ErrClassProcFailed {
					return fmt.Errorf("rank %d: %s over a dead peer = %v (class %v), want MPI_ERR_PROC_FAILED", p.JobRank(), tc.name, err, cls)
				}
				if d := time.Since(start); d > 5*time.Second {
					return fmt.Errorf("rank %d: %s took %v to fail", p.JobRank(), tc.name, d)
				}
				return nil
			})
			var je *runtime.JobError
			if !errors.As(err, &je) || len(je.Errors) != 1 || je.Errors[0].Rank != 0 {
				t.Fatalf("launch = %v, want only rank 0's injected death", err)
			}
			unblocked.Wait()
		})
	}
}

// TestChaosPeerDeathReclaimsProgressGoroutines: a rank that dies without
// Finalize never closes its own fabric BTL, so the pump goroutine of its
// served endpoint (the net module's progress machinery) stays parked
// unless Job.Shutdown reclaims the rank; the DVM's daemon endpoints are
// served too and stop at Shutdown. After both peer-death bodies, none of
// their pumps may be left.
func TestChaosPeerDeathReclaimsProgressGoroutines(t *testing.T) {
	before := pumpGoroutines()
	TestChaosPeerDeathMidCollective(t)
	TestChaosPeerDeathMidPrefixAndRooted(t)
	after := pumpGoroutines()
	for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		after = pumpGoroutines()
	}
	if after > before {
		t.Fatalf("%d served-endpoint pump goroutines before the peer-death jobs, %d after their shutdown", before, after)
	}
}

// pumpGoroutines counts the live pump goroutines of served simnet
// endpoints: one per active net BTL module and one per DVM daemon.
func pumpGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := goruntime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	return strings.Count(string(buf), "gompi/internal/simnet.(*Endpoint).pump(")
}

// TestChaosProbeAfterPeerDeath: a Probe parked on a rank that then panics
// must fail with MPI_ERR_PROC_FAILED, through the error handler, within
// 100 ms of the death, and an Iprobe of the dead rank after it must fail
// the same way. Before, the Probe was still blocked seconds later, where a
// Recv in its place failed at once.
func TestChaosProbeAfterPeerDeath(t *testing.T) {
	job, err := runtime.NewJob(runtime.Options{
		Cluster: topo.New(topo.Loopback(2), 1),
		PPN:     2,
		Config:  core.Config{CIDMode: core.CIDExtended},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Shutdown()

	var diedAt atomic.Int64 // unix nanoseconds
	err = job.Launch(func(p *mpi.Process) error {
		sess, err := p.SessionInit(nil, mpi.ErrorsReturn())
		if err != nil {
			return err
		}
		grp, err := sess.GroupFromPset(mpi.PsetWorld)
		if err != nil {
			return err
		}
		comm, err := sess.CommCreateFromGroup(grp, "probe", nil, nil)
		if err != nil {
			return err
		}
		if p.JobRank() == 1 {
			time.Sleep(20 * time.Millisecond) // let rank 0 park in Probe
			diedAt.Store(time.Now().UnixNano())
			panic("rank 1 dies under a Probe")
		}
		defer func() {
			_ = comm.Free()
			_ = sess.Finalize()
		}()
		probed := make(chan error, 1)
		go func() {
			_, err := comm.Probe(1, 7)
			probed <- err
		}()
		select {
		case err = <-probed:
		case <-time.After(2 * time.Second):
			return fmt.Errorf("Probe of a dead rank still blocked after 2s")
		}
		if since := time.Since(time.Unix(0, diedAt.Load())); since > 100*time.Millisecond {
			return fmt.Errorf("Probe returned %v after the death, want within 100ms", since)
		}
		if cls := mpi.ErrorClassOf(err); cls != mpi.ErrClassProcFailed {
			return fmt.Errorf("Probe class = %v (%v), want MPI_ERR_PROC_FAILED", cls, err)
		}
		if _, ok, err := comm.Iprobe(1, 7); ok || mpi.ErrorClassOf(err) != mpi.ErrClassProcFailed {
			return fmt.Errorf("Iprobe of the dead rank = %v, %v, want MPI_ERR_PROC_FAILED", ok, err)
		}
		return nil
	})
	var je *runtime.JobError
	if !errors.As(err, &je) || len(je.Errors) != 1 || je.Errors[0].Rank != 1 {
		t.Fatalf("Launch = %v, want a job error naming only the killed rank 1", err)
	}
}
