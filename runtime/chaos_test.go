package runtime

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"gompi/internal/core"
	"gompi/internal/topo"
	"gompi/mpi"
)

// TestChaosRespawn drives the full recovery loop end to end: a rank dies
// mid-job, the survivors observe the death through the dynamic
// gompi://alive pset, Respawn brings the rank back as a new incarnation,
// and all ranks — survivors and the respawned one — construct a full-size
// communicator and run a collective over it. Deterministic: the victim
// panics at a barrier-synchronized point, and every hand-off is
// event-driven (no sleeps on the success path).
func TestChaosRespawn(t *testing.T) {
	const np = 4
	const victim = 3
	job, err := NewJob(Options{
		Cluster: topo.New(topo.Loopback(2), 2),
		PPN:     2,
		Config:  core.Config{CIDMode: core.CIDExtended},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Shutdown()

	// The respawner waits for a survivor to report the death, then runs the
	// replacement incarnation concurrently with the still-launched
	// survivors. Closing over the job from a second goroutine is the
	// intended Respawn usage.
	died := make(chan struct{})
	respawnErr := make(chan error, 1)
	go func() {
		<-died
		respawnErr <- job.Respawn(victim, func(p *mpi.Process) error {
			sess, err := p.SessionInit(nil, mpi.ErrorsReturn())
			if err != nil {
				return err
			}
			defer func() { _ = sess.Finalize() }()
			// Reconnecting re-admitted this rank: the alive pset must be
			// full-size again from the new incarnation's point of view.
			sg, err := sess.SurvivorGroup(mpi.PsetAlive)
			if err != nil {
				return err
			}
			if sg.Size() != np {
				return fmt.Errorf("respawned rank: alive size = %d, want %d", sg.Size(), np)
			}
			comm, err := sess.CommCreateFromGroup(sg, "rejoin", nil, mpi.ErrorsReturn())
			if err != nil {
				return fmt.Errorf("respawned rank: rejoin construct: %v", err)
			}
			defer func() { _ = comm.Free() }()
			sum, err := comm.AllreduceInt64(int64(p.JobRank()), mpi.OpSum)
			if err != nil {
				return fmt.Errorf("respawned rank: allreduce: %v", err)
			}
			if sum != 6 { // 0+1+2+3
				return fmt.Errorf("respawned rank: allreduce = %d, want 6", sum)
			}
			return nil
		})
	}()

	var once sync.Once
	var unblocked sync.WaitGroup
	unblocked.Add(np - 1)
	// A barrier does not return on every rank at the same instant: the
	// victim holds its death until every rank is out of the boot barrier,
	// or the death notice fails a survivor still inside it.
	var pastBarrier sync.WaitGroup
	pastBarrier.Add(np)
	err = job.Launch(func(p *mpi.Process) error {
		sess, err := p.SessionInit(nil, mpi.ErrorsReturn())
		if err != nil {
			return err
		}
		grp, err := sess.GroupFromPset(mpi.PsetWorld)
		if err != nil {
			return err
		}
		comm, err := sess.CommCreateFromGroup(grp, "boot", nil, mpi.ErrorsReturn())
		if err != nil {
			return err
		}

		// Survivors register their liveness watcher before the barrier, so
		// the death cannot race past an unregistered handler. The engine's
		// own restart handler is registered even earlier (at session init):
		// by the time a watcher callback fires, failed-peer state and
		// cached addresses for the affected rank are already updated.
		deadEvs := make(chan int, np)
		aliveEvs := make(chan int, np)
		wid, err := sess.WatchPset(mpi.PsetAlive, func(ch mpi.PsetChange) {
			if ch.Alive {
				aliveEvs <- ch.Rank
			} else {
				deadEvs <- ch.Rank
			}
		})
		if err != nil {
			return err
		}
		defer sess.UnwatchPset(wid)

		if err := comm.Barrier(); err != nil {
			return fmt.Errorf("rank %d: boot barrier: %v", p.JobRank(), err)
		}
		pastBarrier.Done()
		if p.JobRank() == victim {
			pastBarrier.Wait()
			panic("rank 3 dies after the boot barrier")
		}
		defer unblocked.Done()
		defer func() { _ = sess.Finalize() }()

		select {
		case r := <-deadEvs:
			if r != victim {
				return fmt.Errorf("rank %d: death event for rank %d, want %d", p.JobRank(), r, victim)
			}
		case <-time.After(10 * time.Second):
			return fmt.Errorf("rank %d: no death event", p.JobRank())
		}
		_ = comm.Free() // poisoned by the death; free is local
		once.Do(func() { close(died) })

		select {
		case r := <-aliveEvs:
			if r != victim {
				return fmt.Errorf("rank %d: restart event for rank %d, want %d", p.JobRank(), r, victim)
			}
		case <-time.After(20 * time.Second):
			return fmt.Errorf("rank %d: no restart event — respawn never re-admitted the rank", p.JobRank())
		}

		sg, err := sess.SurvivorGroup(mpi.PsetAlive)
		if err != nil {
			return err
		}
		if sg.Size() != np {
			return fmt.Errorf("rank %d: post-respawn alive size = %d, want %d", p.JobRank(), sg.Size(), np)
		}
		comm2, err := sess.CommCreateFromGroup(sg, "rejoin", nil, mpi.ErrorsReturn())
		if err != nil {
			return fmt.Errorf("rank %d: rejoin construct: %v", p.JobRank(), err)
		}
		defer func() { _ = comm2.Free() }()
		sum, err := comm2.AllreduceInt64(int64(p.JobRank()), mpi.OpSum)
		if err != nil {
			return fmt.Errorf("rank %d: allreduce on rejoined comm: %v", p.JobRank(), err)
		}
		if sum != 6 {
			return fmt.Errorf("rank %d: rejoined allreduce = %d, want 6", p.JobRank(), sum)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected the injected rank death to be reported by Launch")
	}
	je, ok := err.(*JobError)
	if !ok {
		t.Fatalf("Launch error type %T: %v", err, err)
	}
	for _, re := range je.Errors {
		if re.Rank != victim {
			t.Errorf("unexpected rank error: %v", re)
		}
	}
	unblocked.Wait()
	if err := <-respawnErr; err != nil {
		t.Fatalf("respawn: %v", err)
	}
}
