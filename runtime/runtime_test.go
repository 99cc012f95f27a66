package runtime

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gompi/internal/core"
	"gompi/internal/pmix"
	"gompi/internal/topo"
	"gompi/mpi"
)

func TestOptionsValidation(t *testing.T) {
	if _, err := NewJob(Options{PPN: -1}); err == nil {
		t.Fatal("negative PPN accepted")
	}
	if _, err := NewJob(Options{Cluster: topo.New(topo.Loopback(2), 1), PPN: 2, NP: 8}); err == nil {
		t.Fatal("over-subscribed job accepted")
	}
	job, err := NewJob(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Shutdown()
	if job.NP() != 8 {
		t.Fatalf("default NP = %d, want 8 (loopback cores)", job.NP())
	}
}

func TestRunHelloWorld(t *testing.T) {
	var ranks atomic.Int32
	err := Run(Options{
		Cluster: topo.New(topo.Loopback(4), 2),
		PPN:     4,
		Config:  core.Config{CIDMode: core.CIDExtended},
	}, func(p *mpi.Process) error {
		ranks.Add(1)
		if p.JobSize() != 8 {
			return fmt.Errorf("JobSize = %d", p.JobSize())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ranks.Load() != 8 {
		t.Fatalf("ran %d ranks, want 8", ranks.Load())
	}
}

func TestRelaunchOnSameJob(t *testing.T) {
	// Benchmarks re-launch rank functions on one substrate; instances must
	// support full init/finalize cycles across launches.
	job, err := NewJob(Options{
		Cluster: topo.New(topo.Loopback(2), 2),
		PPN:     2,
		Config:  core.Config{CIDMode: core.CIDExtended},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Shutdown()
	for i := 0; i < 3; i++ {
		err := job.Launch(func(p *mpi.Process) error {
			sess, err := p.SessionInit(nil, nil)
			if err != nil {
				return err
			}
			grp, err := sess.GroupFromPset(mpi.PsetWorld)
			if err != nil {
				return err
			}
			comm, err := sess.CommCreateFromGroup(grp, fmt.Sprintf("launch-%d", i), nil, nil)
			if err != nil {
				return err
			}
			if err := comm.Barrier(); err != nil {
				return err
			}
			if err := comm.Free(); err != nil {
				return err
			}
			return sess.Finalize()
		})
		if err != nil {
			t.Fatalf("launch %d: %v", i, err)
		}
	}
}

func TestPanicBecomesRankError(t *testing.T) {
	err := Run(Options{
		Cluster: topo.New(topo.Loopback(2), 1),
		PPN:     2,
		Config:  core.Config{CIDMode: core.CIDExtended},
	}, func(p *mpi.Process) error {
		if p.JobRank() == 0 {
			panic("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
	// The message stays one line; the stack rides in its own field.
	if msg := err.Error(); msg != "rank 0: panic: boom" {
		t.Fatalf("message = %q, want one line", msg)
	}
	var je *JobError
	if !errors.As(err, &je) || len(je.Errors) != 1 {
		t.Fatalf("err = %T %v, want one rank error", err, err)
	}
	if re := je.Errors[0]; !strings.Contains(string(re.Stack), "TestPanicBecomesRankError") {
		t.Fatalf("rank error %v carries no stack of the panicking rank:\n%s", re, re.Stack)
	}
}

func TestFaultIsolationClientServer(t *testing.T) {
	// The §II-C scenario: server processes coordinate through their own
	// session-derived communicator; a client process fails; the servers
	// observe the failure as an event and keep serving instead of being
	// torn down with the client.
	job, err := NewJob(Options{
		Cluster: topo.New(topo.Loopback(3), 2),
		PPN:     3,
		Psets: map[string][]int{
			"app://servers": {0, 1, 2, 3},
			"app://clients": {4, 5},
		},
		Config: core.Config{CIDMode: core.CIDExtended},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Shutdown()

	var failuresSeen atomic.Int32
	var serverWork atomic.Int32
	var wg sync.WaitGroup
	wg.Add(2)

	// Servers.
	go func() {
		defer wg.Done()
		err := job.LaunchRanks([]int{0, 1, 2, 3}, func(p *mpi.Process) error {
			sess, err := p.SessionInit(nil, nil)
			if err != nil {
				return err
			}
			defer sess.Finalize()
			grp, err := sess.GroupFromPset("app://servers")
			if err != nil {
				return err
			}
			comm, err := sess.CommCreateFromGroup(grp, "srv", nil, nil)
			if err != nil {
				return err
			}
			defer comm.Free()

			failed := make(chan pmix.Proc, 4)
			p.Instance().Client().RegisterEventHandler(
				[]pmix.EventCode{pmix.EventProcTerminated},
				func(ev pmix.Event) { failed <- ev.Source },
			)
			// Wait for the client failure notification.
			select {
			case proc := <-failed:
				if proc.Rank != 5 {
					return fmt.Errorf("unexpected failed rank %d", proc.Rank)
				}
				failuresSeen.Add(1)
			case <-time.After(10 * time.Second):
				return fmt.Errorf("no failure event")
			}
			// Server-side collective still works after the client died.
			sum, err := comm.AllreduceInt64(1, mpi.OpSum)
			if err != nil {
				return err
			}
			if sum != 4 {
				return fmt.Errorf("sum = %d", sum)
			}
			serverWork.Add(1)
			return nil
		})
		if err != nil {
			t.Errorf("servers: %v", err)
		}
	}()

	// Clients: rank 5 dies.
	go func() {
		defer wg.Done()
		err := job.LaunchRanks([]int{4, 5}, func(p *mpi.Process) error {
			sess, err := p.SessionInit(nil, nil)
			if err != nil {
				return err
			}
			if p.JobRank() == 5 {
				time.Sleep(20 * time.Millisecond)
				panic("client crash")
			}
			defer sess.Finalize()
			return nil
		})
		if err == nil {
			t.Error("client job should report the crash")
		}
	}()

	wg.Wait()
	if failuresSeen.Load() != 4 || serverWork.Load() != 4 {
		t.Fatalf("failures seen by %d servers, work done by %d; want 4/4",
			failuresSeen.Load(), serverWork.Load())
	}
}

func TestJobErrorAggregation(t *testing.T) {
	err := Run(Options{
		Cluster: topo.New(topo.Loopback(4), 1),
		PPN:     4,
	}, func(p *mpi.Process) error {
		if p.JobRank()%2 == 1 {
			return errors.New("odd rank fails")
		}
		return nil
	})
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("err = %T %v", err, err)
	}
	if len(je.Errors) != 2 {
		t.Fatalf("got %d rank errors, want 2", len(je.Errors))
	}
	for _, re := range je.Errors {
		if re.Rank%2 != 1 {
			t.Fatalf("rank error %v names an even rank; only odd ranks failed", re)
		}
	}
	if !strings.Contains(je.Error(), "more rank errors") {
		t.Fatalf("aggregate message = %q", je.Error())
	}
}

// TestJobErrorUnwrap checks that errors.Is and errors.As see through a
// JobError to the failed rank's RankError and to the error that rank
// returned.
func TestJobErrorUnwrap(t *testing.T) {
	cause := errors.New("rank 1's cause")
	err := Run(Options{
		Cluster: topo.New(topo.Loopback(2), 1),
		PPN:     2,
	}, func(p *mpi.Process) error {
		if p.JobRank() == 1 {
			return fmt.Errorf("solver: %w", cause)
		}
		return nil
	})
	if err == nil {
		t.Fatal("Run returned nil, want rank 1's failure")
	}
	if !errors.Is(err, cause) {
		t.Fatalf("errors.Is(%v, cause) = false", err)
	}
	var re RankError
	if !errors.As(err, &re) || re.Rank != 1 {
		t.Fatalf("errors.As(%v, &RankError{}) found %+v, want rank 1's error", err, re)
	}
	if msg := err.Error(); msg != "rank 1: solver: rank 1's cause" {
		t.Fatalf("message = %q", msg)
	}
}

func TestLaunchRanksValidation(t *testing.T) {
	job, err := NewJob(Options{Cluster: topo.New(topo.Loopback(2), 1), PPN: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Shutdown()
	var ran atomic.Int32
	count := func(*mpi.Process) error { ran.Add(1); return nil }
	if err := job.LaunchRanks([]int{0, 5}, count); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d ranks ran before the out-of-range rank was refused", n)
	}
	job.Shutdown()
	if err := job.Launch(count); err == nil {
		t.Fatal("launch after shutdown accepted")
	}
	if err := job.LaunchRanks([]int{0}, count); err == nil {
		t.Fatal("LaunchRanks after shutdown accepted")
	}
}
