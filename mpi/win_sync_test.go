package mpi_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"gompi/mpi"
)

func TestWinPSCWEpoch(t *testing.T) {
	withSession(t, 1, 4, func(p *mpi.Process, s *mpi.Session, g *mpi.Group) error {
		win, err := s.WinCreateFromGroup(g, "pscw", 16)
		if err != nil {
			return err
		}
		defer win.Free()
		comm := win.Comm()
		me := comm.Rank()

		// Ranks 1..3 (origins) put into rank 0 (target) under PSCW.
		worldGroup := comm.Group()
		origins, err := worldGroup.Incl([]int{1, 2, 3})
		if err != nil {
			return err
		}
		targets, err := worldGroup.Incl([]int{0})
		if err != nil {
			return err
		}
		if me == 0 {
			if err := win.Post(origins); err != nil {
				return err
			}
			if err := win.WaitEpoch(origins); err != nil {
				return err
			}
			for r := 1; r <= 3; r++ {
				if win.Local()[r] != byte(10*r) {
					return fmt.Errorf("slot %d = %d, want %d", r, win.Local()[r], 10*r)
				}
			}
			return nil
		}
		if err := win.Start(targets); err != nil {
			return err
		}
		if err := win.Put(0, me, []byte{byte(10 * me)}); err != nil {
			return err
		}
		return win.Complete()
	})
}

func TestWinCompleteWithoutStartFails(t *testing.T) {
	withSession(t, 1, 2, func(p *mpi.Process, s *mpi.Session, g *mpi.Group) error {
		win, err := s.WinCreateFromGroup(g, "nostart", 8)
		if err != nil {
			return err
		}
		defer win.Free()
		if err := win.Complete(); err == nil {
			return fmt.Errorf("Complete without Start accepted")
		}
		return nil
	})
}

func TestWinLockExclusiveCounter(t *testing.T) {
	withSession(t, 1, 4, func(p *mpi.Process, s *mpi.Session, g *mpi.Group) error {
		win, err := s.WinCreateFromGroup(g, "lock", 8)
		if err != nil {
			return err
		}
		defer win.Free()
		comm := win.Comm()
		// Every rank increments the counter at rank 0 under an exclusive
		// lock, read-modify-write: without mutual exclusion updates would
		// be lost.
		const itersPerRank = 8
		for i := 0; i < itersPerRank; i++ {
			if err := win.Lock(mpi.LockExclusive, 0); err != nil {
				return err
			}
			var cur [8]byte
			if err := win.Get(0, 0, cur[:]); err != nil {
				return err
			}
			v := mpi.UnpackInt64s(cur[:])[0]
			if err := win.Put(0, 0, mpi.PackInt64s([]int64{v + 1})); err != nil {
				return err
			}
			if err := win.Unlock(0); err != nil {
				return err
			}
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if comm.Rank() == 0 {
			got := mpi.UnpackInt64s(win.Local()[:8])[0]
			want := int64(itersPerRank * comm.Size())
			if got != want {
				return fmt.Errorf("counter = %d, want %d (lost updates)", got, want)
			}
		}
		return nil
	})
}

func TestWinLockSharedReaders(t *testing.T) {
	withSession(t, 1, 3, func(p *mpi.Process, s *mpi.Session, g *mpi.Group) error {
		win, err := s.WinCreateFromGroup(g, "shared", 8)
		if err != nil {
			return err
		}
		defer win.Free()
		comm := win.Comm()
		if comm.Rank() == 0 {
			copy(win.Local(), mpi.PackInt64s([]int64{777}))
		}
		if err := win.Fence(); err != nil {
			return err
		}
		// All ranks read rank 0 under shared locks concurrently.
		if err := win.Lock(mpi.LockShared, 0); err != nil {
			return err
		}
		var buf [8]byte
		if err := win.Get(0, 0, buf[:]); err != nil {
			return err
		}
		if err := win.Unlock(0); err != nil {
			return err
		}
		if v := mpi.UnpackInt64s(buf[:])[0]; v != 777 {
			return fmt.Errorf("read %d under shared lock", v)
		}
		return win.Fence()
	})
}

func TestWinLockValidation(t *testing.T) {
	withSession(t, 1, 2, func(p *mpi.Process, s *mpi.Session, g *mpi.Group) error {
		win, err := s.WinCreateFromGroup(g, "lockval", 8)
		if err != nil {
			return err
		}
		defer win.Free()
		if err := win.Lock(99, 0); err == nil {
			return fmt.Errorf("bad lock type accepted")
		}
		if err := win.Lock(mpi.LockShared, 55); err == nil {
			return fmt.Errorf("bad target accepted")
		}
		return nil
	})
}

// An Unlock from a process that holds no lock on the target is an error,
// sends nothing, and leaves the holder's lock in place: rank 1's stray
// Unlock(0) must not let rank 2's exclusive Lock(0) in while rank 0 holds
// it. Before, the target's service counted holders without their ranks, so
// the stray unlock released rank 0's lock.
func TestWinStrayUnlockKeepsHolderLock(t *testing.T) {
	var released atomic.Bool
	withSession(t, 1, 3, func(p *mpi.Process, s *mpi.Session, g *mpi.Group) error {
		win, err := s.WinCreateFromGroup(g, "stray", 8)
		if err != nil {
			return err
		}
		defer win.Free()
		comm := win.Comm()
		if comm.Rank() == 0 {
			if err := win.Lock(mpi.LockExclusive, 0); err != nil {
				return err
			}
		}
		if err := comm.Barrier(); err != nil { // rank 0 holds the lock
			return err
		}
		var bad error
		if comm.Rank() == 1 && win.Unlock(0) == nil {
			bad = fmt.Errorf("stray Unlock(0) from a process holding no lock succeeded")
		}
		if err := comm.Barrier(); err != nil { // any stray unlock is on its way first
			return err
		}
		switch comm.Rank() {
		case 0:
			time.Sleep(50 * time.Millisecond) // rank 2's Lock queues behind the held lock
			released.Store(true)
			if err := win.Unlock(0); err != nil {
				return err
			}
		case 2:
			if err := win.Lock(mpi.LockExclusive, 0); err != nil {
				return err
			}
			if !released.Load() {
				bad = fmt.Errorf("rank 2's exclusive lock was granted while rank 0 held it")
			}
			if err := win.Unlock(0); err != nil {
				return err
			}
		}
		return bad
	})
}
