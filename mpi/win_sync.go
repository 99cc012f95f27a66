package mpi

import (
	"fmt"
	"slices"
)

// Generalized active-target (PSCW: MPI_Win_post/start/complete/wait) and
// passive-target (MPI_Win_lock/unlock) synchronization for RMA windows.
// Operations complete synchronously at the target in this implementation,
// so the epochs reduce to clean notification protocols: PSCW on its own two
// tags, locks through the target's request service, which keeps the lock
// and its queue.

// Lock types for passive-target epochs.
const (
	// LockExclusive grants one origin at a time (MPI_LOCK_EXCLUSIVE).
	LockExclusive = 1
	// LockShared admits concurrent readers (MPI_LOCK_SHARED).
	LockShared = 2
)

// lockWaiter is a queued lock request: its origin (comm rank) and lock type.
type lockWaiter struct{ origin, lockType int }

// Post opens an exposure epoch for the origins in group (MPI_Win_post):
// each origin's matching Start unblocks once the post notification
// arrives.
func (w *Win) Post(group *Group) error {
	return w.tokens(group.ranks, winTagPost, false)
}

// Start opens an access epoch to the targets in group (MPI_Win_start),
// blocking until every target has posted.
func (w *Win) Start(group *Group) error {
	if err := w.tokens(group.ranks, winTagPost, true); err != nil {
		return err
	}
	w.mu.Lock()
	w.accessGroup = group.GlobalRanks()
	w.mu.Unlock()
	return nil
}

// Complete closes the access epoch opened by Start (MPI_Win_complete):
// all operations issued during the epoch are complete at their targets
// (they complete synchronously here), and each target is notified.
func (w *Win) Complete() error {
	w.mu.Lock()
	group, freed := w.accessGroup, w.freed
	w.accessGroup = nil
	w.mu.Unlock()
	if group == nil && !freed {
		return fmt.Errorf("mpi: Complete without matching Start")
	}
	return w.tokens(group, winTagComplete, false) // ErrWinFreed once freed
}

// WaitEpoch closes the exposure epoch opened by Post (MPI_Win_wait),
// blocking until every origin in group has called Complete.
func (w *Win) WaitEpoch(group *Group) error {
	return w.tokens(group.ranks, winTagComplete, true)
}

// tokens sends a one-byte notification on tag to each of ranks (global
// ranks) or, with recv set, waits for one from each.
func (w *Win) tokens(ranks []int, tag int, recv bool) error {
	if err := w.live(); err != nil {
		return err
	}
	token := []byte{1}
	for _, gr := range ranks {
		var err error
		switch cr := slices.Index(w.comm.group.ranks, gr); {
		case cr < 0:
			err = fmt.Errorf("mpi: rank %d not in window", gr)
		case recv:
			_, err = w.comm.ch.Recv(cr, tag, token)
		default:
			err = w.comm.ch.Send(cr, tag, token)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Lock opens a passive-target epoch on target (MPI_Win_lock). lockType is
// LockExclusive or LockShared. Locking the local process is allowed;
// locking a target this process already holds a lock on is an error.
func (w *Win) Lock(lockType, target int) error {
	if err := w.checkTarget(target); err != nil {
		return err
	}
	if lockType != LockExclusive && lockType != LockShared {
		return fmt.Errorf("mpi: bad lock type %d", lockType)
	}
	w.mu.Lock()
	held := w.locked[target]
	w.mu.Unlock()
	if held {
		return fmt.Errorf("mpi: Lock of target %d, which this process already holds", target)
	}
	if _, err := request(w.comm, target, svcRecord{kind: svcLock, arg: lockType}, nil); err != nil {
		return err
	}
	w.mu.Lock()
	w.locked[target] = true
	w.mu.Unlock()
	return nil
}

// Unlock closes the passive-target epoch (MPI_Win_unlock). All operations
// issued under the lock are complete at the target when it returns (they
// complete synchronously here), so the unlock is one message with no reply.
// Unlocking a target this process holds no lock on is an error, and sends
// nothing.
func (w *Win) Unlock(target int) error {
	if err := w.checkTarget(target); err != nil {
		return err
	}
	w.mu.Lock()
	held := w.locked[target]
	delete(w.locked, target)
	w.mu.Unlock()
	if !held {
		return fmt.Errorf("mpi: Unlock of target %d without a matching Lock", target)
	}
	return w.comm.ch.Send(target, svcTagReq, svcCodec.Encode(svcRecord{kind: svcUnlock}))
}

// lock serves a lock or unlock request at this member (service goroutine)
// and grants queued locks in arrival order: an exclusive lock waits for a
// free window, a shared one for no exclusive holder, and no request
// overtakes an earlier one, so readers never starve a writer. Holders are
// recorded by rank, so an unlock from a process that holds no lock
// releases nothing.
func (w *Win) lock(s *service, src int, r svcRecord) {
	switch {
	case r.kind == svcUnlock:
		if !w.lockHolders[src] {
			return
		}
		delete(w.lockHolders, src)
		w.lockExclusive = false // an exclusive holder is the only holder
	case r.arg != LockExclusive && r.arg != LockShared:
		s.reply(src, failed(ErrClassOther))
		return
	default:
		w.lockQueue = append(w.lockQueue, lockWaiter{src, r.arg})
	}
	for len(w.lockQueue) > 0 {
		next := w.lockQueue[0]
		if w.lockExclusive || next.lockType == LockExclusive && len(w.lockHolders) > 0 {
			return
		}
		w.lockExclusive = next.lockType == LockExclusive
		w.lockHolders[next.origin] = true
		w.lockQueue = w.lockQueue[1:]
		s.reply(next.origin, svcRecord{})
	}
}
