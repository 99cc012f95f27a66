package mpi

import (
	"errors"
	"fmt"
	"sync"
)

// RMA window support. As in the prototype (§III-B6), windows created from a
// group first build an intermediate communicator with
// MPI_Comm_create_from_group, then apply the MPI-3 creation path with that
// parent communicator; the window keeps a private duplicate so its traffic
// never interferes with application messages.
//
// Put/Get/Accumulate are served by the request service (service.go) of the
// target member: an origin call completes when the target has applied it,
// and Fence is a barrier over the window's communicator.

// ErrWinFreed is returned when using a freed window.
var ErrWinFreed = errors.New("mpi: window has been freed")

// Win is an RMA window: a region of each member's memory exposed for
// one-sided access (MPI_Win).
type Win struct {
	comm *Comm
	svc  *service

	mu          sync.Mutex // guards base against the service, freed, accessGroup and locked
	base        []byte
	freed       bool
	accessGroup []int        // targets of the current Start epoch (global ranks)
	locked      map[int]bool // targets this process holds a passive-target lock on

	// The passive-target lock, owned by the service goroutine.
	lockHolders   map[int]bool // the comm ranks holding it
	lockExclusive bool         // its one holder holds it exclusively
	lockQueue     []lockWaiter // requests not yet granted, in arrival order
}

// WinCreateFromGroup creates a window over the processes of group
// (MPI_Win_create_from_group): localSize bytes of this process's memory are
// exposed. Collective over the group.
func (s *Session) WinCreateFromGroup(group *Group, tag string, localSize int) (*Win, error) {
	return throughIntermediate(s, group, "win/"+tag, func(inter *Comm) (*Win, error) {
		return WinCreate(inter, localSize) // the window holds its own dup
	})
}

// WinAllocateFromGroup creates a window directly from a group, with no
// intermediate communicator: the paper's prototype constructed windows by
// building a temporary communicator, calling the MPI-3 path, and freeing
// it (§III-B6), and names eliminating that intermediate as future work —
// this constructor implements it. One communicator creation instead of
// two (create + dup). Collective over the group.
func (s *Session) WinAllocateFromGroup(group *Group, tag string, localSize int) (*Win, error) {
	priv, err := s.CommCreateFromGroup(group, "winalloc/"+tag, nil, nil)
	if err != nil {
		return nil, err
	}
	w, err := newWinOn(priv, localSize)
	if err != nil {
		return nil, s.errh.invoke(err)
	}
	return w, nil
}

// WinCreate creates a window over an existing communicator (MPI_Win_create).
// Collective over the communicator.
func WinCreate(comm *Comm, localSize int) (*Win, error) {
	priv, err := comm.Dup()
	if err != nil {
		return nil, err
	}
	return newWinOn(priv, localSize)
}

// newWinOn wires a window onto a private communicator the window owns;
// on failure it frees the communicator.
func newWinOn(priv *Comm, localSize int) (*Win, error) {
	w := &Win{comm: priv, base: make([]byte, localSize), locked: map[int]bool{}, lockHolders: map[int]bool{}}
	w.svc = serve(priv, w.handle)
	// Creation is collective; synchronize so no origin races a target whose
	// service is not yet running.
	if err := priv.Barrier(); err != nil {
		_ = w.svc.close()
		return nil, err
	}
	return w, nil
}

// Comm returns the window's private communicator (diagnostics).
func (w *Win) Comm() *Comm { return w.comm }

// Size returns the size of the local exposed region.
func (w *Win) Size() int { return len(w.base) }

// Local returns the local exposed region. The caller must synchronize
// access with Fence epochs, as in MPI.
func (w *Win) Local() []byte { return w.base }

// handle serves one request at this member (service goroutine).
func (w *Win) handle(s *service, src int, r svcRecord) {
	if r.kind == svcLock || r.kind == svcUnlock {
		w.lock(s, src, r)
	} else {
		s.reply(src, w.apply(r))
	}
}

// apply runs a put, get or accumulate on the local region, bounds-checked.
// The local path and the service share it; the reply's kind is the
// outcome's ErrorClass.
func (w *Win) apply(r svcRecord) svcRecord {
	n := max(r.length, len(r.payload)) // a get names its length, the others carry it
	w.mu.Lock()
	defer w.mu.Unlock()
	if r.offset < 0 || r.length < 0 || r.offset > len(w.base)-n || r.kind == svcAcc && n%8 != 0 {
		return failed(ErrClassBuffer)
	}
	region := w.base[r.offset : r.offset+n]
	switch r.kind {
	case svcGet:
		return svcRecord{payload: append([]byte(nil), region...)}
	case svcPut:
		copy(region, r.payload)
	case svcAcc:
		if reduce(Op(r.arg), Int64, region, r.payload, n/8) != nil {
			return failed(ErrClassOther)
		}
	default:
		return failed(ErrClassOther)
	}
	return svcRecord{}
}

// live reports ErrWinFreed once the window is freed.
func (w *Win) live() error { return released(&w.mu, &w.freed, false, ErrWinFreed) }

func (w *Win) checkTarget(target int) error {
	if err := w.live(); err != nil {
		return err
	}
	if target < 0 || target >= w.comm.Size() {
		return fmt.Errorf("%w: window target %d out of range [0,%d)", ErrRank, target, w.comm.Size())
	}
	return nil
}

// rma runs one put, get or accumulate at target.
func (w *Win) rma(target int, r svcRecord) (svcRecord, error) {
	if err := w.checkTarget(target); err != nil {
		return svcRecord{}, err
	}
	return request(w.comm, target, r, w.apply)
}

// Put writes data into the target's exposed region at offset (MPI_Put).
// The call completes when the target has applied the update.
func (w *Win) Put(target, offset int, data []byte) error {
	_, err := w.rma(target, svcRecord{kind: svcPut, offset: offset, payload: data})
	return err
}

// Get reads the target's exposed region at offset into buf (MPI_Get).
func (w *Win) Get(target, offset int, buf []byte) error {
	rep, err := w.rma(target, svcRecord{kind: svcGet, offset: offset, length: len(buf)})
	copy(buf, rep.payload)
	return err
}

// Accumulate applies op element-wise (int64 elements) into the target's
// region (MPI_Accumulate). data length must be a multiple of 8.
func (w *Win) Accumulate(target, offset int, data []byte, op Op) error {
	if len(data)%8 != 0 {
		return fmt.Errorf("mpi: accumulate payload must be int64-aligned")
	}
	_, err := w.rma(target, svcRecord{kind: svcAcc, offset: offset, arg: int(op), payload: data})
	return err
}

// Fence separates RMA access epochs (MPI_Win_fence): all operations issued
// before the fence are complete at their targets when it returns.
func (w *Win) Fence() error {
	if err := w.live(); err != nil {
		return err
	}
	// Operations complete synchronously at the target, so a barrier
	// suffices for epoch separation.
	return w.comm.Barrier()
}

// Free releases the window (MPI_Win_free). Collective. It returns once the
// service goroutine has exited.
func (w *Win) Free() error {
	if err := released(&w.mu, &w.freed, true, ErrWinFreed); err != nil {
		return err
	}
	// No origin targets this member once every member is here.
	err := w.comm.Barrier()
	if cerr := w.svc.close(); err == nil {
		err = cerr
	}
	return err
}
