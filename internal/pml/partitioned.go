package pml

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Partitioned point-to-point (MPI 4.0 Psend/Precv) and the persistent-tag
// discipline both carve their traffic out of the internal (negative) tag
// space, below everything the one-shot collective tag generator can emit:
//
//	[ -16 ... ~-2^24 )    one-shot collective windows (mpi.nextCollTag)
//	[ -2^25 ... -2^25-3 ] window and file service tags (mpi/service.go)
//	[ -2^26 ... -2^28 )   persistent-collective windows (ReservePersistentWindow)
//	[ -2^28 ... )         partitioned transfers (partTag)
//
// The regions are disjoint by construction, so persistent collectives can
// run concurrently with one-shot collectives and partitioned transfers on
// the same communicator without any tag collision — and because every tag
// is negative, every region inherits the matcher's internal-traffic semantics
// (no AnyTag matching, deadMember fail-fast).
const (
	// persistentTagBase is the highest (closest to zero) persistent-window
	// tag; windows grow downward from here.
	persistentTagBase = -(1 << 26)
	// persistentTagWidth is the tag count per window, matching the
	// schedule builder's 16-offset budget.
	persistentTagWidth = 16
	// partitionedTagBase is the highest partitioned-transfer tag.
	partitionedTagBase = -(1 << 28)
	// MaxPartitions bounds the partition count of one transfer.
	MaxPartitions = 1 << 10
	// maxPartitionedUserTag bounds the user tag of a partitioned transfer
	// so that (tag, partition) pairs stay inside their region.
	maxPartitionedUserTag = 1 << 16
)

// maxPersistentWindows keeps the window allocator inside its region.
const maxPersistentWindows = ((1 << 28) - (1 << 26)) / persistentTagWidth

// ErrNotStarted is reported when a partition operation (Pready, Parrived,
// Wait) is applied to a partitioned request with no active Start round.
var ErrNotStarted = errors.New("pml: partitioned request not started")

// ErrStillActive is reported when Free or Start is applied to a
// partitioned request whose current round has not completed.
var ErrStillActive = errors.New("pml: partitioned request still active")

// ErrFreed is reported when a freed partitioned request is reused.
var ErrFreed = errors.New("pml: partitioned request already freed")

// ReservePersistentWindow reserves a block of persistentTagWidth internal
// tags for a persistent collective and returns its base tag (use base,
// base-1, ..., base-width+1). Windows are recycled lowest-first, so
// members that issue their Init and Free calls in the same order — the
// MPI requirement for persistent collectives — independently compute the
// same base tag with no extra traffic.
func (ch *Channel) ReservePersistentWindow() (int, error) {
	ch.lock.Lock()
	defer ch.lock.Unlock()
	var w int
	if len(ch.persFree) > 0 {
		w = ch.persFree[0]
		ch.persFree = ch.persFree[1:]
	} else {
		if ch.persNext >= maxPersistentWindows {
			return 0, fmt.Errorf("pml: persistent tag windows exhausted (%d reserved)", ch.persNext)
		}
		w = ch.persNext
		ch.persNext++
	}
	return persistentTagBase - w*persistentTagWidth, nil
}

// ReleasePersistentWindow returns a window to the channel's allocator.
func (ch *Channel) ReleasePersistentWindow(base int) {
	w := (persistentTagBase - base) / persistentTagWidth
	if w < 0 || (persistentTagBase-base)%persistentTagWidth != 0 {
		return // not a window base; ignore like MPI_Comm_free ignores junk
	}
	ch.lock.Lock()
	defer ch.lock.Unlock()
	if w >= ch.persNext {
		return
	}
	i := sort.SearchInts(ch.persFree, w)
	if i < len(ch.persFree) && ch.persFree[i] == w {
		return // double release
	}
	ch.persFree = append(ch.persFree, 0)
	copy(ch.persFree[i+1:], ch.persFree[i:])
	ch.persFree[i] = w
}

// partTag derives the wire tag of one partition. Both sides compute it
// from the (user tag, partition) pair, so each partition travels as an
// ordinary message through the bucketed matcher — out-of-order Pready
// calls just arrive as out-of-order tags, which the matcher already
// handles — and per-(src, tag) FIFO keeps back-to-back Start rounds of
// the same request ordered.
func partTag(userTag, part int) int {
	return partitionedTagBase - userTag*MaxPartitions - part
}

// checkPartArgs validates the shared PsendInit/PrecvInit contract.
func checkPartArgs(userTag, partitions, bufLen int) error {
	if userTag < 0 || userTag >= maxPartitionedUserTag {
		return fmt.Errorf("pml: partitioned tag %d out of range [0,%d)", userTag, maxPartitionedUserTag)
	}
	if partitions < 1 || partitions > MaxPartitions {
		return fmt.Errorf("pml: partition count %d out of range [1,%d]", partitions, MaxPartitions)
	}
	if bufLen%partitions != 0 {
		return fmt.Errorf("pml: buffer length %d not divisible into %d partitions", bufLen, partitions)
	}
	return nil
}

// PartSend is a partitioned send request (MPI_Psend_init). One Start
// arms a round; each partition is contributed independently — from any
// goroutine, in any order — with Pready, and the round completes when
// every partition has been contributed and delivered. The request is
// reusable: Wait (or a successful Test) rearms it for the next Start.
type PartSend struct {
	ch    *Channel
	dest  int
	tag   int
	buf   []byte
	chunk int

	mu      sync.Mutex
	cond    *sync.Cond
	started bool
	freed   bool
	readyN  int
	ready   []bool
	reqs    []*Request
}

// PsendInit creates a partitioned send of buf to dest, split into
// partitions equal chunks. No data moves until Start and Pready.
func (ch *Channel) PsendInit(dest, tag int, buf []byte, partitions int) (*PartSend, error) {
	if err := checkPartArgs(tag, partitions, len(buf)); err != nil {
		return nil, err
	}
	if dest < 0 || dest >= len(ch.ranks) {
		return nil, fmt.Errorf("pml: send dest %d out of range [0,%d)", dest, len(ch.ranks))
	}
	s := &PartSend{
		ch:    ch,
		dest:  dest,
		tag:   tag,
		buf:   buf,
		chunk: len(buf) / partitions,
		ready: make([]bool, partitions),
		reqs:  make([]*Request, partitions),
	}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// Partitions returns the partition count.
func (s *PartSend) Partitions() int { return len(s.ready) }

// Start arms a new round. Every partition reverts to not-ready. Arming
// only rewinds preallocated per-partition state, so the partitioned hot
// path starts rounds without allocating.
//
//gompilint:noalloc
func (s *PartSend) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.freed {
		return ErrFreed
	}
	if s.started {
		return ErrStillActive
	}
	s.started = true
	s.readyN = 0
	for i := range s.ready {
		s.ready[i] = false
		s.reqs[i] = nil
	}
	return nil
}

// Pready marks partition p ready and injects it. The partition's bytes
// must not be modified afterwards until the round completes.
func (s *PartSend) Pready(p int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.freed {
		return ErrFreed
	}
	if !s.started {
		return ErrNotStarted
	}
	if p < 0 || p >= len(s.ready) {
		return fmt.Errorf("pml: partition %d out of range [0,%d)", p, len(s.ready))
	}
	if s.ready[p] {
		return fmt.Errorf("pml: partition %d already marked ready", p)
	}
	s.ready[p] = true
	s.reqs[p] = s.ch.Isend(s.dest, partTag(s.tag, p), s.buf[p*s.chunk:(p+1)*s.chunk])
	s.readyN++
	s.cond.Broadcast()
	return nil
}

// Wait blocks until every partition has been marked ready and delivered,
// then rearms the request for the next Start.
func (s *PartSend) Wait() error {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return ErrNotStarted
	}
	for s.readyN < len(s.ready) {
		s.cond.Wait()
	}
	reqs := append([]*Request(nil), s.reqs...)
	s.mu.Unlock()
	err := WaitAll(reqs...)
	s.mu.Lock()
	s.started = false
	s.mu.Unlock()
	return err
}

// Test reports whether the round has completed, rearming the request when
// it has. An inactive request tests as complete, as MPI_Test does.
func (s *PartSend) Test() (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started {
		return true, nil
	}
	if s.readyN < len(s.ready) {
		return false, nil
	}
	var first error
	for _, r := range s.reqs {
		done, _, err := r.Test()
		if !done {
			return false, nil
		}
		if err != nil && first == nil {
			first = err
		}
	}
	s.started = false
	return true, first
}

// Free releases the request. Freeing an active round is an error.
func (s *PartSend) Free() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.freed {
		return ErrFreed
	}
	if s.started {
		return ErrStillActive
	}
	s.freed = true
	return nil
}

// PartRecv is a partitioned receive request (MPI_Precv_init). Start posts
// every partition's receive at once; Parrived polls a single partition so
// consumers can begin work on early partitions while later ones are still
// in flight.
type PartRecv struct {
	ch    *Channel
	src   int
	tag   int
	buf   []byte
	chunk int

	mu      sync.Mutex
	started bool
	freed   bool
	reqs    []*Request
	arrived []bool
	doneN   int // partitions observed complete this round
}

// PrecvInit creates a partitioned receive into buf from src, split into
// partitions equal chunks.
func (ch *Channel) PrecvInit(src, tag int, buf []byte, partitions int) (*PartRecv, error) {
	if err := checkPartArgs(tag, partitions, len(buf)); err != nil {
		return nil, err
	}
	if src < 0 || src >= len(ch.ranks) {
		return nil, fmt.Errorf("pml: recv src %d out of range [0,%d)", src, len(ch.ranks))
	}
	return &PartRecv{
		ch:      ch,
		src:     src,
		tag:     tag,
		buf:     buf,
		chunk:   len(buf) / partitions,
		reqs:    make([]*Request, partitions),
		arrived: make([]bool, partitions),
	}, nil
}

// Partitions returns the partition count.
func (r *PartRecv) Partitions() int { return len(r.reqs) }

// Start arms a new round, posting one receive per partition.
func (r *PartRecv) Start() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.freed {
		return ErrFreed
	}
	if r.started {
		return ErrStillActive
	}
	r.started = true
	r.doneN = 0
	for p := range r.reqs {
		r.arrived[p] = false
		r.reqs[p] = r.ch.Irecv(r.src, partTag(r.tag, p), r.buf[p*r.chunk:(p+1)*r.chunk])
	}
	return nil
}

// Parrived reports whether partition p has landed; its bytes are readable
// as soon as this returns true, even while other partitions are pending.
func (r *PartRecv) Parrived(p int) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.freed {
		return false, ErrFreed
	}
	if !r.started {
		return false, ErrNotStarted
	}
	if p < 0 || p >= len(r.reqs) {
		return false, fmt.Errorf("pml: partition %d out of range [0,%d)", p, len(r.reqs))
	}
	if r.arrived[p] {
		return true, nil
	}
	done, _, err := r.reqs[p].Test()
	if done {
		r.arrived[p] = true
		r.doneN++
	}
	return done, err
}

// Wait blocks until every partition has landed, then rearms the request.
func (r *PartRecv) Wait() error {
	r.mu.Lock()
	if !r.started {
		r.mu.Unlock()
		return ErrNotStarted
	}
	reqs := append([]*Request(nil), r.reqs...)
	r.mu.Unlock()
	err := WaitAll(reqs...)
	r.mu.Lock()
	r.started = false
	r.mu.Unlock()
	return err
}

// Test reports whether the round has completed, rearming the request when
// it has. An inactive request tests as complete.
func (r *PartRecv) Test() (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.started {
		return true, nil
	}
	var first error
	for p, req := range r.reqs {
		if r.arrived[p] {
			continue
		}
		done, _, err := req.Test()
		if !done {
			return false, nil
		}
		r.arrived[p] = true
		r.doneN++
		if err != nil && first == nil {
			first = err
		}
	}
	r.started = false
	return true, first
}

// Free releases the request. Freeing an active round is an error.
func (r *PartRecv) Free() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.freed {
		return ErrFreed
	}
	if r.started {
		return ErrStillActive
	}
	r.freed = true
	return nil
}
