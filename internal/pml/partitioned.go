package pml

import (
	"fmt"
	"sort"
)

// Partitioned point-to-point (MPI 4.0 Psend/Precv, mpi/partitioned.go) and
// the persistent-tag discipline both carve their traffic out of the
// internal (negative) tag space, below everything the one-shot collective
// tag generator can emit:
//
//	[ -16 ... ~-2^24 )    one-shot collective windows (mpi.nextCollTag)
//	[ -2^25 ... -2^25-3 ] window and file service tags (mpi/service.go)
//	[ -2^26 ... -2^28 )   persistent-collective windows (ReservePersistentWindow)
//	[ -2^28 ... )         partitioned transfers (PartTag)
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
	// MaxPartitionedTag bounds the user tag of a partitioned transfer so
	// that (tag, partition) pairs stay inside their region.
	MaxPartitionedTag = 1 << 16
)

// maxPersistentWindows keeps the window allocator inside its region.
const maxPersistentWindows = ((1 << 28) - (1 << 26)) / persistentTagWidth

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

// PartTag derives the wire tag of one partition of a partitioned
// transfer. Both sides compute it from the (user tag, partition) pair, so
// each partition travels as an ordinary message through the bucketed
// matcher — out-of-order Pready calls just arrive as out-of-order tags,
// which the matcher already handles — and per-(src, tag) FIFO keeps
// back-to-back Start rounds of the same request ordered. userTag must lie
// in [0, MaxPartitionedTag) and part in [0, MaxPartitions).
func PartTag(userTag, part int) int {
	return partitionedTagBase - userTag*MaxPartitions - part
}
