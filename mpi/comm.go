package mpi

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"gompi/internal/coll"
	"gompi/internal/core"
	"gompi/internal/core/cid"
	"gompi/internal/pmix"
	"gompi/internal/pml"
)

// builtin communicator identities for the exCID scheme (PGCID field zero,
// distinguished by a reserved subfield value; see cid.NewBuiltin).
const (
	builtinWorld uint8 = 1
	builtinSelf  uint8 = 2
)

// Comm is an MPI communicator.
type Comm struct {
	p     *Process
	sess  *Session
	ch    *pml.Channel
	group *Group
	gen   *cid.Gen // exCID derivation state; nil for consensus-mode comms
	name  string
	errh  *Errhandler

	// freed is set once, by Free or freeLocal; every operation's checkLive
	// reads it without taking mu.
	freed atomic.Bool

	mu      sync.Mutex
	collSeq uint64
	coll    *coll.Module // lazily bound to the instance's coll framework
	attrs   map[int]any
}

// ErrCommFreed is returned when using a communicator after Free.
var ErrCommFreed = errors.New("mpi: communicator has been freed")

// Rank returns the calling process's rank in the communicator.
func (c *Comm) Rank() int { return c.ch.Rank() }

// Size returns the number of processes in the communicator.
func (c *Comm) Size() int { return c.ch.Size() }

// Name returns the communicator's diagnostic name.
func (c *Comm) Name() string { return c.name }

// Group returns the communicator's group (MPI_Comm_group).
func (c *Comm) Group() *Group { return newGroup(c.p, c.group.ranks) }

// Session returns the session this communicator belongs to (nil only for
// communicators of a process that was initialized via the WPM — and even
// those belong to the internal session).
func (c *Comm) Session() *Session { return c.sess }

// LocalCID exposes the communicator's local 16-bit CID (diagnostics).
func (c *Comm) LocalCID() uint16 { return c.ch.LocalCID() }

// ExCID exposes the communicator's 128-bit extended CID; zero-valued in
// consensus mode.
func (c *Comm) ExCID() pml.ExCID { return c.ch.Ex() }

// UsesExCID reports whether this communicator uses extended-CID matching.
func (c *Comm) UsesExCID() bool { return c.gen != nil }

func (c *Comm) checkLive() error {
	if c.freed.Load() {
		return ErrCommFreed
	}
	return nil
}

// nextCollTag returns the internal (negative) tag for the communicator's
// next collective operation. Collectives on one communicator are totally
// ordered at every member, so per-member counters agree. Each collective
// instance owns a window of 16 consecutive tags (neighborhood collectives
// use one slot per neighbour).
func (c *Comm) nextCollTag() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.collSeq++
	return -int(16 + c.collSeq%(1<<20)*16)
}

// newBuiltinComm constructs mpi://world- or mpi://self-backed built-in
// communicators during WPM initialization. In consensus mode they receive
// the reserved consistent CIDs 0 and 1; in exCID mode they carry the
// zero-PGCID built-in exCIDs described in §III-B3.
func newBuiltinComm(p *Process, sess *Session, ranks []int, which uint8) (*Comm, error) {
	inst := p.inst
	engine := inst.Engine()
	myRank := -1
	for i, r := range ranks {
		if r == p.rank {
			myRank = i
		}
	}
	if myRank < 0 {
		return nil, fmt.Errorf("mpi: process %d not in builtin comm ranks", p.rank)
	}
	name := "MPI_COMM_WORLD"
	if which == builtinSelf {
		name = "MPI_COMM_SELF"
	}

	localCID := uint16(which - 1) // world: 0, self: 1, reserved indices
	var gen *cid.Gen
	var ch *pml.Channel
	var err error
	if inst.Config().EffectiveCIDMode() == core.CIDExtended {
		gen = cid.NewBuiltin(which)
		ch, err = engine.AddChannel(localCID, gen.Ex(), true, myRank, ranks)
	} else {
		ch, err = engine.AddChannel(localCID, pml.ExCID{}, false, myRank, ranks)
	}
	if err != nil {
		return nil, fmt.Errorf("mpi: register %s: %w", name, err)
	}
	c := &Comm{
		p:     p,
		sess:  sess,
		ch:    ch,
		group: newGroup(p, ranks),
		gen:   gen,
		name:  name,
		// MPI's default is MPI_ERRORS_ARE_FATAL; as a deliberate Go-idiom
		// deviation, errors are returned by default and callers may opt
		// into fatal behaviour with SetErrhandler(ErrorsAreFatal()).
		errh:  ErrorsReturn(),
		attrs: make(map[int]any),
	}
	sess.commCreated()
	return c, nil
}

// SetErrhandler replaces the communicator's error handler
// (MPI_Comm_set_errhandler).
func (c *Comm) SetErrhandler(h *Errhandler) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if h == nil {
		h = ErrorsReturn()
	}
	c.errh = h
}

// newCommFromGroup implements MPI_Comm_create_from_group: acquire a PGCID
// through the runtime's collective group constructor, pick an independent
// local CID, and register the channel under the resulting exCID.
func newCommFromGroup(s *Session, group *Group, tag string, errh *Errhandler) (*Comm, error) {
	p := s.p
	inst := p.inst
	if inst.Config().EffectiveCIDMode() != core.CIDExtended {
		return nil, fmt.Errorf("%w: CommCreateFromGroup requires exCID support (PMIx groups + ob1)", ErrUnsupported)
	}
	myRank := group.Rank()
	if myRank == Undefined {
		return nil, fmt.Errorf("mpi: calling process %d is not in the group", p.rank)
	}
	ranks := group.GlobalRanks()

	// Re-validate the group against the CURRENT terminated set before the
	// collective: a SurvivorGroup snapshot is one-shot, and a member may
	// have died between the snapshot and this call. Failing here is local
	// and immediate; discovering it inside the group construct would cost
	// every member a control-plane round first.
	for _, dead := range inst.Client().TerminatedRanks() {
		for _, r := range ranks {
			if r == dead {
				return nil, fmt.Errorf("mpi: comm create from group %q: member %d already terminated: %w", tag, r, pmix.ErrTerminated)
			}
		}
	}

	// The runtime collective runs WITHOUT the local CID lock: threads of
	// one process may create communicators from different groups
	// concurrently (the Sessions isolation model, §II-B), and their
	// collectives may complete in different orders on different processes.
	// Holding a process-wide lock across the collective would deadlock.
	gname := "mpi.comm/" + tag
	res, err := inst.Client().GroupConstruct(gname, ranks, groupOpts(inst))
	if err != nil {
		return nil, fmt.Errorf("mpi: comm create from group %q: %w", tag, err)
	}
	gen := cid.NewFromPGCID(res.PGCID)
	ch, err := registerExChannel(inst, gen, myRank, ranks)
	if err != nil {
		return nil, err
	}
	inst.Trace().Logf("comm", "created %q: pgcid=%d localCID=%d size=%d", tag, res.PGCID, ch.LocalCID(), len(ranks))
	c := &Comm{
		p:     p,
		sess:  s,
		ch:    ch,
		group: newGroup(p, ranks),
		gen:   gen,
		name:  fmt.Sprintf("comm(%s)", tag),
		errh:  errh,
		attrs: make(map[int]any),
	}
	s.commCreated()
	return c, nil
}

func groupOpts(inst *core.Instance) pmix.GroupOpts {
	return pmix.GroupOpts{AssignContextID: true, Timeout: inst.Timeout()}
}

// registerExChannel atomically picks a free local CID and registers an
// exCID channel under it. Only this local step takes the CID lock.
func registerExChannel(inst *core.Instance, gen *cid.Gen, myRank int, ranks []int) (*pml.Channel, error) {
	lock := inst.CIDLock()
	lock.Lock()
	defer lock.Unlock()
	engine := inst.Engine()
	return engine.AddChannel(engine.AllocCID(0), gen.Ex(), true, myRank, ranks)
}

// Dup duplicates the communicator (MPI_Comm_dup). The identifier strategy
// follows the paper:
//
//   - consensus mode: the baseline multi-round reduction over the parent;
//   - exCID mode, default: a fresh PGCID from the runtime on every dup,
//     matching the measured prototype behaviour behind Fig. 4;
//   - exCID mode with Config.DupUseSubfields: derive the child exCID from
//     the parent's subfields (§III-B3) with no runtime traffic, falling
//     back to a fresh PGCID when the subfield space is exhausted.
func (c *Comm) Dup() (*Comm, error) {
	if err := c.checkLive(); err != nil {
		return nil, c.errh.invoke(err)
	}
	inst := c.p.inst
	if c.gen == nil {
		// Consensus path over the parent communicator.
		newCID, err := c.consensusCID()
		if err != nil {
			return nil, c.errh.invoke(err)
		}
		ch, err := inst.Engine().AddChannel(newCID, pml.ExCID{}, false, c.Rank(), c.group.ranks)
		if err != nil {
			return nil, c.errh.invoke(err)
		}
		return c.child(ch, nil, c.name+"+dup"), nil
	}

	var gen *cid.Gen
	if inst.Config().DupUseSubfields {
		g, err := c.gen.Derive()
		if err == nil {
			gen = g
		} else if !errors.Is(err, cid.ErrExhausted) {
			return nil, c.errh.invoke(err)
		}
	}
	if gen == nil {
		// Fresh PGCID from the runtime (the prototype's measured path).
		// The sequence number is derived from the parent's identity so
		// concurrent dups of different communicators cannot collide.
		seq := inst.NextCommSeq(fmt.Sprintf("dup/%v", c.ch.Ex()))
		gname := fmt.Sprintf("mpi.dup/%d.%d/%d", c.ch.Ex().PGCID, c.ch.Ex().Sub, seq)
		res, err := inst.Client().GroupConstruct(gname, c.group.ranks, groupOpts(inst))
		if err != nil {
			return nil, c.errh.invoke(fmt.Errorf("mpi: dup: %w", err))
		}
		gen = cid.NewFromPGCID(res.PGCID)
	}
	ch, err := registerExChannel(inst, gen, c.Rank(), c.group.ranks)
	if err != nil {
		return nil, c.errh.invoke(err)
	}
	return c.child(ch, gen, c.name+"+dup"), nil
}

func (c *Comm) child(ch *pml.Channel, gen *cid.Gen, name string) *Comm {
	nc := &Comm{
		p:     c.p,
		sess:  c.sess,
		ch:    ch,
		group: newGroup(c.p, rankSlice(ch)),
		gen:   gen,
		name:  name,
		errh:  c.errh,
		attrs: make(map[int]any),
	}
	if c.sess != nil {
		c.sess.commCreated()
	}
	return nc
}

func rankSlice(ch *pml.Channel) []int {
	out := make([]int, ch.Size())
	for i := range out {
		out[i] = ch.GlobalRank(i)
	}
	return out
}

// consensusCID runs the baseline CID agreement over this communicator.
func (c *Comm) consensusCID() (uint16, error) {
	inst := c.p.inst
	lock := inst.CIDLock()
	lock.Lock()
	defer lock.Unlock()
	engine := inst.Engine()
	return cid.Consensus(commAllreducer{c}, func(min uint16) uint16 {
		return engine.AllocCID(min)
	})
}

// commAllreducer adapts a communicator to the cid.Allreducer interface.
type commAllreducer struct{ c *Comm }

func (a commAllreducer) AllreduceMax2Uint32(v [2]uint32) ([2]uint32, error) {
	in := PackUint32s(v[:])
	out := make([]byte, len(in))
	if err := a.c.Allreduce(in, out, 2, Uint32, OpMax); err != nil {
		return [2]uint32{}, err
	}
	r := UnpackUint32s(out)
	return [2]uint32{r[0], r[1]}, nil
}

// Split partitions the communicator by color (MPI_Comm_split). Processes
// passing Undefined as color receive a nil communicator. Within each new
// communicator, ranks are ordered by (key, parent rank).
func (c *Comm) Split(color, key int) (*Comm, error) {
	if err := c.checkLive(); err != nil {
		return nil, c.errh.invoke(err)
	}
	// Allgather (color, key) over the parent.
	mine := PackInt64s([]int64{int64(color), int64(key)})
	all := make([]byte, 16*c.Size())
	if err := c.Allgather(mine, all); err != nil {
		return nil, c.errh.invoke(fmt.Errorf("mpi: split allgather: %w", err))
	}
	vals := UnpackInt64s(all)

	type member struct{ color, key, parentRank int }
	var mates []member
	for r := 0; r < c.Size(); r++ {
		col := int(vals[2*r])
		if col == color && color != Undefined {
			mates = append(mates, member{col, int(vals[2*r+1]), r})
		}
	}
	inst := c.p.inst

	if color == Undefined {
		// Non-members still participate in consensus rounds in consensus
		// mode (they echo the floor); in exCID mode they are done.
		if c.gen == nil {
			colors := collectColors(vals)
			for range colors {
				if _, err := c.consensusCIDNonMember(); err != nil {
					return nil, c.errh.invoke(err)
				}
			}
		}
		return nil, nil
	}

	sort.Slice(mates, func(i, j int) bool {
		if mates[i].key != mates[j].key {
			return mates[i].key < mates[j].key
		}
		return mates[i].parentRank < mates[j].parentRank
	})
	subRanks := make([]int, len(mates))
	myNew := -1
	for i, m := range mates {
		subRanks[i] = c.group.ranks[m.parentRank]
		if m.parentRank == c.Rank() {
			myNew = i
		}
	}

	if c.gen == nil {
		// Consensus mode: every color's members run the agreement while the
		// other parent ranks echo; colors are processed in sorted order so
		// all members iterate identically.
		colors := collectColors(vals)
		var myCID uint16
		for _, col := range colors {
			if col == color {
				v, err := c.consensusCID()
				if err != nil {
					return nil, c.errh.invoke(err)
				}
				myCID = v
			} else {
				if _, err := c.consensusCIDNonMember(); err != nil {
					return nil, c.errh.invoke(err)
				}
			}
		}
		ch, err := inst.Engine().AddChannel(myCID, pml.ExCID{}, false, myNew, subRanks)
		if err != nil {
			return nil, c.errh.invoke(err)
		}
		return c.child(ch, nil, fmt.Sprintf("%s+split(%d)", c.name, color)), nil
	}

	// exCID mode: each color's communicator gets its own PGCID. The split
	// is partial participation from the parent's viewpoint, so subfield
	// derivation is not applicable (§III-B3).
	seq := inst.NextCommSeq(fmt.Sprintf("split/%v", c.ch.Ex()))
	gname := fmt.Sprintf("mpi.split/%d.%d/%d/%d", c.ch.Ex().PGCID, c.ch.Ex().Sub, color, seq)
	res, err := inst.Client().GroupConstruct(gname, subRanks, groupOpts(inst))
	if err != nil {
		return nil, c.errh.invoke(fmt.Errorf("mpi: split: %w", err))
	}
	gen := cid.NewFromPGCID(res.PGCID)
	ch, err := registerExChannel(inst, gen, myNew, subRanks)
	if err != nil {
		return nil, c.errh.invoke(err)
	}
	return c.child(ch, gen, fmt.Sprintf("%s+split(%d)", c.name, color)), nil
}

func collectColors(vals []int64) []int {
	seen := make(map[int]bool)
	var colors []int
	for i := 0; i < len(vals); i += 2 {
		col := int(vals[i])
		if col != Undefined && !seen[col] {
			seen[col] = true
			colors = append(colors, col)
		}
	}
	sort.Ints(colors)
	return colors
}

// consensusCIDNonMember participates in another subgroup's consensus rounds
// without proposing: it echoes the floor so the reduction structure stays
// collective over the parent.
func (c *Comm) consensusCIDNonMember() (uint16, error) {
	return cid.Consensus(commAllreducer{c}, func(min uint16) uint16 { return min })
}

// CreateGroup builds a communicator over a subgroup of this communicator,
// collective only over the subgroup's members (MPI_Comm_create_group). In
// the exCID scheme partial participation always acquires a fresh PGCID
// (§III-B3); the operation is unsupported in consensus mode.
func (c *Comm) CreateGroup(group *Group, tag int) (*Comm, error) {
	if err := c.checkLive(); err != nil {
		return nil, c.errh.invoke(err)
	}
	if c.gen == nil {
		return nil, c.errh.invoke(fmt.Errorf("%w: MPI_Comm_create_group needs the exCID generator", ErrUnsupported))
	}
	myRank := group.Rank()
	if myRank == Undefined {
		return nil, c.errh.invoke(fmt.Errorf("mpi: calling process not in group"))
	}
	inst := c.p.inst
	ranks := group.GlobalRanks()
	gname := fmt.Sprintf("mpi.cgrp/%d.%d/%d", c.ch.Ex().PGCID, c.ch.Ex().Sub, tag)
	res, err := inst.Client().GroupConstruct(gname, ranks, groupOpts(inst))
	if err != nil {
		return nil, c.errh.invoke(fmt.Errorf("mpi: create_group: %w", err))
	}
	gen := cid.NewFromPGCID(res.PGCID)
	ch, err := registerExChannel(inst, gen, myRank, ranks)
	if err != nil {
		return nil, c.errh.invoke(err)
	}
	return c.child(ch, gen, fmt.Sprintf("%s+cgrp(%d)", c.name, tag)), nil
}

// Revoke marks the communicator revoked on every member (the ULFM
// MPIX_Comm_revoke analogue). All pending and future operations on it —
// on every rank, not just the caller — fail with an error of class
// ErrClassRevoked. A rank that observes a process failure revokes the
// communicator before freeing it, so survivors blocked in operations
// among themselves (which no failure event will ever fail) are
// interrupted and reach the rebuild too. Revoking twice, or revoking a
// communicator another member already revoked, is a no-op.
func (c *Comm) Revoke() error {
	if err := c.checkLive(); err != nil {
		return c.errh.invoke(err)
	}
	c.p.inst.Engine().Revoke(c.ch)
	return nil
}

// Free releases the communicator's local resources (MPI_Comm_free).
// Like the prototype, runtime-level PMIx group state is not destructed
// here; it is reclaimed with the session.
func (c *Comm) Free() error {
	if !c.freed.CompareAndSwap(false, true) {
		return ErrCommFreed
	}
	c.mu.Lock()
	c.coll = nil // compiled schedules and their parked run states go with the communicator
	c.mu.Unlock()
	c.p.inst.Engine().RemoveChannel(c.ch)
	if c.sess != nil {
		c.sess.commFreed()
	}
	return nil
}

// freeLocal tears down without session bookkeeping errors during aborts.
func (c *Comm) freeLocal() {
	if !c.freed.CompareAndSwap(false, true) {
		return
	}
	c.mu.Lock()
	c.coll = nil
	c.mu.Unlock()
	if e := c.p.inst.Engine(); e != nil {
		e.RemoveChannel(c.ch)
	}
	if c.sess != nil {
		c.sess.commFreed()
	}
}

// SetName sets the communicator's diagnostic name (MPI_Comm_set_name).
func (c *Comm) SetName(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.name = name
}

// AttrSet caches an attribute on the communicator (MPI_Comm_set_attr).
func (c *Comm) AttrSet(keyval int, value any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attrs[keyval] = value
}

// AttrGet retrieves a communicator attribute (MPI_Comm_get_attr).
func (c *Comm) AttrGet(keyval int) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.attrs[keyval]
	return v, ok
}

// AttrDelete removes a communicator attribute (MPI_Comm_delete_attr).
func (c *Comm) AttrDelete(keyval int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.attrs, keyval)
}

// Compare relates two communicators (MPI_Comm_compare): Ident only for the
// same handle, Congruent for equal groups with different contexts.
func (c *Comm) Compare(other *Comm) int {
	if c == other {
		return Ident
	}
	g := c.group.Compare(other.group)
	if g == Ident {
		return Congruent
	}
	return g
}
