package mpi

import (
	"fmt"
)

// SplitType values for CommSplitType.
const (
	// SplitTypeShared groups processes that share a node
	// (MPI_COMM_TYPE_SHARED).
	SplitTypeShared = 1
)

// Create builds a communicator over a subgroup, collective over the WHOLE
// parent communicator (MPI_Comm_create): members not in group pass through
// and receive nil. Works in both CID modes — in consensus mode non-members
// echo the reduction rounds, exactly as Split does.
func (c *Comm) Create(group *Group) (*Comm, error) {
	if err := c.checkLive(); err != nil {
		return nil, c.errh.invoke(err)
	}
	// Translate membership to a color and reuse Split's machinery: members
	// get color 0 ordered by their group rank, others Undefined. This is
	// semantically MPI_Comm_create for a single subgroup.
	color := Undefined
	key := 0
	if r := group.Rank(); r != Undefined {
		// Verify the group is a subset of the communicator.
		pos := make(map[int]bool, c.Size())
		for _, gr := range c.group.ranks {
			pos[gr] = true
		}
		for _, gr := range group.ranks {
			if !pos[gr] {
				return nil, c.errh.invoke(fmt.Errorf("mpi: group member %d not in communicator", gr))
			}
		}
		color, key = 0, r
	}
	return c.Split(color, key)
}

// SplitType partitions the communicator by locality (MPI_Comm_split_type).
// Only SplitTypeShared is defined: the result contains the members sharing
// the calling process's node, ordered by key.
func (c *Comm) SplitType(splitType, key int) (*Comm, error) {
	if err := c.checkLive(); err != nil {
		return nil, c.errh.invoke(err)
	}
	if splitType != SplitTypeShared {
		return nil, c.errh.invoke(fmt.Errorf("%w: split type %d", ErrUnsupported, splitType))
	}
	client := c.p.inst.Client()
	if client == nil {
		return nil, c.errh.invoke(ErrNotInitialized)
	}
	// Color by the lowest job rank on this node: unique per node.
	locals := client.LocalRanks()
	return c.Split(locals[0], key)
}

// RangeIncl includes the group ranks described by (first, last, stride)
// triplets, in order (MPI_Group_range_incl).
func (g *Group) RangeIncl(ranges [][3]int) (*Group, error) {
	var ranks []int
	for _, r := range ranges {
		first, last, stride := r[0], r[1], r[2]
		if stride == 0 {
			return nil, fmt.Errorf("mpi: zero stride in range")
		}
		if stride > 0 {
			for v := first; v <= last; v += stride {
				ranks = append(ranks, v)
			}
		} else {
			for v := first; v >= last; v += stride {
				ranks = append(ranks, v)
			}
		}
	}
	return g.Incl(ranks)
}

// RangeExcl excludes the group ranks described by (first, last, stride)
// triplets (MPI_Group_range_excl).
func (g *Group) RangeExcl(ranges [][3]int) (*Group, error) {
	var ranks []int
	for _, r := range ranges {
		first, last, stride := r[0], r[1], r[2]
		if stride == 0 {
			return nil, fmt.Errorf("mpi: zero stride in range")
		}
		if stride > 0 {
			for v := first; v <= last; v += stride {
				ranks = append(ranks, v)
			}
		} else {
			for v := first; v >= last; v += stride {
				ranks = append(ranks, v)
			}
		}
	}
	return g.Excl(ranks)
}

// Idup is the nonblocking communicator duplication (MPI_Comm_idup). The
// duplicate is delivered through the returned channel when the request
// completes. Its request is the one backed by a goroutine: a dup's group
// construct is a blocking call into the runtime, not a schedule of steps
// whose completions could carry it.
func (c *Comm) Idup() (Request, <-chan *Comm, error) {
	if err := c.checkLive(); err != nil {
		return nil, nil, c.errh.invoke(err)
	}
	out := make(chan *Comm, 1)
	req := startGoRequest(func() error {
		dup, err := c.Dup()
		if err != nil {
			return err
		}
		out <- dup
		return nil
	})
	return req, out, nil
}

// CommCreateFromGroup is the package-level spelling of the Sessions
// constructor (MPI_Comm_create_from_group), equivalent to the Session
// method; the group must originate from a session-owning process.
func CommCreateFromGroup(s *Session, group *Group, tag string, info *Info, errh *Errhandler) (*Comm, error) {
	return s.CommCreateFromGroup(group, tag, info, errh)
}

// goRequest runs an operation on a goroutine and completes like a request.
// Idup is its only user; every other nonblocking operation completes
// through the PML or the collective engine.
type goRequest struct {
	done chan struct{}
	err  error
}

func startGoRequest(fn func() error) *goRequest {
	g := &goRequest{done: make(chan struct{})}
	go func() {
		g.err = fn()
		close(g.done)
	}()
	return g
}

func (g *goRequest) Wait() (Status, error) {
	<-g.done
	return Status{}, g.err
}

func (g *goRequest) Test() (bool, Status, error) {
	select {
	case <-g.done:
		return true, Status{}, g.err
	default:
		return false, Status{}, nil
	}
}

func (g *goRequest) Done() <-chan struct{} { return g.done }
