package mpi

import (
	"fmt"

	"gompi/internal/coll"
	"gompi/internal/pml"
)

// Glue between communicators and the internal/coll framework: the
// transport adapter, the lazily-built per-communicator module (carrying
// the rank-to-node placement map), and the Info-key algorithm hints.

// collHintPrefix is the Info key prefix selecting a collective algorithm
// per communicator: "gompi_coll_<operation>" = "<algorithm>", e.g.
// gompi_coll_allreduce = ring. Unknown algorithm names are rejected.
const collHintPrefix = "gompi_coll_"

// collTransport adapts a communicator's internal point-to-point helpers
// (which ride the PML, and through it the selected BTLs) to the framework.
type collTransport struct{ c *Comm }

func (t collTransport) Rank() int { return t.c.Rank() }
func (t collTransport) Size() int { return t.c.Size() }
func (t collTransport) Send(buf []byte, dest, tag int) error {
	return t.c.sendT(buf, dest, tag)
}
func (t collTransport) Recv(buf []byte, src, tag int) error {
	return t.c.recvT(buf, src, tag)
}
func (t collTransport) Sendrecv(sendBuf []byte, dest int, recvBuf []byte, src, tag int) error {
	return t.c.sendrecvT(sendBuf, dest, recvBuf, src, tag)
}

// collReq adapts a PML request to the schedule engine's completion handle.
type collReq struct{ r *pml.Request }

func (q collReq) Wait() error {
	_, err := q.r.Wait()
	return err
}

func (q collReq) Test() (bool, error) {
	done, _, err := q.r.Test()
	return done, err
}

// Isend and Irecv make collTransport a coll.NBTransport: the seam the
// schedule engine drives, issuing every dependency-free step at once.
func (t collTransport) Isend(buf []byte, dest, tag int) (coll.Req, error) {
	return collReq{t.c.ch.Isend(dest, tag, buf)}, nil
}

func (t collTransport) Irecv(buf []byte, src, tag int) (coll.Req, error) {
	return collReq{t.c.ch.Irecv(src, tag, buf)}, nil
}

// collModule binds the communicator to the instance's collective framework
// on first use, resolving each member's node from the static placement map
// so the hierarchical component can split the communicator.
func (c *Comm) collModule() (*coll.Module, error) {
	c.mu.Lock()
	if c.coll != nil {
		m := c.coll
		c.mu.Unlock()
		return m, nil
	}
	name := c.name
	c.mu.Unlock()

	inst := c.p.inst
	fw := inst.Coll()
	if fw == nil {
		return nil, fmt.Errorf("mpi: collective framework not initialized")
	}
	var nodes []int
	if client := inst.Client(); client != nil {
		nodes = make([]int, len(c.group.ranks))
		for i, r := range c.group.ranks {
			nodes[i] = client.NodeOf(r)
		}
	}
	m := fw.NewModule(collTransport{c}, nodes, name)
	c.mu.Lock()
	if c.coll == nil {
		c.coll = m
	}
	m = c.coll
	c.mu.Unlock()
	return m, nil
}

// applyCollInfo installs every gompi_coll_* hint from info. Like
// MPI_Comm_set_info, the call must be made with identical hints on every
// member — the algorithm choice is part of the collective's schedule.
func (c *Comm) applyCollInfo(info *Info) error {
	if info.Len() == 0 {
		return nil
	}
	m, err := c.collModule()
	if err != nil {
		return err
	}
	for _, op := range coll.Ops() {
		if algo, ok := info.Get(collHintPrefix + op.String()); ok {
			if err := m.SetHint(op, algo); err != nil {
				return err
			}
		}
	}
	return nil
}

// SetInfo applies info hints to the communicator (MPI_Comm_set_info).
// Recognized keys are the gompi_coll_* algorithm selectors; unknown keys
// are ignored per MPI semantics, but a recognized key with an unknown
// algorithm value errors.
func (c *Comm) SetInfo(info *Info) error {
	if err := c.checkLive(); err != nil {
		return c.errh.invoke(err)
	}
	return c.errh.invoke(c.applyCollInfo(info))
}

// GetInfo returns the hints currently in force on the communicator
// (MPI_Comm_get_info).
func (c *Comm) GetInfo() *Info {
	out := NewInfo()
	c.mu.Lock()
	m := c.coll
	c.mu.Unlock()
	if m == nil {
		return out
	}
	for _, op := range coll.Ops() {
		if h := m.Hint(op); h != "" {
			out.Set(collHintPrefix+op.String(), h)
		}
	}
	return out
}
