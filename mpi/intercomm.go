package mpi

import (
	"fmt"
)

// Intercommunicators. MPI 4.0 added MPI_Intercomm_create_from_groups
// precisely for the Sessions model: two disjoint groups — say the client
// and server psets of §II-C — build a communication context with no parent
// communicator and no MPI_COMM_WORLD bridge.
//
// The implementation rides on one exCID channel over the union of the two
// groups, ordered deterministically (the group containing the lowest
// global rank first), so both sides agree on rank translation without
// additional negotiation.

// InterComm connects two disjoint groups of processes.
type InterComm struct {
	comm        *Comm // bridge communicator over the union
	localStart  int
	localSize   int
	remoteStart int
	remoteSize  int
	localRank   int // my rank within the local group
}

// InterCommCreateFromGroups builds an intercommunicator between localGroup
// (which must contain the caller) and remoteGroup (which must be disjoint
// from it). Collective over the union of both groups; all members must
// pass the same tag and the same two groups (each from its own side's
// perspective). This is MPI_Intercomm_create_from_groups.
func (s *Session) InterCommCreateFromGroups(localGroup, remoteGroup *Group, tag string, errh *Errhandler) (*InterComm, error) {
	if err := s.checkLive(); err != nil {
		return nil, s.errh.invoke(err)
	}
	if errh == nil {
		errh = s.errh
	}
	myLocal := localGroup.Rank()
	if myLocal == Undefined {
		return nil, s.errh.invoke(fmt.Errorf("mpi: calling process not in the local group"))
	}
	// Disjointness check.
	in := make(map[int]bool, localGroup.Size())
	for _, r := range localGroup.ranks {
		in[r] = true
	}
	for _, r := range remoteGroup.ranks {
		if in[r] {
			return nil, s.errh.invoke(fmt.Errorf("mpi: intercomm groups overlap at rank %d", r))
		}
	}
	if remoteGroup.Size() == 0 {
		return nil, s.errh.invoke(fmt.Errorf("mpi: empty remote group"))
	}

	// Deterministic union ordering: the group holding the smallest global
	// rank comes first. Both sides compute the same ordering.
	localFirst := minRank(localGroup.ranks) < minRank(remoteGroup.ranks)
	var union []int
	if localFirst {
		union = append(append([]int{}, localGroup.ranks...), remoteGroup.ranks...)
	} else {
		union = append(append([]int{}, remoteGroup.ranks...), localGroup.ranks...)
	}
	bridge, err := s.CommCreateFromGroup(newGroup(s.p, union), "icomm/"+tag, nil, errh)
	if err != nil {
		return nil, err
	}
	ic := &InterComm{comm: bridge, localRank: myLocal}
	if localFirst {
		ic.localStart, ic.localSize = 0, localGroup.Size()
		ic.remoteStart, ic.remoteSize = localGroup.Size(), remoteGroup.Size()
	} else {
		ic.remoteStart, ic.remoteSize = 0, remoteGroup.Size()
		ic.localStart, ic.localSize = remoteGroup.Size(), localGroup.Size()
	}
	return ic, nil
}

func minRank(ranks []int) int {
	m := ranks[0]
	for _, r := range ranks[1:] {
		if r < m {
			m = r
		}
	}
	return m
}

// Rank returns the caller's rank within its local group.
func (ic *InterComm) Rank() int { return ic.localRank }

// Size returns the local group's size (MPI_Comm_size on an intercomm).
func (ic *InterComm) Size() int { return ic.localSize }

// RemoteSize returns the remote group's size (MPI_Comm_remote_size).
func (ic *InterComm) RemoteSize() int { return ic.remoteSize }

// LocalGroup returns the local group (MPI_Comm_group).
func (ic *InterComm) LocalGroup() *Group {
	return newGroup(ic.comm.p, ic.comm.group.ranks[ic.localStart:ic.localStart+ic.localSize])
}

// RemoteGroup returns the remote group (MPI_Comm_remote_group).
func (ic *InterComm) RemoteGroup() *Group {
	return newGroup(ic.comm.p, ic.comm.group.ranks[ic.remoteStart:ic.remoteStart+ic.remoteSize])
}

// checkRemote validates an intercommunicator point-to-point call the way
// checkP2P does for intracommunicators, against the remote group.
func (ic *InterComm) checkRemote(rank, tag int, recv bool) error {
	if err := checkTag(tag, recv); err != nil {
		return err
	}
	if recv && rank == AnySource {
		return nil
	}
	return checkRank("remote rank", rank, ic.remoteSize)
}

// Send sends to a rank of the REMOTE group; intercommunicator
// point-to-point always addresses the other side.
func (ic *InterComm) Send(buf []byte, remoteRank, tag int) error {
	if err := ic.checkRemote(remoteRank, tag, false); err != nil {
		return ic.comm.errh.invoke(err)
	}
	return ic.comm.errh.invoke(ic.comm.ch.Send(ic.remoteStart+remoteRank, tag, buf))
}

// Recv receives from a rank of the remote group (or AnySource within it).
// The returned Status.Source is a remote-group rank.
func (ic *InterComm) Recv(buf []byte, remoteRank, tag int) (Status, error) {
	if err := ic.checkRemote(remoteRank, tag, true); err != nil {
		return Status{}, ic.comm.errh.invoke(err)
	}
	src := remoteRank
	if src != AnySource {
		src += ic.remoteStart
	}
	st, err := ic.comm.ch.Recv(src, tag, buf)
	out := fromPML(st)
	if err == nil {
		out.Source = st.Source - ic.remoteStart
		if out.Source < 0 || out.Source >= ic.remoteSize {
			err = fmt.Errorf("mpi: intercomm received from non-remote rank %d", st.Source)
		}
	}
	return out, ic.comm.errh.invoke(err)
}

// Isend starts a nonblocking send to a remote rank.
func (ic *InterComm) Isend(buf []byte, remoteRank, tag int) Request {
	if err := ic.checkRemote(remoteRank, tag, false); err != nil {
		return &failedRequest{ic.comm.errh.invoke(err)}
	}
	return pmlRequest{ic.comm.ch.Isend(ic.remoteStart+remoteRank, tag, buf)}
}

// Barrier completes when every process in BOTH groups has entered
// (MPI_Barrier on an intercomm).
func (ic *InterComm) Barrier() error {
	return ic.comm.Barrier()
}

// Bcast implements intercommunicator broadcast: data moves from one root
// process in the root group to every process of the other group.
// rootIsLocal selects whether the calling side is the root group; root is
// the root's rank within the root group. Processes of the root group other
// than the root contribute nothing and their buffers are untouched.
func (ic *InterComm) Bcast(buf []byte, root int, rootIsLocal bool) error {
	if rootIsLocal {
		if err := checkRank("local root", root, ic.localSize); err != nil {
			return ic.comm.errh.invoke(err)
		}
		if ic.localRank == root {
			// Linear fan-out to the remote group.
			tag := ic.comm.nextCollTag()
			for r := 0; r < ic.remoteSize; r++ {
				if err := ic.comm.ch.Send(ic.remoteStart+r, tag, buf); err != nil {
					return ic.comm.errh.invoke(err)
				}
			}
			return nil
		}
		// Non-root members of the root group advance the collective tag to
		// stay aligned with the root.
		ic.comm.nextCollTag()
		return nil
	}
	if err := checkRank("remote root", root, ic.remoteSize); err != nil {
		return ic.comm.errh.invoke(err)
	}
	tag := ic.comm.nextCollTag()
	_, err := ic.comm.ch.Recv(ic.remoteStart+root, tag, buf)
	return ic.comm.errh.invoke(err)
}

// Merge combines both groups into one intracommunicator
// (MPI_Intercomm_merge). Processes passing high=false are ordered before
// those passing high=true; each group must pass a uniform value, and the
// two groups must differ (as the standard requires for a defined order).
func (ic *InterComm) Merge(high bool) (*Comm, error) {
	sess := ic.comm.sess
	if sess == nil {
		return nil, fmt.Errorf("mpi: intercomm has no session")
	}
	var union []int
	lg := ic.comm.group.ranks[ic.localStart : ic.localStart+ic.localSize]
	rg := ic.comm.group.ranks[ic.remoteStart : ic.remoteStart+ic.remoteSize]
	if high {
		union = append(append([]int{}, rg...), lg...)
	} else {
		union = append(append([]int{}, lg...), rg...)
	}
	seq := ic.comm.p.inst.NextCommSeq(fmt.Sprintf("merge/%v", ic.comm.ch.Ex()))
	return sess.CommCreateFromGroup(newGroup(ic.comm.p, union),
		fmt.Sprintf("merge/%d.%d/%d", ic.comm.ch.Ex().PGCID, ic.comm.ch.Ex().Sub, seq), nil, ic.comm.errh)
}

// Free releases the intercommunicator.
func (ic *InterComm) Free() error { return ic.comm.Free() }
