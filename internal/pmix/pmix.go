// Package pmix is a from-scratch Go implementation of the subset of the
// Process Management Interface for Exascale used by the paper's MPI Sessions
// prototype (§III-A): client/server key-value exchange ("modex"), fences,
// event notification, pset queries, and — centrally — PMIx groups with
// collective construction/destruction, resource-manager-assigned 64-bit
// PGCIDs, completion timeouts, and an asynchronous invite/join mode.
//
// One Server runs per node (hosted on that node's PRRTE daemon); each MPI
// process holds a Client connected to its local server. Collective
// operations follow the paper's three-stage hierarchical pattern: local
// participants notify their server; once all local participants have
// arrived, the server joins an all-to-all exchange with the other
// participating servers; finally each server releases its local waiters.
package pmix

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
)

// Proc identifies one process: a namespace (job) plus a rank within it.
type Proc struct {
	Nspace string
	Rank   int
}

func (p Proc) String() string { return fmt.Sprintf("%s:%d", p.Nspace, p.Rank) }

// Errors returned by client operations.
var (
	ErrTimeout      = errors.New("pmix: operation timed out")
	ErrTerminated   = errors.New("pmix: participant terminated")
	ErrKeyNotFound  = errors.New("pmix: key not found")
	ErrNotConnected = errors.New("pmix: client not initialized")
	ErrBadArgument  = errors.New("pmix: invalid argument")
)

// EventCode classifies runtime events.
type EventCode int

const (
	// EventProcTerminated is raised when a process aborts or exits without
	// finalizing; the source identifies the failed process.
	EventProcTerminated EventCode = iota + 1
	// EventGroupMemberFailed is raised to members of a group whose peer
	// terminated without first leaving the group.
	EventGroupMemberFailed
	// EventGroupInvite is delivered to a process invited to join a group
	// asynchronously.
	EventGroupInvite
	// EventGroupJoinResponse is delivered to an invite initiator when an
	// invitee accepts or declines.
	EventGroupJoinResponse
	// EventGroupConstructed is delivered to accepted invitees when the
	// asynchronous group construct completes.
	EventGroupConstructed
	// EventGroupMemberLeft is raised when a process departs a group.
	EventGroupMemberLeft
	// EventProcRestarted is raised when a previously terminated rank is
	// respawned and reconnects to its server: dynamic psets re-admit it and
	// cached state about the old incarnation must be invalidated.
	EventProcRestarted
)

// Event is one runtime notification. Target, when non-zero, restricts
// delivery to a single process on the receiving node.
type Event struct {
	Code    EventCode
	Source  Proc
	Target  Proc
	Group   string
	PGCID   uint64
	Accept  bool
	Members []int
	Payload []byte
}

// setKey builds a stable key identifying a set of ranks, used to sequence
// collective operations over identical participant sets.
func setKey(ranks []int) string {
	cp := make([]int, len(ranks))
	copy(cp, ranks)
	sort.Ints(cp)
	var buf bytes.Buffer
	for _, r := range cp {
		fmt.Fprintf(&buf, "%d,", r)
	}
	return buf.String()
}

// participantNodes returns the sorted distinct nodes hosting the ranks.
func participantNodes(ranks []int, nodeOf func(int) int) []int {
	seen := make(map[int]bool)
	var nodes []int
	for _, r := range ranks {
		n := nodeOf(r)
		if !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	}
	sort.Ints(nodes)
	return nodes
}
