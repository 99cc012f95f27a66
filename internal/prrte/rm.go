package prrte

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The resource manager (RM) is the state every Sessions call leans on
// (§III-A): the pset registry, the PGCID counter, the global name service,
// the parked lookups waiting on it, and the set of ranks known to have
// terminated. It is written once. The DVM holds it at the master daemon and
// reaches it over simnet; the BootServer holds it in the launcher and
// reaches it over TCP. The runtimes differ only in how a request arrives.

// rmOp names one resource-manager request.
type rmOp int

const (
	rmPGCID       rmOp = iota + 1 // replied: a fresh PGCID, optionally registering Name
	rmQuery                       // replied: a copy of the pset registry
	rmLookup                      // replied: a published key, parked while Wait
	rmUpdatePset                  // posted: replace Name's members
	rmDeregPset                   // posted: remove Name
	rmPublish                     // posted: store Key = Val
	rmUnpublish                   // posted: remove Key
	rmNoteDead                    // posted: Rank has terminated
	rmNoteRevived                 // posted: Rank was re-admitted
)

// rmReq is one request to the resource manager.
type rmReq struct {
	Op      rmOp
	Name    string
	Members []int
	Key     string
	Val     []byte
	Rank    int
	Wait    bool
	// Timeout is what is left of the requester's deadline; a parked lookup
	// is answered "not found" and dropped when it passes.
	Timeout time.Duration
}

// size is the modeled wire size of the request on simnet.
func (r rmReq) size() int { return ctrlMsgOverhead + 8*len(r.Members) + len(r.Key) + len(r.Val) }

// rmResp answers a replied request.
type rmResp struct {
	N     uint64 // PGCID
	OK    bool
	Val   []byte
	Psets map[string][]int
}

// size is the modeled wire size of the reply on simnet.
func (r rmResp) size() int { return ctrlMsgOverhead + 16*len(r.Psets) + len(r.Val) }

// resourceManager owns the RM state under one mutex.
type resourceManager struct {
	mu        sync.Mutex //gompilint:lockorder rank=14
	nextPGCID uint64
	psets     map[string][]int
	published map[string][]byte
	lookups   keyWaiters[rmResp]
	dead      map[int]bool
}

func newResourceManager() *resourceManager {
	rm := &resourceManager{
		psets:     make(map[string][]int),
		published: make(map[string][]byte),
		dead:      make(map[int]bool),
	}
	rm.lookups = newKeyWaiters[rmResp](&rm.mu)
	return rm
}

// serve applies one request. reply answers the replied kinds, possibly
// later (a parked lookup), and never under rm.mu; from names the requester,
// so a resent lookup refreshes its parked waiter instead of adding another.
func (rm *resourceManager) serve(req rmReq, from any, reply func(rmResp)) {
	var (
		resp      rmResp
		answer    []func(rmResp) // who gets resp once rm.mu is released
		requester = [1]func(rmResp){reply}
	)
	rm.mu.Lock()
	switch req.Op {
	case rmPGCID:
		rm.nextPGCID++ // PGCIDs are non-zero
		if req.Name != "" {
			rm.registerLocked(req.Name, req.Members)
		}
		resp, answer = rmResp{N: rm.nextPGCID}, requester[:]
	case rmQuery:
		resp.Psets = maps.Clone(rm.psets)
		for name, members := range resp.Psets {
			resp.Psets[name] = slices.Clone(members)
		}
		answer = requester[:]
	case rmLookup:
		resp.Val, resp.OK = rm.published[req.Key]
		if resp.OK || !req.Wait {
			answer = requester[:]
		} else {
			rm.lookups.parkLocked(req.Key, from, req.Timeout, reply)
		}
	case rmUpdatePset:
		rm.registerLocked(req.Name, req.Members)
	case rmDeregPset:
		delete(rm.psets, req.Name)
	case rmPublish:
		resp = rmResp{OK: true, Val: slices.Clone(req.Val)}
		rm.published[req.Key] = resp.Val
		answer = rm.lookups.takeLocked(func(k string) bool { return k == req.Key })
	case rmUnpublish:
		delete(rm.published, req.Key)
	case rmNoteDead:
		rm.dead[req.Rank] = true
	case rmNoteRevived:
		delete(rm.dead, req.Rank)
	}
	rm.mu.Unlock()
	for _, a := range answer {
		a(resp)
	}
}

// registerLocked installs a pset; members are kept sorted, so every runtime
// hands GroupFromPset the same order whatever order they were given in.
func (rm *resourceManager) registerLocked(name string, members []int) {
	cp := slices.Clone(members)
	slices.Sort(cp)
	rm.psets[name] = cp
}

// register installs a launch-time pset: an update nobody waits on.
func (rm *resourceManager) register(name string, members []int) {
	rm.serve(rmReq{Op: rmUpdatePset, Name: name, Members: members}, nil, nil)
}

func (rm *resourceManager) isDead(rank int) bool {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return rm.dead[rank]
}

// keyWaiters parks replied requests on a key until it is satisfied or the
// requester's deadline passes, keyed by (key, requester). The owner's mutex
// guards it; parkLocked and takeLocked run under it, expiry takes it.
type keyWaiters[T any] struct {
	mu *sync.Mutex
	m  map[waiterKey]*keyWaiter[T]
}

type waiterKey struct {
	key  string
	from any
}

type keyWaiter[T any] struct {
	reply func(T)
	timer *time.Timer
}

func newKeyWaiters[T any](mu *sync.Mutex) keyWaiters[T] {
	return keyWaiters[T]{mu: mu, m: make(map[waiterKey]*keyWaiter[T])}
}

// parkLocked parks reply on key for requester from, replacing that
// requester's earlier waiter. When timeout passes first, reply gets the
// zero T ("not found") and the waiter is gone.
func (ws keyWaiters[T]) parkLocked(key string, from any, timeout time.Duration, reply func(T)) {
	k := waiterKey{key, from}
	if old := ws.m[k]; old != nil {
		old.timer.Stop()
	}
	w := &keyWaiter[T]{reply: reply}
	w.timer = time.AfterFunc(timeout, func() {
		ws.mu.Lock()
		current := ws.m[k] == w
		if current {
			delete(ws.m, k)
		}
		ws.mu.Unlock()
		if current {
			var zero T
			reply(zero)
		}
	})
	ws.m[k] = w
}

// takeLocked detaches every waiter whose key matches and returns their
// replies; callers answer them after releasing the mutex. A waiter whose
// timer is already firing is no longer current for it, so exactly one side
// replies.
func (ws keyWaiters[T]) takeLocked(match func(key string) bool) []func(T) {
	var out []func(T)
	for k, w := range ws.m {
		if match(k.key) {
			delete(ws.m, k)
			w.timer.Stop()
			out = append(out, w.reply)
		}
	}
	return out
}

// rmTransport carries requests from one runtime process to the RM: call
// waits for the reply (timeout <= 0 applies the transport's default), post
// does not.
type rmTransport interface {
	call(req rmReq, timeout time.Duration) (rmResp, error)
	post(req rmReq) error
}

// rmClient is the resource-manager half of pmix.Runtime, shared by Daemon
// and BootClient.
type rmClient struct{ t rmTransport }

// AllocPGCID obtains a fresh process-group context ID from the resource
// manager, optionally registering a named pset for the group at the same
// time. A reissued request at worst burns an extra ID, which only needs to
// be unique, not dense.
func (c rmClient) AllocPGCID(groupName string, members []int, timeout time.Duration) (uint64, error) {
	r, err := c.t.call(rmReq{Op: rmPGCID, Name: groupName, Members: members}, timeout)
	if err != nil {
		return 0, fmt.Errorf("prrte: PGCID request: %w", err)
	}
	return r.N, nil
}

// QueryPsets returns a copy of the resource manager's pset registry
// (name -> sorted member ranks).
func (c rmClient) QueryPsets(timeout time.Duration) (map[string][]int, error) {
	r, err := c.t.call(rmReq{Op: rmQuery}, timeout)
	if err != nil {
		return nil, fmt.Errorf("prrte: pset query: %w", err)
	}
	return r.Psets, nil
}

// UpdatePset replaces a pset's membership, used when a process departs a
// group asynchronously.
func (c rmClient) UpdatePset(name string, members []int) error {
	return c.t.post(rmReq{Op: rmUpdatePset, Name: name, Members: members})
}

// DeregisterPset removes a dynamic pset (group destruct).
func (c rmClient) DeregisterPset(name string) error {
	return c.t.post(rmReq{Op: rmDeregPset, Name: name})
}

// PublishGlobal stores a key/value pair in the global name service.
func (c rmClient) PublishGlobal(key string, value []byte) error {
	return c.t.post(rmReq{Op: rmPublish, Key: key, Val: value})
}

// UnpublishGlobal removes a key from the global name service.
func (c rmClient) UnpublishGlobal(key string) error {
	return c.t.post(rmReq{Op: rmUnpublish, Key: key})
}

// LookupGlobal retrieves a globally published value. With timeout > 0 it
// blocks until the key is published or the deadline passes; with
// timeout <= 0 it polls once. A deadline miss is (nil, false, nil).
func (c rmClient) LookupGlobal(key string, timeout time.Duration) ([]byte, bool, error) {
	r, err := c.t.call(rmReq{Op: rmLookup, Key: key, Wait: timeout > 0}, timeout)
	if errors.Is(err, ErrTimeout) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("prrte: lookup %q: %w", key, err)
	}
	return r.Val, r.OK, nil
}

// NoteDeadRank records a terminated rank with the resource manager, which
// uses the set to fail requests that depend on it (pmix.Runtime).
func (c rmClient) NoteDeadRank(rank int) { _ = c.t.post(rmReq{Op: rmNoteDead, Rank: rank}) }

// NoteRevivedRank clears a rank from the terminated set after a respawn
// re-admitted it (pmix.Runtime).
func (c rmClient) NoteRevivedRank(rank int) { _ = c.t.post(rmReq{Op: rmNoteRevived, Rank: rank}) }

// ParseModexKey splits a direct-modex key "modex/<rank>/<key>" into the
// publishing rank and the rank's own key, which is everything after the
// second slash, spaces and slashes included. ok is false unless the prefix,
// a non-negative decimal rank and the second slash are all there.
func ParseModexKey(key string) (rank int, sub string, ok bool) {
	rest, ok := strings.CutPrefix(key, "modex/")
	if !ok {
		return 0, "", false
	}
	rs, sub, ok := strings.Cut(rest, "/")
	if !ok {
		return 0, "", false
	}
	rank, err := strconv.Atoi(rs)
	if err != nil || rs[0] < '0' || rs[0] > '9' { // a sign is not a rank
		return 0, "", false
	}
	return rank, sub, true
}
