// Package prrte is a Go analogue of the PMIx Reference RunTime Environment:
// the distributed virtual machine (DVM) of per-node daemons that hosts PMIx
// servers on systems without native PMIx support.
//
// Each simulated node runs one Daemon. Daemons provide the services the
// paper's prototype relied on (§III-A):
//
//   - a generalized all-to-all data exchange between the daemons of the
//     nodes participating in an operation (used by PMIx fences and the
//     three-stage hierarchical group construct/destruct);
//   - allocation of Process Group Context IDs (PGCIDs) — unique, non-zero
//     64-bit IDs handed out by the resource manager (the master daemon);
//   - a registry of named process sets (static, from the launch, and
//     dynamic, from PMIx group construction) answering pset queries;
//   - direct fetch of published data from a remote node's server ("direct
//     modex", used when a process is discovered on first communication);
//   - broadcast of runtime events (e.g. process-failure notifications).
package prrte

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"gompi/internal/simnet"
	"gompi/internal/topo"
)

// ErrTimeout is returned when a collective daemon operation does not
// complete within its deadline (e.g. a participant never joined).
var ErrTimeout = errors.New("prrte: operation timed out")

// ErrShutdown is returned when the DVM has been torn down.
var ErrShutdown = errors.New("prrte: DVM is shut down")

// ErrDeadParticipant is returned when a control-plane operation is aborted
// because it depends on a rank the resource manager knows has terminated.
// Unlike ErrTimeout it is not retryable: waiting longer cannot produce a
// contribution from a dead process.
var ErrDeadParticipant = errors.New("prrte: participant terminated")

const ctrlMsgOverhead = 32 // modeled header bytes for daemon control traffic

// ServerHandler is implemented by the PMIx server hosted on a daemon; the
// daemon calls it to service inbound requests from remote daemons.
type ServerHandler interface {
	// HandleFetch returns locally published data for key, if present.
	HandleFetch(key string) ([]byte, bool)
	// HandleEvent delivers a broadcast runtime event. It is called from the
	// daemon's receive loop and under its broadcast lock, so it must only
	// queue the event, never run handlers or block on them.
	HandleEvent(data []byte)
}

// JobMap describes where the ranks of a launched job live. Ranks are mapped
// onto nodes in contiguous blocks of PPN, matching the block mapping used
// for the paper's runs (fully-subscribed nodes).
type JobMap struct {
	NP  int // total ranks
	PPN int // ranks per node
}

// NodeOf returns the node hosting a rank.
func (m JobMap) NodeOf(rank int) int { return rank / m.PPN }

// Nodes returns how many nodes the job spans.
func (m JobMap) Nodes() int { return (m.NP + m.PPN - 1) / m.PPN }

// RanksOn lists the ranks hosted on one node, in ascending order.
func (m JobMap) RanksOn(node int) []int {
	lo := node * m.PPN
	hi := lo + m.PPN
	if hi > m.NP {
		hi = m.NP
	}
	if lo >= hi {
		return nil
	}
	out := make([]int, 0, hi-lo)
	for r := lo; r < hi; r++ {
		out = append(out, r)
	}
	return out
}

// LocalCount returns the number of ranks on a node.
func (m JobMap) LocalCount(node int) int { return len(m.RanksOn(node)) }

// control messages exchanged between daemons.
type (
	xchgMsg struct {
		OpKey string
		Node  int
		Data  []byte
		// Want marks a retry round: the sender is still missing this
		// daemon's contribution for OpKey and asks for it to be (re)sent,
		// either from the pending op or from the completed-op cache.
		Want bool
	}
	pgcidReq struct {
		ReplyTo simnet.Addr
		Name    string // group name to register alongside the ID ("" = none)
		Members []int
	}
	pgcidResp struct {
		ID uint64
	}
	psetDeregister struct {
		Name string
	}
	psetUpdate struct {
		Name    string
		Members []int
	}
	queryReq struct {
		ReplyTo simnet.Addr
	}
	queryResp struct {
		Names map[string][]int
	}
	fetchReq struct {
		ReplyTo simnet.Addr
		Key     string
	}
	fetchResp struct {
		Key  string
		Data []byte
		OK   bool
	}
	publishMsg struct {
		Key   string
		Value []byte
	}
	unpublishMsg struct {
		Key string
	}
	lookupReq struct {
		ReplyTo simnet.Addr
		Key     string
		Wait    bool
	}
	lookupResp struct {
		Value []byte
		OK    bool
	}
	eventMsg struct {
		Data []byte
		// Root and Relay drive the binomial broadcast routing: relayed
		// events are re-forwarded to this daemon's children in the tree
		// rooted at Root. Targeted notifications set Relay false.
		Root  int
		Relay bool
	}
)

// pendingOp accumulates all-to-all contributions for one operation key.
type pendingOp struct {
	contribs map[int][]byte
	waiters  []chan struct{}
}

// Daemon is one prted: the runtime agent on a single node.
type Daemon struct {
	dvm  *DVM
	node int
	ep   *simnet.Endpoint

	mu  sync.Mutex //gompilint:lockorder rank=12
	ops map[string]*pendingOp
	// completed is a bounded ring of finished exchanges (full result kept)
	// so a peer that missed this daemon's contribution can still recover it
	// after the op's pending state is gone; completedOrder drives eviction.
	completed      map[string]map[int][]byte
	completedOrder []string

	handler   ServerHandler
	handlerMu sync.RWMutex //gompilint:lockorder rank=10

	// bcastMu makes BroadcastEvent atomic, so two broadcasts from this
	// daemon reach every node, this one included, in one order.
	bcastMu sync.Mutex //gompilint:lockorder rank=9
}

// Node returns the node index this daemon manages.
func (d *Daemon) Node() int { return d.node }

// Fabric returns the fabric this daemon communicates over.
func (d *Daemon) Fabric() *simnet.Fabric { return d.dvm.fabric }

// RPCDelay charges the modeled client-to-server RPC cost (pmix.Runtime).
func (d *Daemon) RPCDelay() { d.dvm.fabric.RPCDelay() }

// Profile returns the cluster's timing profile (pmix.Runtime).
func (d *Daemon) Profile() topo.Profile { return d.dvm.fabric.Cluster().Profile }

// PublishModex is a no-op for the in-process daemon (pmix.Runtime): remote
// servers fetch committed data on demand through the ServerHandler, so there
// is nothing to mirror.
func (d *Daemon) PublishModex(rank int, kv map[string][]byte) {}

// Addr returns the daemon's fabric address.
func (d *Daemon) Addr() simnet.Addr { return d.ep.Addr() }

// NoteDeadRank records a terminated rank with the resource manager
// (pmix.Runtime). In simulator mode the DVM state is shared memory, so the
// note is visible to every daemon immediately.
func (d *Daemon) NoteDeadRank(rank int) { d.dvm.noteDeadRank(rank) }

// NoteRevivedRank clears a rank from the terminated set after a respawn
// re-admitted it (pmix.Runtime).
func (d *Daemon) NoteRevivedRank(rank int) { d.dvm.noteRevivedRank(rank) }

// RankDead reports whether the resource manager knows rank has terminated.
func (d *Daemon) RankDead(rank int) bool { return d.dvm.rankDead(rank) }

// AttachServer registers the PMIx server handler for inbound requests.
func (d *Daemon) AttachServer(h ServerHandler) {
	d.handlerMu.Lock()
	d.handler = h
	d.handlerMu.Unlock()
}

func (d *Daemon) run() {
	for {
		m, err := d.ep.Recv(0)
		if err != nil {
			return // endpoint closed: DVM shutdown
		}
		switch msg := m.Ctrl.(type) {
		case xchgMsg:
			d.handleXchg(msg)
		case pgcidReq:
			// Only the master daemon receives these.
			id := d.dvm.allocPGCID()
			if msg.Name != "" {
				d.dvm.registerPset(msg.Name, msg.Members)
			}
			_ = d.ep.Send(msg.ReplyTo, simnet.Message{Ctrl: pgcidResp{ID: id}, Size: ctrlMsgOverhead})
		case psetDeregister:
			d.dvm.deregisterPset(msg.Name)
		case psetUpdate:
			d.dvm.registerPset(msg.Name, msg.Members)
		case publishMsg:
			d.dvm.publish(msg.Key, msg.Value)
		case unpublishMsg:
			d.dvm.unpublish(msg.Key)
		case lookupReq:
			if v, ok := d.dvm.lookup(msg.Key); ok {
				_ = d.ep.Send(msg.ReplyTo, simnet.Message{Ctrl: lookupResp{Value: v, OK: true}, Size: ctrlMsgOverhead + len(v)})
			} else if msg.Wait {
				d.dvm.addLookupWaiter(msg.Key, msg.ReplyTo, d)
			} else {
				_ = d.ep.Send(msg.ReplyTo, simnet.Message{Ctrl: lookupResp{}, Size: ctrlMsgOverhead})
			}
		case queryReq:
			names := d.dvm.psetSnapshot()
			_ = d.ep.Send(msg.ReplyTo, simnet.Message{Ctrl: queryResp{Names: names}, Size: ctrlMsgOverhead + 16*len(names)})
		case fetchReq:
			var (
				data []byte
				ok   bool
			)
			d.handlerMu.RLock()
			h := d.handler
			d.handlerMu.RUnlock()
			if h != nil {
				data, ok = h.HandleFetch(msg.Key)
			}
			_ = d.ep.Send(msg.ReplyTo, simnet.Message{
				Ctrl: fetchResp{Key: msg.Key, Data: data, OK: ok},
				Size: ctrlMsgOverhead + len(data),
			})
		case eventMsg:
			if msg.Relay {
				d.relayEvent(msg)
			}
			d.handlerMu.RLock()
			h := d.handler
			d.handlerMu.RUnlock()
			if h != nil {
				h.HandleEvent(msg.Data)
			}
		}
	}
}

// handleXchg processes an inbound all-to-all message: record the peer's
// contribution, and if the peer flagged Want, re-offer our own contribution
// (from the pending op or the completed cache) so a dropped send converges.
func (d *Daemon) handleXchg(msg xchgMsg) {
	own, resend := d.recordContribution(msg)
	if resend && msg.Node != d.node {
		_ = d.ep.Send(d.dvm.daemonAddr(msg.Node), simnet.Message{
			Ctrl: xchgMsg{OpKey: msg.OpKey, Node: d.node, Data: own},
			Size: ctrlMsgOverhead + len(own),
		})
	}
}

// recordContribution stores one peer contribution and reports whether this
// daemon should answer a Want request with its own contribution. A
// contribution for an operation this daemon already completed is stale and
// ignored — recreating pending state for it would leak — but the Want side
// is still served from the completed cache.
func (d *Daemon) recordContribution(msg xchgMsg) (own []byte, resend bool) {
	d.mu.Lock()
	if res, done := d.completed[msg.OpKey]; done {
		if msg.Want {
			own, resend = res[d.node], true
		}
		d.mu.Unlock()
		return own, resend
	}
	op := d.ops[msg.OpKey]
	if op == nil {
		op = &pendingOp{contribs: make(map[int][]byte)}
		d.ops[msg.OpKey] = op
	}
	op.contribs[msg.Node] = msg.Data
	if msg.Want {
		own, resend = op.contribs[d.node]
	}
	waiters := op.waiters
	op.waiters = nil
	d.mu.Unlock()
	for _, w := range waiters {
		close(w)
	}
	return own, resend
}

// rememberCompletedLocked moves a finished exchange into the completed ring,
// evicting the oldest entry beyond completedOpCache. Caller holds d.mu.
func (d *Daemon) rememberCompletedLocked(opKey string, result map[int][]byte) {
	if d.completed == nil {
		d.completed = make(map[string]map[int][]byte)
	}
	if _, ok := d.completed[opKey]; !ok {
		d.completedOrder = append(d.completedOrder, opKey)
		for len(d.completedOrder) > completedOpCache {
			delete(d.completed, d.completedOrder[0])
			d.completedOrder = d.completedOrder[1:]
		}
	}
	d.completed[opKey] = result
}

// replyEndpoint allocates a transient endpoint for one request/response
// round-trip. Using a fresh endpoint keeps responses from interleaving with
// the daemon's main loop traffic.
func (d *Daemon) replyEndpoint() *simnet.Endpoint {
	return d.dvm.fabric.NewEndpoint(d.node)
}

// Exchange performs an all-to-all among the daemons of the participant
// nodes for operation opKey: it contributes local data and blocks until
// every participant's contribution has arrived or the timeout expires
// (timeout <= 0 waits forever). The returned map is keyed by node.
//
// abort, when non-nil, cancels the wait early with ErrDeadParticipant: the
// PMIx layer closes it when it learns a participant rank died, so a
// construct over a set containing a dead process fails in event-delivery
// time instead of burning the full timeout.
//
// opKey must be unique per logical collective instance; PMIx layers a
// sequence number into it.
func (d *Daemon) Exchange(opKey string, participants []int, local []byte, timeout time.Duration, abort <-chan struct{}) (map[int][]byte, error) {
	if d.dvm.isShutdown() {
		return nil, ErrShutdown
	}
	// A re-run of an operation this daemon already completed (e.g. a PMIx
	// retry after a peer-side timeout) is served from the completed cache:
	// the pending state is gone and the other participants may have moved
	// on, so re-exchanging could never converge.
	d.mu.Lock()
	if res, done := d.completed[opKey]; done {
		out := make(map[int][]byte, len(res))
		for k, v := range res {
			out[k] = v
		}
		d.mu.Unlock()
		return out, nil
	}
	d.mu.Unlock()

	// Send our contribution to every other participant daemon.
	for _, n := range participants {
		if n == d.node {
			continue
		}
		msg := simnet.Message{
			Ctrl: xchgMsg{OpKey: opKey, Node: d.node, Data: local},
			Size: ctrlMsgOverhead + len(local),
		}
		if err := d.ep.Send(d.dvm.daemonAddr(n), msg); err != nil {
			return nil, fmt.Errorf("prrte: exchange %q: daemon %d unreachable: %w", opKey, n, err)
		}
	}
	// Record our own contribution, then wait for the others. The wait runs
	// in rounds: when a round expires without completion, re-offer our
	// contribution to the still-missing peers with Want set, covering both
	// a dropped send of ours and a dropped send of theirs (peers answer
	// Want from pending state or their completed cache).
	d.recordContribution(xchgMsg{OpKey: opKey, Node: d.node, Data: local})

	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	bo := newBackoff(exchangeResendBase, exchangeResendMax)
	for {
		d.mu.Lock()
		op := d.ops[opKey]
		if op == nil {
			op = &pendingOp{contribs: make(map[int][]byte)}
			d.ops[opKey] = op
		}
		if len(op.contribs) >= len(participants) {
			out := make(map[int][]byte, len(op.contribs))
			for k, v := range op.contribs {
				out[k] = v
			}
			delete(d.ops, opKey)
			d.rememberCompletedLocked(opKey, op.contribs)
			d.mu.Unlock()
			return out, nil
		}
		w := make(chan struct{})
		op.waiters = append(op.waiters, w)
		var missing []int
		for _, n := range participants {
			if _, ok := op.contribs[n]; !ok && n != d.node {
				missing = append(missing, n)
			}
		}
		d.mu.Unlock()

		round := bo.next()
		if timeout > 0 {
			remaining := time.Until(deadline)
			if remaining <= 0 {
				return nil, fmt.Errorf("prrte: exchange %q: %w", opKey, ErrTimeout)
			}
			if round > remaining {
				round = remaining
			}
		}
		timer := time.NewTimer(round)
		select {
		case <-w:
			timer.Stop()
		case <-abort:
			timer.Stop()
			return nil, fmt.Errorf("prrte: exchange %q: %w", opKey, ErrDeadParticipant)
		case <-timer.C:
			if timeout > 0 && time.Until(deadline) <= 0 {
				return nil, fmt.Errorf("prrte: exchange %q: %w", opKey, ErrTimeout)
			}
			for _, n := range missing {
				// A re-offer failing to send means the peer daemon's endpoint
				// is gone (node killed or DVM shut down) — permanent, so fail
				// now rather than resending until the deadline.
				if err := d.ep.Send(d.dvm.daemonAddr(n), simnet.Message{
					Ctrl: xchgMsg{OpKey: opKey, Node: d.node, Data: local, Want: true},
					Size: ctrlMsgOverhead + len(local),
				}); err != nil {
					return nil, fmt.Errorf("prrte: exchange %q: daemon %d unreachable: %w", opKey, n, err)
				}
			}
		}
	}
}

// AllocPGCID obtains a fresh process-group context ID from the resource
// manager (master daemon), optionally registering a named pset for the
// group at the same time. The round-trip to the master is charged on the
// fabric, matching the paper's observation that acquiring a PGCID involves
// inter-node messaging. The round-trip is retried on reply timeout within
// the given deadline (<= 0 applies the default); a reissued request at
// worst burns an extra ID, which only needs to be unique, not dense.
func (d *Daemon) AllocPGCID(groupName string, members []int, timeout time.Duration) (uint64, error) {
	if d.dvm.isShutdown() {
		return 0, ErrShutdown
	}
	if d.node == d.dvm.masterNode {
		// Local to the RM: no wire round-trip, just the RPC overhead.
		d.dvm.fabric.RPCDelay()
		id := d.dvm.allocPGCID()
		if groupName != "" {
			d.dvm.registerPset(groupName, members)
		}
		return id, nil
	}
	m, err := d.rpcRetry(timeout, false, nil, func(replyTo simnet.Addr) error {
		req := pgcidReq{ReplyTo: replyTo, Name: groupName, Members: members}
		return d.ep.Send(d.dvm.daemonAddr(d.dvm.masterNode), simnet.Message{Ctrl: req, Size: ctrlMsgOverhead + 8*len(members)})
	})
	if err != nil {
		return 0, fmt.Errorf("prrte: PGCID request: %w", err)
	}
	return m.Ctrl.(pgcidResp).ID, nil
}

// UpdatePset replaces a pset's membership at the resource manager, used
// when a process departs a group asynchronously.
func (d *Daemon) UpdatePset(name string, members []int) error {
	if d.node == d.dvm.masterNode {
		d.dvm.registerPset(name, members)
		return nil
	}
	return d.ep.Send(d.dvm.daemonAddr(d.dvm.masterNode), simnet.Message{Ctrl: psetUpdate{Name: name, Members: members}, Size: ctrlMsgOverhead + 8*len(members)})
}

// DeregisterPset removes a dynamic pset (group destruct).
func (d *Daemon) DeregisterPset(name string) error {
	if d.node == d.dvm.masterNode {
		d.dvm.deregisterPset(name)
		return nil
	}
	return d.ep.Send(d.dvm.daemonAddr(d.dvm.masterNode), simnet.Message{Ctrl: psetDeregister{Name: name}, Size: ctrlMsgOverhead})
}

// QueryPsets returns the authoritative pset registry (name -> member ranks)
// from the resource manager. The query is an idempotent read, retried on
// reply timeout within the given deadline (<= 0 applies the default).
func (d *Daemon) QueryPsets(timeout time.Duration) (map[string][]int, error) {
	if d.dvm.isShutdown() {
		return nil, ErrShutdown
	}
	if d.node == d.dvm.masterNode {
		d.dvm.fabric.RPCDelay()
		return d.dvm.psetSnapshot(), nil
	}
	m, err := d.rpcRetry(timeout, false, nil, func(replyTo simnet.Addr) error {
		return d.ep.Send(d.dvm.daemonAddr(d.dvm.masterNode), simnet.Message{Ctrl: queryReq{ReplyTo: replyTo}, Size: ctrlMsgOverhead})
	})
	if err != nil {
		return nil, fmt.Errorf("prrte: pset query: %w", err)
	}
	return m.Ctrl.(queryResp).Names, nil
}

// Fetch retrieves data published under key on another node's server.
func (d *Daemon) Fetch(node int, key string, timeout time.Duration) ([]byte, bool, error) {
	if d.dvm.isShutdown() {
		return nil, false, ErrShutdown
	}
	if node == d.node {
		d.handlerMu.RLock()
		h := d.handler
		d.handlerMu.RUnlock()
		if h == nil {
			return nil, false, nil
		}
		data, ok := h.HandleFetch(key)
		return data, ok, nil
	}
	// A modex fetch names the rank that published the data; once that rank
	// is known dead, retrying against its (possibly gone) node is hopeless.
	var hopeless func() error
	var keyRank int
	if _, err := fmt.Sscanf(key, "modex/%d/", &keyRank); err == nil {
		hopeless = func() error {
			if d.dvm.rankDead(keyRank) {
				return fmt.Errorf("prrte: fetch %q: rank %d: %w", key, keyRank, ErrDeadParticipant)
			}
			return nil
		}
	}
	m, err := d.rpcRetry(timeout, false, hopeless, func(replyTo simnet.Addr) error {
		return d.ep.Send(d.dvm.daemonAddr(node), simnet.Message{Ctrl: fetchReq{ReplyTo: replyTo, Key: key}, Size: ctrlMsgOverhead + len(key)})
	})
	if err != nil {
		return nil, false, fmt.Errorf("prrte: fetch %q from node %d: %w", key, node, err)
	}
	fr := m.Ctrl.(fetchResp)
	return fr.Data, fr.OK, nil
}

// BroadcastEvent delivers an opaque event blob to the server handler on
// every node, including this one. Delivery is routed along a binomial tree
// rooted at the originating daemon — the same O(log N) relay structure
// PRRTE's grpcomm uses — so no single daemon sends more than log2(N)
// messages.
func (d *Daemon) BroadcastEvent(data []byte) {
	if d.dvm.isShutdown() {
		return
	}
	// One broadcast at a time, local handler and relay under the same lock:
	// "rank terminated" and the "rank restarted" that answers it come from
	// different goroutines of this node, and a node that sees them reversed
	// keeps the respawned rank marked dead for good. HandleEvent only
	// queues the event (the handler's own dispatcher runs it), as it must
	// for the receive loop's sake too.
	d.bcastMu.Lock()
	defer d.bcastMu.Unlock()
	d.relayEvent(eventMsg{Data: data, Root: d.node, Relay: true})
	d.handlerMu.RLock()
	h := d.handler
	d.handlerMu.RUnlock()
	if h != nil {
		h.HandleEvent(data)
	}
}

// relayEvent forwards a routed event to this daemon's children in the
// binomial tree rooted at msg.Root.
func (d *Daemon) relayEvent(msg eventMsg) {
	n := d.dvm.numNodes()
	vrank := (d.node - msg.Root + n) % n
	for mask := 1; mask < n; mask <<= 1 {
		if vrank&mask != 0 {
			break
		}
		child := vrank + mask
		if child >= n {
			continue
		}
		real := (child + msg.Root) % n
		_ = d.ep.Send(d.dvm.daemonAddr(real), simnet.Message{Ctrl: msg, Size: ctrlMsgOverhead + len(msg.Data)})
	}
}

// PublishGlobal stores a key/value pair in the resource manager's global
// name service.
func (d *Daemon) PublishGlobal(key string, value []byte) error {
	if d.dvm.isShutdown() {
		return ErrShutdown
	}
	if d.node == d.dvm.masterNode {
		d.dvm.publish(key, value)
		return nil
	}
	return d.ep.Send(d.dvm.daemonAddr(d.dvm.masterNode),
		simnet.Message{Ctrl: publishMsg{Key: key, Value: value}, Size: ctrlMsgOverhead + len(key) + len(value)})
}

// LookupGlobal retrieves a globally published value. With timeout > 0 it
// blocks until the key is published or the deadline passes; with
// timeout <= 0 it polls once.
func (d *Daemon) LookupGlobal(key string, timeout time.Duration) ([]byte, bool, error) {
	if d.dvm.isShutdown() {
		return nil, false, ErrShutdown
	}
	wait := timeout > 0
	if d.node == d.dvm.masterNode && !wait {
		v, ok := d.dvm.lookup(key)
		return v, ok, nil
	}
	// A blocking lookup's reply is intentionally withheld until the key is
	// published, so the retried sends only guard against a dropped request;
	// waitFull keeps the reply endpoint listening out to the deadline.
	m, err := d.rpcRetry(timeout, wait, nil, func(replyTo simnet.Addr) error {
		req := lookupReq{ReplyTo: replyTo, Key: key, Wait: wait}
		return d.ep.Send(d.dvm.daemonAddr(d.dvm.masterNode), simnet.Message{Ctrl: req, Size: ctrlMsgOverhead + len(key)})
	})
	if retryable(err) || errors.Is(err, ErrTimeout) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("prrte: lookup %q: %w", key, err)
	}
	lr := m.Ctrl.(lookupResp)
	return lr.Value, lr.OK, nil
}

// UnpublishGlobal removes a key from the global name service.
func (d *Daemon) UnpublishGlobal(key string) error {
	if d.dvm.isShutdown() {
		return ErrShutdown
	}
	if d.node == d.dvm.masterNode {
		d.dvm.unpublish(key)
		return nil
	}
	return d.ep.Send(d.dvm.daemonAddr(d.dvm.masterNode),
		simnet.Message{Ctrl: unpublishMsg{Key: key}, Size: ctrlMsgOverhead + len(key)})
}

// NotifyNode delivers an event blob to the server handler on a single node,
// used for targeted notifications (e.g. asynchronous group invitations).
func (d *Daemon) NotifyNode(node int, data []byte) error {
	if d.dvm.isShutdown() {
		return ErrShutdown
	}
	if node == d.node {
		d.handlerMu.RLock()
		h := d.handler
		d.handlerMu.RUnlock()
		if h != nil {
			go h.HandleEvent(data)
		}
		return nil
	}
	return d.ep.Send(d.dvm.daemonAddr(node), simnet.Message{Ctrl: eventMsg{Data: data}, Size: ctrlMsgOverhead + len(data)})
}

// BroadcastDepth reports the binomial relay depth for n nodes (diagnostic).
func BroadcastDepth(n int) int {
	depth := 0
	for span := 1; span < n; span <<= 1 {
		depth++
	}
	return depth
}

// DVM is the distributed virtual machine: one daemon per node plus the
// resource-manager state held at the master daemon (node 0).
type DVM struct {
	fabric     *simnet.Fabric
	daemons    []*Daemon
	masterNode int

	mu            sync.Mutex //gompilint:lockorder rank=14
	nextPGCID     uint64
	psets         map[string][]int
	published     map[string][]byte
	lookupWaiters map[string][]simnet.Addr
	deadRanks     map[int]bool // ranks the RM knows have terminated
	shutdown      bool
}

// NewDVM starts one daemon per node of the fabric's cluster. The caller
// owns the DVM and must Shutdown it when done.
func NewDVM(fabric *simnet.Fabric) *DVM {
	n := fabric.Cluster().Nodes
	dvm := &DVM{
		fabric:        fabric,
		daemons:       make([]*Daemon, n),
		masterNode:    0,
		nextPGCID:     1, // PGCIDs are guaranteed non-zero
		psets:         make(map[string][]int),
		published:     make(map[string][]byte),
		lookupWaiters: make(map[string][]simnet.Addr),
		deadRanks:     make(map[int]bool),
	}
	for i := 0; i < n; i++ {
		d := &Daemon{
			dvm:  dvm,
			node: i,
			ep:   fabric.NewEndpoint(i),
			ops:  make(map[string]*pendingOp),
		}
		dvm.daemons[i] = d
		go d.run()
	}
	return dvm
}

// Fabric returns the fabric the DVM runs on.
func (v *DVM) Fabric() *simnet.Fabric { return v.fabric }

// Daemon returns the daemon for a node.
func (v *DVM) Daemon(node int) *Daemon { return v.daemons[node] }

// Shutdown stops all daemons. Outstanding operations fail.
func (v *DVM) Shutdown() {
	v.mu.Lock()
	v.shutdown = true
	v.mu.Unlock()
	for _, d := range v.daemons {
		d.ep.Close()
	}
}

func (v *DVM) isShutdown() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.shutdown
}

func (v *DVM) numNodes() int { return len(v.daemons) }

func (v *DVM) daemonAddr(node int) simnet.Addr { return v.daemons[node].ep.Addr() }

// noteDeadRank / noteRevivedRank maintain the RM's terminated-rank view.
// Every node's PMIx server reports deaths it learns about; the set is the
// ground truth retry loops consult to stop waiting on dead processes.
func (v *DVM) noteDeadRank(rank int) {
	v.mu.Lock()
	v.deadRanks[rank] = true
	v.mu.Unlock()
}

func (v *DVM) noteRevivedRank(rank int) {
	v.mu.Lock()
	delete(v.deadRanks, rank)
	v.mu.Unlock()
}

func (v *DVM) rankDead(rank int) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.deadRanks[rank]
}

func (v *DVM) allocPGCID() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	id := v.nextPGCID
	v.nextPGCID++
	return id
}

// RegisterPset installs a static process set (from the launch command line,
// e.g. prun --pset ocean:0-15).
func (v *DVM) RegisterPset(name string, members []int) {
	v.registerPset(name, members)
}

func (v *DVM) registerPset(name string, members []int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	cp := make([]int, len(members))
	copy(cp, members)
	sort.Ints(cp)
	v.psets[name] = cp
}

func (v *DVM) deregisterPset(name string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	delete(v.psets, name)
}

// publish stores a global key at the master and releases blocked lookups.
func (v *DVM) publish(key string, value []byte) {
	v.mu.Lock()
	cp := make([]byte, len(value))
	copy(cp, value)
	v.published[key] = cp
	waiters := v.lookupWaiters[key]
	delete(v.lookupWaiters, key)
	master := v.daemons[v.masterNode]
	v.mu.Unlock()
	for _, addr := range waiters {
		_ = master.ep.Send(addr, simnet.Message{Ctrl: lookupResp{Value: cp, OK: true}, Size: ctrlMsgOverhead + len(cp)})
	}
}

func (v *DVM) unpublish(key string) {
	v.mu.Lock()
	delete(v.published, key)
	v.mu.Unlock()
}

func (v *DVM) lookup(key string) ([]byte, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	val, ok := v.published[key]
	return val, ok
}

func (v *DVM) addLookupWaiter(key string, addr simnet.Addr, d *Daemon) {
	v.mu.Lock()
	// Re-check under the lock: the publish may have raced in.
	if val, ok := v.published[key]; ok {
		v.mu.Unlock()
		_ = d.ep.Send(addr, simnet.Message{Ctrl: lookupResp{Value: val, OK: true}, Size: ctrlMsgOverhead + len(val)})
		return
	}
	v.lookupWaiters[key] = append(v.lookupWaiters[key], addr)
	v.mu.Unlock()
}

func (v *DVM) psetSnapshot() map[string][]int {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string][]int, len(v.psets))
	for k, mv := range v.psets {
		cp := make([]int, len(mv))
		copy(cp, mv)
		out[k] = cp
	}
	return out
}
