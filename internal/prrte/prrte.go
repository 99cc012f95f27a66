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
//   - the resource manager at the master daemon (rm.go): unique, non-zero
//     Process Group Context IDs (PGCIDs), the registry of named process
//     sets (static from the launch, dynamic from PMIx group construction),
//     the global name service, and the set of terminated ranks;
//   - direct fetch of published data from a remote node's server ("direct
//     modex", used when a process is discovered on first communication);
//   - broadcast of runtime events (e.g. process-failure notifications).
package prrte

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
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
	// daemon's message handler, which may run on the sending daemon's
	// caller, and under the broadcast lock, so it must only queue the
	// event, never run handlers or block on them.
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
	var out []int
	for r := node * m.PPN; r < min((node+1)*m.PPN, m.NP); r++ {
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
	fetchReq struct {
		ReplyTo simnet.Addr
		Key     string
	}
	fetchResp struct {
		Key  string
		Data []byte
		OK   bool
	}
	// rmMsg carries one resource-manager request to the master daemon;
	// replied kinds are answered with an rmResp to ReplyTo.
	rmMsg struct {
		ReplyTo simnet.Addr
		Req     rmReq
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
	rmClient // the resource-manager calls, over call/post below

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

// RankDead reports whether the resource manager knows rank has terminated.
func (d *Daemon) RankDead(rank int) bool { return d.dvm.rm.isDead(rank) }

// AttachServer registers the PMIx server handler for inbound requests.
func (d *Daemon) AttachServer(h ServerHandler) {
	d.handlerMu.Lock()
	d.handler = h
	d.handlerMu.Unlock()
}

func (d *Daemon) server() ServerHandler {
	d.handlerMu.RLock()
	defer d.handlerMu.RUnlock()
	return d.handler
}

// noServer stands in until a PMIx server attaches: nothing to fetch, and
// events are dropped.
type noServer struct{}

func (noServer) HandleFetch(string) ([]byte, bool) { return nil, false }
func (noServer) HandleEvent([]byte)                {}

// handle serves one inbound daemon message. It is the endpoint's served
// handler (simnet.Endpoint.Serve): a message whose hop costs nothing runs
// it on the sender's goroutine, any other on the endpoint's pump, one
// message at a time. So it never blocks: each case records, relays or
// queues, and a reply is one more Send.
func (d *Daemon) handle(m simnet.Message) {
	switch msg := m.Ctrl.(type) {
	case xchgMsg:
		d.handleXchg(msg)
	case rmMsg:
		// Only the master daemon receives these.
		d.dvm.rm.serve(msg.Req, msg.ReplyTo, func(r rmResp) {
			_ = d.ep.Send(msg.ReplyTo, simnet.Message{Ctrl: r, Size: r.size()})
		})
	case fetchReq:
		// Answered off the handler: a reply's modeled wire cost must not
		// hold up the next request, or which of two fetches landing at
		// once waits out the other's reply would depend on which one the
		// pump dequeued first.
		go d.serveFetch(msg)
	case eventMsg:
		if msg.Relay {
			d.relayEvent(msg)
		}
		d.server().HandleEvent(msg.Data)
	}
}

// serveFetch answers one direct-modex fetch from the local PMIx server.
func (d *Daemon) serveFetch(msg fetchReq) {
	data, ok := d.server().HandleFetch(msg.Key)
	_ = d.ep.Send(msg.ReplyTo, simnet.Message{
		Ctrl: fetchResp{Key: msg.Key, Data: data, OK: ok},
		Size: ctrlMsgOverhead + len(data),
	})
}

// call is the daemon's replied RM transport. On the master it is served in
// place for the modeled RPC overhead (a name-service poll never charged
// one); elsewhere, and for a blocking lookup, it is a retried round trip to
// the master daemon. Each resend carries what is left of the deadline, and
// the master keys a parked lookup by the reply endpoint the resends share.
func (d *Daemon) call(req rmReq, timeout time.Duration) (rmResp, error) {
	if d.dvm.shutdown.Load() {
		return rmResp{}, ErrShutdown
	}
	if d.node == d.dvm.masterNode && !req.Wait {
		if req.Op != rmLookup {
			d.dvm.fabric.RPCDelay()
		}
		var resp rmResp
		d.dvm.rm.serve(req, nil, func(r rmResp) { resp = r })
		return resp, nil
	}
	master := d.dvm.daemonAddr(d.dvm.masterNode)
	m, err := d.rpcRetry(timeout, req.Wait, nil, func(replyTo simnet.Addr, remaining time.Duration) error {
		req.Timeout = remaining
		return d.ep.Send(master, simnet.Message{Ctrl: rmMsg{ReplyTo: replyTo, Req: req}, Size: req.size()})
	})
	if err != nil {
		return rmResp{}, err
	}
	return m.Ctrl.(rmResp), nil
}

// post is the daemon's fire-and-forget RM transport: applied in place on the
// master, sent to it from anywhere else. Liveness notes never cross the
// wire: every node's server raises them for the same event, and the DVM's
// resource manager is shared memory.
func (d *Daemon) post(req rmReq) error {
	if d.dvm.shutdown.Load() {
		return ErrShutdown
	}
	if d.node == d.dvm.masterNode || req.Op == rmNoteDead || req.Op == rmNoteRevived {
		d.dvm.rm.serve(req, nil, nil)
		return nil
	}
	return d.ep.Send(d.dvm.daemonAddr(d.dvm.masterNode), simnet.Message{Ctrl: rmMsg{Req: req}, Size: req.size()})
}

// handleXchg processes an inbound all-to-all message: record the peer's
// contribution, and if the peer flagged Want, re-offer our own contribution
// (from the pending op or the completed cache) so a dropped send converges.
func (d *Daemon) handleXchg(msg xchgMsg) {
	own, resend := d.recordContribution(msg)
	if resend && msg.Node != d.node {
		_ = d.offer(msg.Node, msg.OpKey, own, false)
	}
}

// offer sends this daemon's contribution to opKey to a peer daemon.
func (d *Daemon) offer(node int, opKey string, data []byte, want bool) error {
	return d.ep.Send(d.dvm.daemonAddr(node), simnet.Message{
		Ctrl: xchgMsg{OpKey: opKey, Node: d.node, Data: data, Want: want},
		Size: ctrlMsgOverhead + len(data),
	})
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
	if _, ok := d.completed[opKey]; !ok {
		d.completedOrder = append(d.completedOrder, opKey)
		for len(d.completedOrder) > completedOpCache {
			delete(d.completed, d.completedOrder[0])
			d.completedOrder = d.completedOrder[1:]
		}
	}
	d.completed[opKey] = result
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
	if d.dvm.shutdown.Load() {
		return nil, ErrShutdown
	}
	// A re-run of an operation this daemon already completed (e.g. a PMIx
	// retry after a peer-side timeout) is served from the completed cache:
	// the pending state is gone and the other participants may have moved
	// on, so re-exchanging could never converge.
	d.mu.Lock()
	res, done := d.completed[opKey]
	d.mu.Unlock()
	if done {
		return maps.Clone(res), nil
	}

	// Send our contribution to every other participant daemon.
	for _, n := range participants {
		if n == d.node {
			continue
		}
		if err := d.offer(n, opKey, local, false); err != nil {
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
			out := maps.Clone(op.contribs)
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
				if err := d.offer(n, opKey, local, true); err != nil {
					return nil, fmt.Errorf("prrte: exchange %q: daemon %d unreachable: %w", opKey, n, err)
				}
			}
		}
	}
}

// Fetch retrieves data published under key on another node's server.
func (d *Daemon) Fetch(node int, key string, timeout time.Duration) ([]byte, bool, error) {
	if d.dvm.shutdown.Load() {
		return nil, false, ErrShutdown
	}
	if node == d.node {
		data, ok := d.server().HandleFetch(key)
		return data, ok, nil
	}
	// A modex fetch names the rank that published the data; once that rank
	// is known dead, retrying against its (possibly gone) node is hopeless.
	var hopeless func() error
	if keyRank, _, ok := ParseModexKey(key); ok {
		hopeless = func() error {
			if d.dvm.rm.isDead(keyRank) {
				return fmt.Errorf("prrte: fetch %q: rank %d: %w", key, keyRank, ErrDeadParticipant)
			}
			return nil
		}
	}
	m, err := d.rpcRetry(timeout, false, hopeless, func(replyTo simnet.Addr, _ time.Duration) error {
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
	if d.dvm.shutdown.Load() {
		return
	}
	// One broadcast at a time, local handler and relay under the same lock:
	// "rank terminated" and the "rank restarted" that answers it come from
	// different goroutines of this node, and a node that sees them reversed
	// keeps the respawned rank marked dead for good. HandleEvent only
	// queues the event (the handler's own dispatcher runs it), as it must
	// for the daemon handler's sake too.
	d.bcastMu.Lock()
	defer d.bcastMu.Unlock()
	d.relayEvent(eventMsg{Data: data, Root: d.node, Relay: true})
	d.server().HandleEvent(data)
}

// relayEvent forwards a routed event to this daemon's children in the
// binomial tree rooted at msg.Root.
func (d *Daemon) relayEvent(msg eventMsg) {
	n := len(d.dvm.daemons)
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

// NotifyNode delivers an event blob to the server handler on a single node,
// used for targeted notifications (e.g. asynchronous group invitations).
func (d *Daemon) NotifyNode(node int, data []byte) error {
	if d.dvm.shutdown.Load() {
		return ErrShutdown
	}
	if node == d.node {
		// Enqueued in place and under bcastMu, like BroadcastEvent's own
		// delivery, so self-notifies keep their send order.
		d.bcastMu.Lock()
		defer d.bcastMu.Unlock()
		d.server().HandleEvent(data)
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
// resource manager held at the master daemon (node 0).
type DVM struct {
	fabric     *simnet.Fabric
	daemons    []*Daemon
	masterNode int
	rm         *resourceManager
	shutdown   atomic.Bool
}

// NewDVM starts one daemon per node of the fabric's cluster. The caller
// owns the DVM and must Shutdown it when done.
func NewDVM(fabric *simnet.Fabric) *DVM {
	n := fabric.Cluster().Nodes
	dvm := &DVM{
		fabric:     fabric,
		daemons:    make([]*Daemon, n),
		masterNode: 0,
		rm:         newResourceManager(),
	}
	for i := 0; i < n; i++ {
		d := &Daemon{
			dvm:  dvm,
			node: i,
			ep:   fabric.NewEndpoint(i),
			ops:  make(map[string]*pendingOp),

			completed: make(map[string]map[int][]byte),
			handler:   noServer{},
		}
		d.rmClient = rmClient{d}
		d.ep.Serve(d.handle)
		dvm.daemons[i] = d
	}
	return dvm
}

// Fabric returns the fabric the DVM runs on.
func (v *DVM) Fabric() *simnet.Fabric { return v.fabric }

// Daemon returns the daemon for a node.
func (v *DVM) Daemon(node int) *Daemon { return v.daemons[node] }

// Shutdown stops all daemons. Outstanding operations fail.
func (v *DVM) Shutdown() {
	v.shutdown.Store(true)
	for _, d := range v.daemons {
		d.ep.Close()
	}
}

func (v *DVM) daemonAddr(node int) simnet.Addr { return v.daemons[node].ep.Addr() }

// RegisterPset installs a static process set (from the launch command line,
// e.g. prun --pset ocean:0-15).
func (v *DVM) RegisterPset(name string, members []int) { v.rm.register(name, members) }
