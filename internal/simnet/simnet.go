// Package simnet provides the simulated interconnect fabric that stands in
// for the Aries network and node-local shared memory used in the paper's
// evaluation (see DESIGN.md, substitution table).
//
// Every communicating entity in the reproduction — MPI rank, PMIx server,
// PRRTE daemon — owns one or more Endpoints on a Fabric. An Endpoint is an
// addressable, unbounded mailbox. Sending between endpoints charges the
// sender a delay computed from the cluster Profile: one-way latency plus a
// per-byte serialization cost, with intra-node (shared memory) and
// inter-node (wire) costs distinguished. With the Loopback profile all
// delay injection is disabled, so unit tests measure only the real Go code
// paths.
//
// An endpoint is read in one of two ways. A mailbox endpoint is drained
// with Recv (PMIx reply endpoints, RPC retries). A served endpoint (Serve)
// owns delivery, under one rule: a hop that costs nothing — no modelled
// latency, bandwidth or global-link term, and no fault verdict — and finds
// nothing queued or being delivered at its destination runs the handler
// on the sender's goroutine, as the shared segment's inline handoff does.
// Every other hop is queued, and the endpoint's one pump goroutine runs the
// handler in arrival order. Per-pair order holds either way, and a modelled
// hop never charges the receiver's reply to its sender, so model time is
// the same as with a receive loop per endpoint.
//
// The delay model is deliberately simple (LogP-style o+L lumped at the
// sender). The paper's results are relative comparisons between two software
// stacks on the same fabric, so the model only needs to charge both stacks
// identically and to scale with message count, message size, and the
// intra/inter-node distinction — which this does.
package simnet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gompi/internal/topo"
)

// ErrClosed is returned when sending to or receiving from a closed Endpoint.
// A closed endpoint models a failed (terminated) process.
var ErrClosed = errors.New("simnet: endpoint closed")

// ErrTimeout is returned by Recv when the deadline expires with no message.
var ErrTimeout = errors.New("simnet: receive timed out")

// Addr identifies an Endpoint on a Fabric.
type Addr struct {
	// Node is the index of the simulated compute node hosting the endpoint.
	Node int
	// Slot is the per-node endpoint index.
	Slot int
}

func (a Addr) String() string { return fmt.Sprintf("ep(%d.%d)", a.Node, a.Slot) }

// Message is one unit of traffic on the fabric.
//
// Data-plane traffic (the PML) uses Payload, whose length is the wire size.
// Control-plane traffic (PMIx RPCs, daemon exchanges) passes a typed value
// in Ctrl and reports its modeled wire size in Size; this keeps the control
// plane readable while still charging realistic costs.
type Message struct {
	From    Addr
	Payload []byte
	Ctrl    any
	Size    int
}

func (m Message) wireSize() int {
	if m.Payload != nil {
		return len(m.Payload)
	}
	return m.Size
}

// Stats aggregates fabric traffic counters, useful in tests and ablations.
type Stats struct {
	Messages      uint64
	Bytes         uint64
	IntraNodeMsgs uint64
	InterNodeMsgs uint64
}

// Fabric is one simulated cluster interconnect.
type Fabric struct {
	cluster topo.Cluster

	mu       sync.Mutex
	nodes    [][]*Endpoint // per node, per slot; nil entries are closed endpoints
	segments []*Segment    // per node, allocated lazily

	msgs      atomic.Uint64
	bytes     atomic.Uint64
	intraMsgs atomic.Uint64
	interMsgs atomic.Uint64

	// global[g] is dragonfly group g's global link; cross-group senders
	// queue on it.
	globalMu sync.Mutex
	global   []*Queue

	// faultsOn short-circuits faultVerdict when no plan, partition, or
	// pending kill rule is installed; faults holds the injection state.
	faultsOn atomic.Bool
	faults   faultState
}

// NewFabric builds a fabric for the given cluster.
func NewFabric(cluster topo.Cluster) *Fabric {
	return &Fabric{
		cluster: cluster,
		nodes:   make([][]*Endpoint, cluster.Nodes),
	}
}

// Cluster returns the topology this fabric was built from.
func (f *Fabric) Cluster() topo.Cluster { return f.cluster }

// Stats returns a snapshot of the traffic counters.
func (f *Fabric) Stats() Stats {
	return Stats{
		Messages:      f.msgs.Load(),
		Bytes:         f.bytes.Load(),
		IntraNodeMsgs: f.intraMsgs.Load(),
		InterNodeMsgs: f.interMsgs.Load(),
	}
}

// NewEndpoint allocates a new endpoint on the given node. It panics if node
// is out of range: endpoints are created during job setup where a bad node
// index is a programming error, not a runtime condition.
func (f *Fabric) NewEndpoint(node int) *Endpoint {
	if node < 0 || node >= f.cluster.Nodes {
		panic(fmt.Sprintf("simnet: node %d out of range [0,%d)", node, f.cluster.Nodes))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ep := &Endpoint{
		fab:  f,
		addr: Addr{Node: node, Slot: len(f.nodes[node])},
	}
	ep.ready = make(chan struct{}, 1)
	ep.done = make(chan struct{})
	f.nodes[node] = append(f.nodes[node], ep)
	return ep
}

// Segment returns the node's shared-memory rendezvous, allocating it on
// first use. It panics if node is out of range (segments are attached during
// job setup, where a bad node index is a programming error).
func (f *Fabric) Segment(node int) *Segment {
	if node < 0 || node >= f.cluster.Nodes {
		panic(fmt.Sprintf("simnet: node %d out of range [0,%d)", node, f.cluster.Nodes))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.segments == nil {
		f.segments = make([]*Segment, f.cluster.Nodes)
	}
	if f.segments[node] == nil {
		p := f.cluster.Profile
		f.segments[node] = &Segment{
			lat: p.IntraNodeLatency,
			bw:  p.IntraNodeBandwidth,
		}
	}
	return f.segments[node]
}

// DeliverFunc receives one raw packet handed off through a node's shared
// segment. It runs on the sender's goroutine and must not block
// indefinitely.
type DeliverFunc func(pkt []byte)

// Segment is one node's shared-memory rendezvous, the simulation's analogue
// of the mmap'ed region a shared-memory BTL maps into every local process.
// Processes on the node register a delivery function under their global
// rank; node-local senders look the function up and hand packets off
// directly, paying the profile's intra-node cost through Charge instead of
// queueing on a fabric endpoint.
type Segment struct {
	lat time.Duration // the profile's IntraNodeLatency
	bw  float64       // the profile's IntraNodeBandwidth, bytes/s

	// mu serializes Register and Deregister, which publish a new boxes
	// snapshot; Lookup, on every sm send, reads the snapshot with one
	// atomic load and takes no lock.
	mu    sync.Mutex
	boxes atomic.Pointer[[]DeliverFunc] // global rank -> delivery function (nil: none); immutable, replaced whole
}

// Charge charges the calling goroutine the modeled cost of handing n bytes
// to a node-mate: IntraNodeLatency plus n/IntraNodeBandwidth, the same
// intra-node cost Endpoint.Send charges. On the all-zero Loopback profile
// it returns at once.
func (s *Segment) Charge(n int) {
	if s.lat == 0 && s.bw == 0 {
		return
	}
	Delay(transfer(s.lat, s.bw, n))
}

// transfer is the LogP-style cost of n bytes over a path of latency lat and
// bandwidth bw (bytes/s; 0 models no serialization cost).
func transfer(lat time.Duration, bw float64, n int) time.Duration {
	if bw > 0 && n > 0 {
		lat += time.Duration(float64(n) / bw * float64(time.Second))
	}
	return lat
}

// Register installs the delivery function for a rank. Registering a rank
// that is already present, or a negative rank, panics: each process
// registers once per init cycle and deregisters on teardown, so a duplicate
// is a lifecycle bug.
func (s *Segment) Register(rank int, deliver DeliverFunc) {
	if rank < 0 {
		panic(fmt.Sprintf("simnet: rank %d registered in segment", rank))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.Lookup(rank); dup {
		panic(fmt.Sprintf("simnet: rank %d already registered in segment", rank))
	}
	s.publish(rank, deliver)
}

// Deregister removes a rank's delivery function; senders observe the rank
// as closed afterwards. Deregistering an absent rank is a no-op.
func (s *Segment) Deregister(rank int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.Lookup(rank); ok {
		s.publish(rank, nil)
	}
}

// publish replaces the snapshot with one that maps rank to deliver. Caller
// holds s.mu.
func (s *Segment) publish(rank int, deliver DeliverFunc) {
	var old []DeliverFunc
	if p := s.boxes.Load(); p != nil {
		old = *p
	}
	boxes := make([]DeliverFunc, max(len(old), rank+1))
	copy(boxes, old)
	boxes[rank] = deliver
	s.boxes.Store(&boxes)
}

// Lookup returns the rank's delivery function. The function is invoked
// outside any lock, so an in-flight handoff may race with Deregister;
// receivers must tolerate delivery after their own close.
func (s *Segment) Lookup(rank int) (DeliverFunc, bool) {
	p := s.boxes.Load()
	if p == nil || uint(rank) >= uint(len(*p)) {
		return nil, false
	}
	fn := (*p)[rank]
	return fn, fn != nil
}

func (f *Fabric) lookup(a Addr) *Endpoint {
	f.mu.Lock()
	defer f.mu.Unlock()
	if a.Node < 0 || a.Node >= len(f.nodes) || a.Slot < 0 || a.Slot >= len(f.nodes[a.Node]) {
		return nil
	}
	return f.nodes[a.Node][a.Slot]
}

// delayFor returns the modeled transfer cost for nbytes from src to dst,
// and the message's place on a global link's queue (nil unless it crosses
// dragonfly groups on a profile that models link occupancy). The cost
// includes the link's backlog; the wait behind same-instant messages is
// the ticket's Ahead, known once the instant has passed.
func (f *Fabric) delayFor(src, dst Addr, nbytes int) (time.Duration, *Ticket) {
	p := f.cluster.Profile
	var lat time.Duration
	var bw float64
	if src.Node == dst.Node {
		lat, bw = p.IntraNodeLatency, p.IntraNodeBandwidth
	} else {
		lat, bw = p.InterNodeLatency, p.InterNodeBandwidth
	}
	d := transfer(lat, bw, nbytes)
	var t *Ticket
	if src.Node != dst.Node && !p.SameDragonflyGroup(src.Node, dst.Node) {
		d += p.GlobalHopLatency
		if p.GlobalLinkOccupancy > 0 {
			t = f.globalLink(src.Node/p.DragonflyGroupSize).Join(linkKey(src, dst), p.GlobalLinkOccupancy)
			d += t.Backlog()
		}
	}
	return d, t
}

// globalLink returns dragonfly group g's global link: each message holds
// it for GlobalLinkOccupancy, and later traffic queues behind it.
func (f *Fabric) globalLink(g int) *Queue {
	f.globalMu.Lock()
	defer f.globalMu.Unlock()
	for len(f.global) <= g {
		f.global = append(f.global, new(Queue))
	}
	return f.global[g]
}

// linkKey orders same-instant messages on a global link by endpoint pair.
func linkKey(src, dst Addr) uint64 {
	return uint64(src.Node)<<48 | uint64(src.Slot)<<32 | uint64(dst.Node)<<16 | uint64(dst.Slot)
}

// Delay charges the calling goroutine an arbitrary modeled cost. It is used
// for software overheads that are not tied to a message (e.g. MCA component
// loading) and for every message's wire cost. It sleeps: inside a
// testing/synctest bubble the sleep is exact model time, and on the wall
// clock it lasts at least d (a sub-millisecond sleep takes about a
// millisecond), so exact modeled figures come from the bubble (bench's
// TestFigures) and wall-clock measurements use the all-zero Loopback
// profile, where Delay returns at once.
func Delay(d time.Duration) {
	if d <= 0 {
		return
	}
	time.Sleep(d)
}

// RPCDelay charges the profile's client/server RPC software overhead.
func (f *Fabric) RPCDelay() { Delay(f.cluster.Profile.RPCOverhead) }

// ComponentLoadDelay charges the cost of loading n MCA components.
func (f *Fabric) ComponentLoadDelay(n int) {
	Delay(time.Duration(n) * f.cluster.Profile.ComponentLoadCost)
}

// Endpoint is an addressable unbounded mailbox on a Fabric.
type Endpoint struct {
	fab  *Fabric
	addr Addr

	mu     sync.Mutex
	queue  []Message
	closed bool
	ready  chan struct{} // capacity 1; signaled on enqueue
	done   chan struct{} // closed by Close; wakes every blocked receiver

	// serve is a served endpoint's handler (nil for a mailbox), set once
	// by Serve. delivering is set while it runs, inline on a sender or on
	// the pump, so one message at a time is delivered, in queue order.
	serve      func(Message)
	delivering bool
}

// Addr returns the endpoint's fabric address.
func (e *Endpoint) Addr() Addr { return e.addr }

// Send delivers a message to dst, charging the sender the modeled wire cost.
// It returns ErrClosed if the destination endpoint has been closed (the
// destination process failed) or does not exist. On a served destination a
// hop that costs nothing runs the handler before Send returns (see the
// package doc).
func (e *Endpoint) Send(dst Addr, m Message) error {
	dep := e.fab.lookup(dst)
	if dep == nil {
		return ErrClosed
	}
	m.From = e.addr
	n := m.wireSize()
	v := e.fab.faultVerdict(e.addr, dst, m)
	for _, victim := range v.kill {
		victim.Close()
	}
	d, t := e.fab.delayFor(e.addr, dst, n)
	Delay(d + v.extraDelay)
	if t != nil {
		Delay(t.Ahead())
	}
	if v.drop {
		// The wire ate it. The sender still pays the modeled cost and
		// observes success — recovering lost traffic is the receiver-side
		// timeout-and-retry's job, exactly as on a real interconnect.
		return nil
	}

	e.fab.msgs.Add(1)
	e.fab.bytes.Add(uint64(n))
	if e.addr.Node == dst.Node {
		e.fab.intraMsgs.Add(1)
	} else {
		e.fab.interMsgs.Add(1)
	}
	if v.reorderLag > 0 {
		// Deliver asynchronously after a short lag so traffic sent later —
		// by this sender or any other — can overtake this message. A
		// sender-side Delay cannot reorder (the sender's own sends stay
		// serialized behind it), so late enqueue is the mechanism.
		if v.dup {
			dep.put(dupMessage(m), false)
		}
		time.AfterFunc(v.reorderLag, func() { dep.put(m, false) })
		return nil
	}
	// Copy before the hand-off: once m is enqueued the receiver owns its
	// buffer and may already be recycling it.
	var dup Message
	if v.dup {
		dup = dupMessage(m)
	}
	// A hop with no modelled cost and no fault verdict may run the
	// destination's handler here; a costed hop is queued, so the handler's
	// replies charge their cost to the pump, never to this sender.
	inline := d == 0 && t == nil && !v.dup && v.extraDelay == 0
	err := dep.put(m, inline)
	if err == nil && v.dup {
		dep.put(dup, false)
	}
	return err
}

// dupMessage deep-copies the payload: the receiver owns a delivered packet
// and may recycle its buffer, so the duplicate must be an independent copy —
// just as a duplicated packet on a real wire is a separate byte sequence.
func dupMessage(m Message) Message {
	if m.Payload != nil {
		m.Payload = append([]byte(nil), m.Payload...)
	}
	return m
}

// put hands m to the endpoint. With inline set, a served endpoint with
// nothing queued and nothing being delivered runs its handler on the
// caller's goroutine before put returns; otherwise m joins the queue, for
// Recv or the pump.
func (e *Endpoint) put(m Message, inline bool) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	if inline && e.serve != nil && !e.delivering && len(e.queue) == 0 {
		e.delivering = true
		fn := e.serve
		e.mu.Unlock()
		e.run(fn, m)
		return nil
	}
	e.queue = append(e.queue, m)
	e.mu.Unlock()
	e.wake()
	return nil
}

// wake pulses the one-slot ready channel.
func (e *Endpoint) wake() {
	select {
	case e.ready <- struct{}{}:
	default:
	}
}

// run delivers m to fn; the caller set e.delivering. When fn returns, or
// panics, messages queued behind m meanwhile are left to the pump (on the
// pump itself the wake is a spare pulse).
func (e *Endpoint) run(fn func(Message), m Message) {
	defer func() {
		e.mu.Lock()
		e.delivering = false
		pending := len(e.queue) > 0
		e.mu.Unlock()
		if pending {
			e.wake()
		}
	}()
	fn(m)
}

// Serve makes e a served endpoint: from now on fn receives every message,
// inline on the sender for a hop that costs nothing and finds nothing
// ahead of it, and on e's pump goroutine otherwise (see the package doc).
// One message is delivered at a time, in arrival order. Call Serve once,
// before e's address is handed to any sender; Recv and TryRecv on a served
// endpoint panic. fn must not block indefinitely: it may run on a sender's
// goroutine, and while it runs, later messages to e wait in the queue.
//
// After Close no delivery starts and the queue is dropped, but Close does
// not wait for one already running, inline or on the pump: fn must tolerate
// running after its owner closed e. The pump exits once its current
// delivery returns.
func (e *Endpoint) Serve(fn func(Message)) {
	e.mu.Lock()
	if e.serve != nil {
		e.mu.Unlock()
		panic(fmt.Sprintf("simnet: %v served twice", e.addr))
	}
	e.serve = fn
	e.mu.Unlock()
	go e.pump(fn)
}

// pump runs the queued deliveries of a served endpoint, one at a time and
// in arrival order, until Close. It leaves the queue alone while an inline
// delivery runs; that delivery wakes it again when it ends.
func (e *Endpoint) pump(fn func(Message)) {
	for {
		select {
		case <-e.ready:
		case <-e.done:
			return
		}
		for {
			e.mu.Lock()
			if e.delivering || len(e.queue) == 0 {
				e.mu.Unlock()
				break
			}
			m := e.queue[0]
			e.queue[0] = Message{}
			e.queue = e.queue[1:]
			e.delivering = true
			e.mu.Unlock()
			e.run(fn, m)
		}
	}
}

// mustMailbox panics on a read of a served endpoint; caller holds e.mu.
func (e *Endpoint) mustMailbox() {
	if e.serve != nil {
		e.mu.Unlock()
		panic(fmt.Sprintf("simnet: Recv on served endpoint %v", e.addr))
	}
}

// Recv blocks until a message arrives, the timeout expires (timeout > 0), or
// the endpoint is closed. A zero timeout means wait forever. It panics on a
// served endpoint.
func (e *Endpoint) Recv(timeout time.Duration) (Message, error) {
	var timer *time.Timer
	var expiry <-chan time.Time
	if timeout > 0 {
		timer = time.NewTimer(timeout)
		defer timer.Stop()
		expiry = timer.C
	}
	for {
		e.mu.Lock()
		e.mustMailbox()
		if len(e.queue) > 0 {
			m := e.queue[0]
			e.queue = e.queue[1:]
			e.mu.Unlock()
			return m, nil
		}
		closed := e.closed
		e.mu.Unlock()
		if closed {
			return Message{}, ErrClosed
		}
		select {
		case <-e.ready:
		case <-e.done:
			// Re-check under the lock: a message enqueued just before Close
			// must still be delivered before ErrClosed is reported.
		case <-expiry:
			// The deadline and a concurrent Close (or enqueue) can fire
			// together; the select picks arbitrarily, so re-check state
			// before reporting a timeout — a closed endpoint must report
			// ErrClosed deterministically.
			e.mu.Lock()
			if len(e.queue) > 0 {
				m := e.queue[0]
				e.queue = e.queue[1:]
				e.mu.Unlock()
				return m, nil
			}
			closed := e.closed
			e.mu.Unlock()
			if closed {
				return Message{}, ErrClosed
			}
			return Message{}, ErrTimeout
		}
	}
}

// TryRecv returns a queued message without blocking; ok is false when the
// mailbox is empty. It returns ErrClosed once the endpoint is closed and
// fully drained. It panics on a served endpoint.
func (e *Endpoint) TryRecv() (Message, bool, error) {
	e.mu.Lock()
	e.mustMailbox()
	defer e.mu.Unlock()
	if len(e.queue) > 0 {
		m := e.queue[0]
		e.queue = e.queue[1:]
		return m, true, nil
	}
	if e.closed {
		return Message{}, false, ErrClosed
	}
	return Message{}, false, nil
}

// Close marks the endpoint dead. Pending and future Recv calls return
// ErrClosed once the queue is drained; future Sends to it fail; a served
// endpoint starts no further delivery, and its pump exits (Serve). Closing
// an already-closed endpoint is a no-op.
func (e *Endpoint) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.queue = nil
	e.mu.Unlock()
	// done is closed (not pulsed) so that every blocked receiver wakes, not
	// just one: the capacity-1 ready channel only covers a single waiter.
	close(e.done)
}

// Closed reports whether Close has been called.
func (e *Endpoint) Closed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}
