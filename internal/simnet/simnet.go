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
// The delay model is deliberately simple (LogP-style o+L lumped at the
// sender). The paper's results are relative comparisons between two software
// stacks on the same fabric, so the model only needs to charge both stacks
// identically and to scale with message count, message size, and the
// intra/inter-node distinction — which this does.
package simnet

import (
	"errors"
	"fmt"
	"runtime"
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

	// globalBusy[g] is the time (UnixNano) until which dragonfly group g's
	// global link is occupied; cross-group senders queue behind it.
	globalMu   sync.Mutex
	globalBusy []int64

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
		f.segments[node] = &Segment{boxes: make(map[int]DeliverFunc)}
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
// directly, bypassing the fabric's latency/serialization model entirely.
type Segment struct {
	mu    sync.Mutex
	boxes map[int]DeliverFunc
}

// Register installs the delivery function for a rank. Registering a rank
// that is already present panics: each process registers once per init
// cycle and deregisters on teardown, so a duplicate is a lifecycle bug.
func (s *Segment) Register(rank int, deliver DeliverFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.boxes[rank]; dup {
		panic(fmt.Sprintf("simnet: rank %d already registered in segment", rank))
	}
	s.boxes[rank] = deliver
}

// Deregister removes a rank's delivery function; senders observe the rank
// as closed afterwards. Deregistering an absent rank is a no-op.
func (s *Segment) Deregister(rank int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.boxes, rank)
}

// Lookup returns the rank's delivery function. The function is invoked
// outside the segment lock, so an in-flight handoff may race with
// Deregister; receivers must tolerate delivery after their own close.
func (s *Segment) Lookup(rank int) (DeliverFunc, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn, ok := s.boxes[rank]
	return fn, ok
}

func (f *Fabric) lookup(a Addr) *Endpoint {
	f.mu.Lock()
	defer f.mu.Unlock()
	if a.Node < 0 || a.Node >= len(f.nodes) || a.Slot < 0 || a.Slot >= len(f.nodes[a.Node]) {
		return nil
	}
	return f.nodes[a.Node][a.Slot]
}

// delayFor returns the modeled transfer cost for nbytes between two nodes.
func (f *Fabric) delayFor(src, dst int, nbytes int) time.Duration {
	p := f.cluster.Profile
	var lat time.Duration
	var bw float64
	if src == dst {
		lat, bw = p.IntraNodeLatency, p.IntraNodeBandwidth
	} else {
		lat, bw = p.InterNodeLatency, p.InterNodeBandwidth
	}
	d := lat
	if src != dst && !p.SameDragonflyGroup(src, dst) {
		d += p.GlobalHopLatency + f.reserveGlobalLink(src, p)
	}
	if bw > 0 && nbytes > 0 {
		d += time.Duration(float64(nbytes) / bw * float64(time.Second))
	}
	return d
}

// reserveGlobalLink queues a message on the source group's global link and
// returns the extra waiting time caused by earlier traffic. Each message
// occupies the link for GlobalLinkOccupancy.
func (f *Fabric) reserveGlobalLink(srcNode int, p topo.Profile) time.Duration {
	if p.GlobalLinkOccupancy <= 0 || p.DragonflyGroupSize <= 0 {
		return 0
	}
	group := srcNode / p.DragonflyGroupSize
	now := time.Now().UnixNano()
	f.globalMu.Lock()
	for len(f.globalBusy) <= group {
		f.globalBusy = append(f.globalBusy, 0)
	}
	start := f.globalBusy[group]
	if start < now {
		start = now
	}
	f.globalBusy[group] = start + int64(p.GlobalLinkOccupancy)
	f.globalMu.Unlock()
	return time.Duration(start - now)
}

// Delay charges the calling goroutine an arbitrary modeled cost. It is used
// for software overheads that are not tied to a message (e.g. MCA component
// loading). Delays up to spinThreshold busy-wait (yielding) to preserve
// microsecond-scale accuracy — a sub-millisecond time.Sleep lasts about a
// millisecond even on an idle host (with no goroutine spinning, the
// runtime's netpoller waits in whole milliseconds), and a loaded host adds
// jitter of the same order, either of which would swamp the modeled costs;
// longer delays sleep for the bulk and spin out the remainder.
func Delay(d time.Duration) {
	if d <= 0 {
		return
	}
	const spinThreshold = time.Millisecond
	deadline := time.Now().Add(d)
	if d > spinThreshold {
		time.Sleep(d - spinThreshold)
	}
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
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
}

// Addr returns the endpoint's fabric address.
func (e *Endpoint) Addr() Addr { return e.addr }

// Send delivers a message to dst, charging the sender the modeled wire cost.
// It returns ErrClosed if the destination endpoint has been closed (the
// destination process failed) or does not exist.
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
	Delay(e.fab.delayFor(e.addr.Node, dst.Node, n) + v.extraDelay)
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
			dep.enqueue(dupMessage(m))
		}
		time.AfterFunc(v.reorderLag, func() { dep.enqueue(m) })
		return nil
	}
	// Copy before the hand-off: once m is enqueued the receiver owns its
	// buffer and may already be recycling it.
	var dup Message
	if v.dup {
		dup = dupMessage(m)
	}
	err := dep.enqueue(m)
	if err == nil && v.dup {
		dep.enqueue(dup)
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

func (e *Endpoint) enqueue(m Message) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	e.queue = append(e.queue, m)
	e.mu.Unlock()
	select {
	case e.ready <- struct{}{}:
	default:
	}
	return nil
}

// Recv blocks until a message arrives, the timeout expires (timeout > 0), or
// the endpoint is closed. A zero timeout means wait forever.
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
// fully drained.
func (e *Endpoint) TryRecv() (Message, bool, error) {
	e.mu.Lock()
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
// ErrClosed once the queue is drained; future Sends to it fail. Closing an
// already-closed endpoint is a no-op.
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
