// Package net is the fabric BTL: it wraps a simnet.Endpoint, carrying
// packets through the simulated network with its full latency/serialization
// model. It is the catch-all transport — AddProc accepts every peer — and
// sits below sm in MCA priority so intra-node traffic prefers the
// shared-memory fast path when that module is enabled.
//
// The module owns no receive loop: Activate serves the endpoint, so
// delivery follows simnet's one rule. A packet whose hop costs nothing
// (the Loopback profile, no fault verdict) and finds nothing queued at the
// receiver is delivered inline on the sender's goroutine, as sm delivers;
// every other packet is queued and delivered in arrival order by the
// endpoint's pump goroutine.
package net

import (
	"sync/atomic"

	"gompi/internal/btl"
	"gompi/internal/simnet"
)

// DefaultEagerLimit mirrors the fabric-path eager/rendezvous switch point
// the engine used before the BTL split.
const DefaultEagerLimit = 4096

// Module is the fabric transport for one process.
type Module struct {
	ep      *simnet.Endpoint
	resolve func(globalRank int) (simnet.Addr, error)
	eager   int

	msgs  atomic.Uint64
	bytes atomic.Uint64
}

// New wraps an endpoint. resolve maps a global rank to its fabric address;
// it is consulted once per peer, on AddProc. eagerLimit <= 0 selects
// DefaultEagerLimit.
func New(ep *simnet.Endpoint, resolve func(int) (simnet.Addr, error), eagerLimit int) *Module {
	if eagerLimit <= 0 {
		eagerLimit = DefaultEagerLimit
	}
	return &Module{ep: ep, resolve: resolve, eager: eagerLimit}
}

// Name implements btl.Module.
func (m *Module) Name() string { return "net" }

// EagerLimit implements btl.Module.
func (m *Module) EagerLimit() int { return m.eager }

// Activate serves the endpoint with the upcall (simnet.Endpoint.Serve).
func (m *Module) Activate(deliver btl.DeliverFunc) {
	m.ep.Serve(func(msg simnet.Message) { deliver(msg.Payload) })
}

// AddProc resolves the peer's fabric address. The fabric reaches every
// rank, so net never reports ErrUnreachable — only resolution failures.
func (m *Module) AddProc(globalRank int) (btl.Endpoint, error) {
	addr, err := m.resolve(globalRank)
	if err != nil {
		return nil, err
	}
	return &endpoint{mod: m, addr: addr}, nil
}

// Stats implements btl.Module.
func (m *Module) Stats() btl.Stats {
	return btl.Stats{Msgs: m.msgs.Load(), Bytes: m.bytes.Load()}
}

// Close shuts the endpoint: senders see btl.ErrClosed, no delivery starts
// afterwards, and the pump goroutine exits. Like sm's Close it does not
// wait for a delivery already running, inline on a sender or on the pump;
// the PML drops packets that reach it after its own close.
func (m *Module) Close() {
	m.ep.Close()
}

type endpoint struct {
	mod  *Module
	addr simnet.Addr
}

func (e *endpoint) Send(pkt []byte) error {
	// Read the size before the handoff: once Send returns, the packet
	// belongs to the receiving engine, which may already be recycling it.
	n := uint64(len(pkt))
	if err := e.mod.ep.Send(e.addr, simnet.Message{Payload: pkt}); err != nil {
		return err
	}
	e.mod.msgs.Add(1)
	e.mod.bytes.Add(n)
	return nil
}
