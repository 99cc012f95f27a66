// Package btl defines the byte-transfer-layer interface separating the PML's
// protocol logic (matching, eager/rendezvous, exCID handshake) from how raw
// packets actually move between processes, mirroring Open MPI's PML/BTL
// split. The PML selects one module per peer at connection time — the first
// module, in MCA priority order, whose AddProc accepts the peer — so
// intra-node traffic can ride a shared-memory fast path while inter-node
// traffic uses the simulated fabric.
package btl

import "errors"

var (
	// ErrUnreachable is returned by AddProc when the module cannot reach
	// the peer (e.g. sm for an off-node rank); the PML tries the next
	// module in priority order.
	ErrUnreachable = errors.New("btl: peer unreachable by this transport")

	// ErrClosed is returned by Send when the peer's transport endpoint has
	// been torn down.
	ErrClosed = errors.New("btl: endpoint closed")
)

// Stats counts the traffic one module has carried. Msgs/Bytes are the
// send-side counters every module maintains; the receive-side counters and
// Drops are meaningful only for modules that own a real wire (udp): a
// datagram that fails the receive-path packet filter — malformed frame,
// foreign job, reassembly overflow — is counted in Drops and discarded
// before it can reach the PML matcher.
type Stats struct {
	Msgs  uint64
	Bytes uint64

	RecvMsgs  uint64
	RecvBytes uint64
	Drops     uint64
}

// DeliverFunc hands one inbound packet up to the PML. sm invokes it inline
// on the sender's goroutine; net does too for a hop that costs nothing and
// finds nothing queued at the receiver, and otherwise from its endpoint's
// pump goroutine (simnet.Endpoint.Serve); udp from its receive loop. The
// PML must not assume a particular calling context, must not block in it,
// and must not hold locks that a nested Send from inside the callback
// would need. The packet
// becomes the receiving engine's property: it may retain it (unexpected
// eager payloads) or recycle it into the PML buffer arena once consumed, so
// modules must not touch pkt after the callback returns.
type DeliverFunc func(pkt []byte)

// Endpoint is one peer reachable through a module.
type Endpoint interface {
	// Send injects one packet toward the peer and transfers ownership:
	// the sm path hands the very slice to the receiver inline, and on the
	// net path the receiving engine may recycle the buffer as soon as it
	// consumes the delivery, so callers must not read or reuse pkt after
	// Send returns. The PML builds packets from a pooled arena and the
	// receiving engine returns them there (pml.getBuf/putBuf).
	Send(pkt []byte) error
}

// Module is one transport component instance, owned by a single PML engine.
type Module interface {
	// Name is the MCA component name ("sm", "net").
	Name() string

	// EagerLimit is the module's preferred eager/rendezvous switch point.
	EagerLimit() int

	// Activate installs the upcall for inbound packets and starts any
	// progress machinery. Called exactly once, before any AddProc.
	Activate(deliver DeliverFunc)

	// AddProc resolves a peer, returning ErrUnreachable if the module
	// cannot carry traffic to it.
	AddProc(globalRank int) (Endpoint, error)

	// Stats snapshots the module's send-side counters.
	Stats() Stats

	// Close tears the module down: peers' sends fail with ErrClosed and no
	// delivery starts after it returns. That is all it guarantees. sm and
	// net do not wait for a delivery already running, which may be inline
	// on a peer's goroutine, so the PML drops packets that reach it after
	// its own close (pml.Engine.deliver); udp also waits for its receive
	// loop to exit.
	Close()
}
