package mpi

import (
	"fmt"
	"time"

	"gompi/internal/opal"
)

// Dynamic process connection (MPI_Comm_accept / MPI_Comm_connect), built on
// the runtime's global name service. Two independently-started components —
// each with its own session and internal communicator, as in the paper's
// client/server discussion (§II-C) — rendezvous by port name and obtain an
// intercommunicator.
//
// Protocol: the connector publishes a connection request (its group plus a
// unique connection ID) under the port's request key and blocks on the
// per-connection accept key; the acceptor blocks on the request key,
// consumes it, and answers on the accept key. Sequential accept/connect
// pairs on one port work indefinitely; CONCURRENT connects to one port
// must be serialized by the application (a second simultaneous request
// overwrites the first).

func portRequestKey(port string) string { return "mpi.port/" + port + "/request" }
func portAcceptKey(port, connID string) string {
	return "mpi.port/" + port + "/accept/" + connID
}

// rendezvousMsg is a connection request or answer in the name service: the
// connection ID and the publishing side's global ranks.
type rendezvousMsg struct {
	connID string
	ranks  []int
}

var rendezvousCodec = opal.Codec[rendezvousMsg]{
	Pack: func(e *opal.Encoder, m rendezvousMsg) {
		e.Str(m.connID)
		e.Ints(m.ranks)
	},
	Unpack: func(d *opal.Decoder) rendezvousMsg {
		return rendezvousMsg{connID: d.Str(), ranks: d.Ints()}
	},
}

func decodeRendezvous(b []byte) (rendezvousMsg, error) {
	m, err := rendezvousCodec.Decode(b)
	if err != nil {
		return m, fmt.Errorf("mpi: corrupt rendezvous payload: %w", err)
	}
	return m, nil
}

// Accept waits for one Connect on the named port (MPI_Comm_accept).
// Collective over comm; root performs the rendezvous.
func (c *Comm) Accept(port string, root int, timeout time.Duration) (*InterComm, error) {
	return c.rendezvous(port, root, timeout, true)
}

// Connect connects to a port being accepted on (MPI_Comm_connect).
// Collective over comm. Connect may be called before the matching Accept;
// the request waits in the name service.
func (c *Comm) Connect(port string, root int, timeout time.Duration) (*InterComm, error) {
	return c.rendezvous(port, root, timeout, false)
}

func (c *Comm) rendezvous(port string, root int, timeout time.Duration, accepting bool) (*InterComm, error) {
	if err := c.checkLive(); err != nil {
		return nil, c.errh.invoke(err)
	}
	if root < 0 || root >= c.Size() {
		return nil, c.errh.invoke(fmt.Errorf("mpi: rendezvous root %d out of range", root))
	}
	if c.sess == nil {
		return nil, c.errh.invoke(fmt.Errorf("mpi: communicator has no session"))
	}
	if timeout <= 0 {
		timeout = c.p.inst.Timeout()
	}
	client := c.p.inst.Client()
	myRanks := c.group.GlobalRanks()

	// Root performs the name-service exchange; the peer group's ranks are
	// then broadcast within the local communicator.
	var peerBuf []byte
	var rendezvousErr error
	if c.Rank() == root {
		if accepting {
			if req, err := client.Lookup(portRequestKey(port), timeout); err != nil {
				rendezvousErr = fmt.Errorf("mpi: accept on %q: %w", port, err)
			} else if m, err := decodeRendezvous(req); err != nil {
				rendezvousErr = err
			} else {
				_ = client.Unpublish(portRequestKey(port)) // consume the request
				answer := rendezvousCodec.Encode(rendezvousMsg{connID: m.connID, ranks: myRanks})
				if err := client.Publish(portAcceptKey(port, m.connID), answer); err != nil {
					rendezvousErr = err
				} else {
					peerBuf = PackInt64s(toInt64(m.ranks))
				}
			}
		} else {
			connID := fmt.Sprintf("%d.%d", c.p.JobRank(), c.p.inst.NextCommSeq("port/"+port))
			request := rendezvousCodec.Encode(rendezvousMsg{connID: connID, ranks: myRanks})
			if err := client.Publish(portRequestKey(port), request); err != nil {
				rendezvousErr = err
			} else if acc, err := client.Lookup(portAcceptKey(port, connID), timeout); err != nil {
				rendezvousErr = fmt.Errorf("mpi: connect to %q: %w", port, err)
			} else if m, err := decodeRendezvous(acc); err != nil {
				rendezvousErr = err
			} else {
				_ = client.Unpublish(portAcceptKey(port, connID))
				peerBuf = PackInt64s(toInt64(m.ranks))
			}
		}
	}

	// Broadcast outcome (length 0 signals failure) then the peer ranks.
	lenBuf := PackInt64s([]int64{int64(len(peerBuf))})
	if err := c.Bcast(lenBuf, root); err != nil {
		return nil, c.errh.invoke(err)
	}
	n := int(UnpackInt64s(lenBuf)[0])
	if n == 0 {
		if rendezvousErr == nil {
			rendezvousErr = fmt.Errorf("mpi: rendezvous on %q failed", port)
		}
		return nil, c.errh.invoke(rendezvousErr)
	}
	if c.Rank() != root {
		peerBuf = make([]byte, n)
	}
	if err := c.Bcast(peerBuf, root); err != nil {
		return nil, c.errh.invoke(err)
	}
	peerRanks := make([]int, n/8)
	for i, v := range UnpackInt64s(peerBuf) {
		peerRanks[i] = int(v)
	}

	local := newGroup(c.p, myRanks)
	remote := newGroup(c.p, peerRanks)
	return c.sess.InterCommCreateFromGroups(local, remote, "port/"+port, c.errh)
}

func toInt64(v []int) []int64 {
	out := make([]int64, len(v))
	for i, x := range v {
		out[i] = int64(x)
	}
	return out
}

// ClosePort clears any unconsumed connection request on the port
// (MPI_Close_port).
func (c *Comm) ClosePort(port string) error {
	return c.p.inst.Client().Unpublish(portRequestKey(port))
}
