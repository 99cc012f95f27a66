package pml

import (
	"errors"
	"fmt"
)

// The send side: eager and rendezvous-RTS injection.

// Isend starts a nonblocking send of buf to dest (a comm rank) with tag.
// Eager messages complete as soon as they are injected, and their request
// is one shared pre-completed value; larger messages use the rendezvous
// protocol and complete when the receiver has drained them.
func (ch *Channel) Isend(dest, tag int, buf []byte) *Request {
	return ch.isend(dest, tag, buf, false).request()
}

// Issend starts a nonblocking synchronous-mode send (MPI_Issend): the
// request completes only after the receiver has matched the message. It
// always uses the rendezvous protocol, whose CTS is exactly the
// matched-notification synchronous mode needs.
func (ch *Channel) Issend(dest, tag int, buf []byte) *Request {
	return ch.isend(dest, tag, buf, true).request()
}

// Ssend is the blocking form of Issend (MPI_Ssend).
func (ch *Channel) Ssend(dest, tag int, buf []byte) error {
	return ch.isend(dest, tag, buf, true).wait()
}

// Send is the blocking form of Isend. A send that finishes at injection
// (eager, or refused) constructs no request.
func (ch *Channel) Send(dest, tag int, buf []byte) error {
	return ch.isend(dest, tag, buf, false).wait()
}

// sendOutcome is what isend returns: the pending request of a rendezvous
// send, or the outcome of a send that finished at injection.
type sendOutcome struct {
	req *Request // nil when the send finished at injection
	err error    // that send's outcome
}

// request gives the outcome the nonblocking calls' shape.
func (o sendOutcome) request() *Request {
	switch {
	case o.req != nil:
		return o.req
	case o.err == nil:
		return sent
	default:
		return completedRequest(o.err)
	}
}

// wait gives the outcome the blocking calls' shape.
func (o sendOutcome) wait() error {
	if o.req == nil {
		return o.err
	}
	_, err := o.req.Wait()
	return err
}

func (ch *Channel) isend(dest, tag int, buf []byte, synchronous bool) sendOutcome {
	e := ch.eng
	if dest < 0 || dest >= len(ch.ranks) {
		return sendOutcome{err: fmt.Errorf("pml: send dest %d out of range [0,%d)", dest, len(ch.ranks))}
	}
	destGlobal := ch.ranks[dest]

	// Fail fast before routing: routeTo may block resolving a peer that
	// the runtime already declared dead.
	if e.closed.Load() || e.peerFailed(destGlobal) {
		if err := ch.refuses(dest, tag, opEager); err != nil {
			return sendOutcome{err: err}
		}
	}

	rt, err := e.routeTo(destGlobal)
	if err != nil {
		return sendOutcome{err: err}
	}

	eager := len(buf) <= rt.eager && !synchronous
	// A rendezvous send is registered in pendSend before it asks the
	// failure rule, and the rule runs under the channel lock. A failure
	// marks its state before it sweeps pendSend, so a failure that lands
	// after the registration finds the entry, and one that lands before it
	// is refused here: no send waits for a CTS that a dead or revoked peer
	// will never send. An eager send does not wait on its peer, so only a
	// closed, removed or revoked channel or a dead destination refuses it.
	var reqID uint64
	var req *Request
	if !eager {
		reqID = e.nextReq.Add(1)
		req = newRequest(e)
		e.pendMu.Lock()
		e.pendSend[reqID] = &pendingSend{req: req, payload: buf, ch: ch, dest: dest, tag: tag}
		e.pendMu.Unlock()
		if raceYield != nil {
			raceYield("isend")
		}
	}
	ch.lock.Lock()
	op := opEager
	if !eager {
		op = opWaits
	}
	if refuse := ch.refusal(dest, tag, op); refuse != nil {
		ch.lock.Unlock()
		if eager {
			return sendOutcome{err: refuse}
		}
		e.dropPendingSend(reqID, req, refuse)
		return sendOutcome{req: req}
	}
	ps := &ch.peers[dest]
	seq := ps.sendSeq
	ps.sendSeq++
	ext := false
	ctx := ch.localCID
	if ch.useEx {
		if ps.haveACK {
			ctx = ps.remoteCID
		} else {
			ext = true
		}
	}
	ch.lock.Unlock()

	if !eager {
		e.st.rendezvous.Add(1)
	}
	if ext {
		e.st.extSent.Add(1)
	} else {
		e.st.fastSent.Add(1)
	}

	hdr := matchHeader{ctx: ctx, src: uint32(ch.myRank), tag: int32(tag), seq: seq}
	if ext {
		hdr.flags |= flagExt
	}

	var pkt []byte
	if eager {
		hdr.typ = hdrMatch
		pkt = e.buildPacket(hdr, ch, ext, buf, nil)
	} else {
		hdr.typ = hdrRTS
		var info [rndvInfoLen]byte
		putRndvInfo(info[:], rndvInfo{length: uint64(len(buf)), sendReqID: reqID})
		pkt = e.buildPacket(hdr, ch, ext, info[:], nil)
	}

	// Send with no lock held: the sm BTL delivers inline on this
	// goroutine, and the receiver's handler (or our own, on a self-send)
	// may send replies that re-enter the engine.
	if err := rt.ep.Send(pkt); err != nil {
		err = e.wrapSendErr(destGlobal, err)
		if !eager {
			e.dropPendingSend(reqID, req, err)
			return sendOutcome{req: req}
		}
		return sendOutcome{err: err}
	}
	return sendOutcome{req: req} // nil for an eager send: it finished at injection
}

// dropPendingSend withdraws a registered rendezvous send and fails it. A
// failure sweep may have got there first; then the entry is already gone
// and the request keeps the sweep's error.
func (e *Engine) dropPendingSend(reqID uint64, req *Request, err error) {
	e.pendMu.Lock()
	delete(e.pendSend, reqID)
	e.pendMu.Unlock()
	req.complete(Status{}, err)
}

// buildPacket assembles header(s) + body (+extra appended after body) into
// an arena buffer; the receiving engine recycles it after consumption.
func (e *Engine) buildPacket(hdr matchHeader, ch *Channel, ext bool, body, extra []byte) []byte {
	n := matchHeaderLen
	if ext {
		n += extHeaderLen
	}
	pkt := e.getBuf(n + len(body) + len(extra))
	putMatchHeader(pkt, hdr)
	off := matchHeaderLen
	if ext {
		putExtHeader(pkt[off:], extHeader{ex: ch.ex, localCID: ch.localCID, commSize: uint32(len(ch.ranks))})
		off += extHeaderLen
	}
	copy(pkt[off:], body)
	copy(pkt[off+len(body):], extra)
	return pkt
}

// wrapSendErr classifies a transport error for traffic toward a peer the
// runtime has declared dead: the closed endpoint IS the peer failure, so
// surface it as ErrPeerFailed rather than a generic transport error. Errors
// toward live peers pass through unchanged.
func (e *Engine) wrapSendErr(destGlobal int, err error) error {
	if err == nil || errors.Is(err, ErrPeerFailed) {
		return err
	}
	if e.peerFailed(destGlobal) {
		return fmt.Errorf("%w: rank %d: %v", ErrPeerFailed, destGlobal, err)
	}
	return err
}
