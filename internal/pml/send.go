package pml

import (
	"errors"
	"fmt"
)

// The send side: eager and rendezvous-RTS injection.

// Isend starts a nonblocking send of buf to dest (a comm rank) with tag.
// Eager messages complete as soon as they are injected; larger messages use
// the rendezvous protocol and complete when the receiver has drained them.
func (ch *Channel) Isend(dest, tag int, buf []byte) *Request {
	return ch.isend(dest, tag, buf, false)
}

// Issend starts a nonblocking synchronous-mode send (MPI_Issend): the
// request completes only after the receiver has matched the message. It
// always uses the rendezvous protocol, whose CTS is exactly the
// matched-notification synchronous mode needs.
func (ch *Channel) Issend(dest, tag int, buf []byte) *Request {
	return ch.isend(dest, tag, buf, true)
}

// Ssend is the blocking form of Issend (MPI_Ssend).
func (ch *Channel) Ssend(dest, tag int, buf []byte) error {
	_, err := ch.Issend(dest, tag, buf).Wait()
	return err
}

func (ch *Channel) isend(dest, tag int, buf []byte, synchronous bool) *Request {
	e := ch.eng
	if dest < 0 || dest >= len(ch.ranks) {
		return completedRequest(Status{}, fmt.Errorf("pml: send dest %d out of range [0,%d)", dest, len(ch.ranks)))
	}
	destGlobal := ch.ranks[dest]

	// Fail fast before routing: routeTo may block resolving a peer that
	// the runtime already declared dead.
	if e.closed.Load() {
		return completedRequest(Status{}, ErrClosed)
	}
	if e.peerFailed(destGlobal) {
		return completedRequest(Status{}, fmt.Errorf("%w: rank %d", ErrPeerFailed, destGlobal))
	}

	rt, err := e.routeTo(destGlobal)
	if err != nil {
		return completedRequest(Status{}, err)
	}

	eager := len(buf) <= rt.eager && !synchronous
	ch.lock.Lock()
	if ch.revoked {
		ch.lock.Unlock()
		return completedRequest(Status{}, ErrRevoked)
	}
	if ch.deadMember && tag < 0 && !eager {
		// The mirror of Irecv's rule: a collective's rendezvous send to a
		// live member that already bailed out would wait for a CTS forever.
		ch.lock.Unlock()
		return completedRequest(Status{}, fmt.Errorf("%w: communicator has a failed member", ErrPeerFailed))
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

	var reqID uint64
	var req *Request
	if !eager {
		reqID = e.nextReq.Add(1)
		req = newRequest()
		e.pendMu.Lock()
		if e.closed.Load() {
			e.pendMu.Unlock()
			return completedRequest(Status{}, ErrClosed)
		}
		e.pendSend[reqID] = &pendingSend{req: req, payload: buf, destGlobal: destGlobal, ch: ch, internal: tag < 0}
		e.pendMu.Unlock()
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
			e.pendMu.Lock()
			delete(e.pendSend, reqID)
			e.pendMu.Unlock()
			req.complete(Status{}, err)
			return req
		}
		return completedRequest(Status{}, err)
	}
	if eager {
		return completedRequest(Status{Source: ch.myRank, Tag: tag, Count: len(buf)}, nil)
	}
	return req
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

// Send is the blocking form of Isend.
func (ch *Channel) Send(dest, tag int, buf []byte) error {
	_, err := ch.Isend(dest, tag, buf).Wait()
	return err
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
