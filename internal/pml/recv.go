package pml

import "fmt"

// The receive side: posting receives, probing, and matching inbound
// eager/RTS packets against them.

// Irecv posts a nonblocking receive from src (comm rank or AnySource) with
// tag (or AnyTag) into buf.
func (ch *Channel) Irecv(src, tag int, buf []byte) *Request {
	e := ch.eng
	if src != AnySource && (src < 0 || src >= len(ch.ranks)) {
		return completedRequest(Status{}, fmt.Errorf("pml: recv src %d out of range [0,%d)", src, len(ch.ranks)))
	}
	if e.closed.Load() {
		return completedRequest(Status{}, ErrClosed)
	}
	// If the runtime already declared the source dead, any message it sent
	// before dying may still be in the unexpected queue, so drain that
	// first, but never block waiting for a new one.
	srcFailed := src != AnySource && e.peerFailed(ch.ranks[src])

	req := newRequest()
	pr := e.newPostedRecv()
	pr.ch, pr.src, pr.tag, pr.buf, pr.req = ch, src, tag, buf, req

	ch.lock.Lock()
	if e.closed.Load() || ch.removed {
		ch.lock.Unlock()
		e.freePostedRecv(pr)
		return completedRequest(Status{}, ErrClosed)
	}
	if ch.revoked {
		// Revocation is terminal: even messages already in the unexpected
		// queue are not delivered — the communicator's state is no longer
		// globally consistent and the caller must rebuild.
		ch.lock.Unlock()
		e.freePostedRecv(pr)
		return completedRequest(Status{}, ErrRevoked)
	}
	msg := ch.m.takeUnexpected(src, tag)
	if msg == nil {
		if srcFailed {
			ch.lock.Unlock()
			e.freePostedRecv(pr)
			return completedRequest(Status{}, fmt.Errorf("%w: rank %d", ErrPeerFailed, ch.ranks[src]))
		}
		if src == AnySource && ch.allDead {
			// Every peer that could ever match this wildcard is dead and
			// its pre-death traffic was just drained above: nothing will
			// arrive, so posting would hang forever.
			ch.lock.Unlock()
			e.freePostedRecv(pr)
			return completedRequest(Status{}, fmt.Errorf("%w: all channel peers failed", ErrPeerFailed))
		}
		if ch.deadMember && tag < 0 && tag != AnyTag {
			// A collective must not start (or continue) on a communicator
			// with a failed member: its dependency graph includes the dead
			// rank, so this receive could hang on a live-but-bailed peer.
			ch.lock.Unlock()
			e.freePostedRecv(pr)
			return completedRequest(Status{}, fmt.Errorf("%w: communicator has a failed member", ErrPeerFailed))
		}
		ch.m.pushPosted(pr)
		ch.lock.Unlock()
		return req
	}
	ch.lock.Unlock()
	e.st.unexpectedHits.Add(1)
	e.consume(pr, msg)
	return req
}

// Recv is the blocking form of Irecv.
func (ch *Channel) Recv(src, tag int, buf []byte) (Status, error) {
	return ch.Irecv(src, tag, buf).Wait()
}

// consume finishes matching a posted receive against an inbound message.
// Called with no locks held; both records have been removed from every
// queue, so this goroutine owns them.
func (e *Engine) consume(pr *postedRecv, msg *inbound) {
	if !msg.rndv {
		n := copy(pr.buf, msg.payload)
		st := Status{Source: msg.src, Tag: msg.tag, Count: n}
		var err error
		if len(msg.payload) > len(pr.buf) {
			err = ErrTruncate
		}
		e.putBuf(msg.raw)
		e.freeInbound(msg)
		pr.req.complete(st, err)
		e.freePostedRecv(pr)
		return
	}
	// Rendezvous: register the receive and send CTS.
	recvID := e.nextReq.Add(1)
	pr.resSrc, pr.resTag = msg.src, msg.tag
	sendReqID, senderGlobal := msg.sendReqID, msg.senderGlobal
	ch := pr.ch
	e.freeInbound(msg)
	e.pendMu.Lock()
	if e.closed.Load() {
		e.pendMu.Unlock()
		pr.req.complete(Status{}, ErrClosed)
		e.freePostedRecv(pr)
		return
	}
	e.pendRecv[recvID] = pr
	e.pendMu.Unlock()
	e.sendCTS(ch, senderGlobal, sendReqID, recvID)
}

func (e *Engine) sendCTS(ch *Channel, senderGlobal int, sendReqID, recvID uint64) {
	pkt := e.getBuf(matchHeaderLen + ctsInfoLen)
	putMatchHeader(pkt, matchHeader{typ: hdrCTS, ctx: 0, src: uint32(ch.myRank)})
	putCTSInfo(pkt[matchHeaderLen:], ctsInfo{sendReqID: sendReqID, recvReqID: recvID})
	rt, err := e.routeTo(senderGlobal)
	if err == nil {
		err = rt.ep.Send(pkt)
	}
	if err != nil {
		e.pendMu.Lock()
		pr := e.pendRecv[recvID]
		delete(e.pendRecv, recvID)
		e.pendMu.Unlock()
		if pr != nil {
			pr.req.complete(Status{}, e.wrapSendErr(senderGlobal, err))
			e.freePostedRecv(pr)
		}
	}
}

func probeStatus(msg *inbound) Status {
	n := len(msg.payload)
	if msg.rndv {
		n = int(msg.rndvLen)
	}
	return Status{Source: msg.src, Tag: msg.tag, Count: n}
}

// Iprobe checks for a matching unexpected message without receiving it.
func (ch *Channel) Iprobe(src, tag int) (Status, bool) {
	ch.lock.Lock()
	defer ch.lock.Unlock()
	if msg := ch.m.peekUnexpected(src, tag); msg != nil {
		return probeStatus(msg), true
	}
	return Status{}, false
}

// Probe blocks until a matching message is available (without consuming it).
func (ch *Channel) Probe(src, tag int) (Status, error) {
	e := ch.eng
	ch.lock.Lock()
	defer ch.lock.Unlock()
	for {
		if e.closed.Load() || ch.removed {
			return Status{}, ErrClosed
		}
		if msg := ch.m.peekUnexpected(src, tag); msg != nil {
			return probeStatus(msg), nil
		}
		ch.cond.Wait()
	}
}

// handleMatch routes an eager (hdrMatch) or rendezvous-RTS packet through
// tag matching on its channel.
func (e *Engine) handleMatch(pkt []byte, env envelope) {
	hdr := env.hdr
	for {
		var ch *Channel
		if env.hasExt {
			if v, ok := e.byEx.Load(env.ext.ex); ok {
				ch = v.(*Channel)
			}
		} else {
			if v, ok := e.comms.Load(hdr.ctx); ok {
				ch = v.(*Channel)
			}
		}
		if ch == nil {
			// The communicator is still being constructed locally: buffer
			// and replay on AddChannel. Re-check the registry under regMu
			// first — AddChannel holds it while taking the orphan list, so
			// a packet cannot slip into orphans after its replay.
			e.regMu.Lock()
			if env.hasExt {
				if v, ok := e.byEx.Load(env.ext.ex); ok {
					ch = v.(*Channel)
				} else {
					e.orphansEx[env.ext.ex] = append(e.orphansEx[env.ext.ex], pkt)
				}
			} else {
				if v, ok := e.comms.Load(hdr.ctx); ok {
					ch = v.(*Channel)
				} else {
					e.orphans[hdr.ctx] = append(e.orphans[hdr.ctx], pkt)
				}
			}
			e.regMu.Unlock()
			if ch == nil {
				return
			}
		}
		if int(hdr.src) >= len(ch.ranks) {
			e.putBuf(pkt)
			return // corrupt source rank
		}

		msg := e.newInbound()
		msg.src = int(hdr.src)
		msg.tag = int(hdr.tag)
		msg.seq = hdr.seq
		msg.senderGlobal = ch.ranks[hdr.src]
		if hdr.typ == hdrRTS {
			msg.rndv = true
			msg.rndvLen = env.rndv.length
			msg.sendReqID = env.rndv.sendReqID
		} else {
			msg.payload = env.payload
			msg.raw = pkt
		}

		var needAck bool
		var ackTo int
		ch.lock.Lock()
		if ch.removed {
			ch.lock.Unlock()
			msg.raw = nil
			e.freeInbound(msg)
			continue // channel torn down under us: redo the lookup
		}
		ps := &ch.peers[hdr.src]
		if env.hasExt && !ps.ackSent {
			ps.ackSent = true
			needAck = true
			ackTo = ch.ranks[hdr.src]
		}

		// Sequence screening: the sender stamps every match/RTS frame with a
		// per-(channel, peer) sequence number. A frame behind the expected
		// number — or equal to one already parked — is a duplicate and is
		// dropped; a frame ahead of it is parked until the gap fills. This
		// is what makes the matching path immune to duplicated or reordered
		// first messages on an exCID channel (and everywhere else).
		if d := int16(msg.seq - ps.recvSeq); d != 0 {
			if d < 0 || ps.stash[msg.seq] != nil {
				ch.lock.Unlock()
				e.st.dupsDropped.Add(1)
				msg.raw = nil
				e.freeInbound(msg)
				e.putBuf(pkt)
			} else {
				if ps.stash == nil {
					ps.stash = make(map[uint16]*inbound)
				}
				ps.stash[msg.seq] = msg
				ch.lock.Unlock()
				e.st.reorderStashed.Add(1)
				if hdr.typ == hdrRTS {
					e.putBuf(pkt) // fully decoded into msg; the frame is done
				}
			}
			if needAck {
				e.sendChannelAck(ch, ackTo)
			}
			return
		}

		// In sequence: deliver, then drain any parked successors in order.
		ps.recvSeq++
		matched := ch.m.takePosted(msg.src, msg.tag)
		if matched == nil {
			ch.m.pushUnexpected(msg)
			ch.cond.Broadcast()
		}
		var drained []*inbound
		var drainedMatch []*postedRecv
		for len(ps.stash) > 0 {
			nxt, ok := ps.stash[ps.recvSeq]
			if !ok {
				break
			}
			delete(ps.stash, ps.recvSeq)
			ps.recvSeq++
			m2 := ch.m.takePosted(nxt.src, nxt.tag)
			if m2 == nil {
				ch.m.pushUnexpected(nxt)
				ch.cond.Broadcast()
			}
			drained = append(drained, nxt)
			drainedMatch = append(drainedMatch, m2)
		}
		ch.lock.Unlock()

		if matched != nil {
			e.st.postedHits.Add(1)
			e.consume(matched, msg)
		}
		for i, m2 := range drainedMatch {
			if m2 != nil {
				e.st.postedHits.Add(1)
				e.consume(m2, drained[i])
			}
		}
		if hdr.typ == hdrRTS {
			e.putBuf(pkt) // RTS is fully decoded into msg; the frame is done
		}
		if needAck {
			e.sendChannelAck(ch, ackTo)
		}
		return
	}
}
