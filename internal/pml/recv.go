package pml

import "fmt"

// The receive side: posting receives, probing, and matching inbound
// eager/RTS packets against them.

// Irecv posts a nonblocking receive from src (comm rank or AnySource) with
// tag (or AnyTag) into buf.
func (ch *Channel) Irecv(src, tag int, buf []byte) *Request {
	req := newRequest(ch.eng)
	ch.irecv(src, tag, buf, req)
	return req
}

// Recv is the blocking form of Irecv. It owns its request from start to
// end, so it recycles one through the engine's spare slot: a warmed
// blocking receive allocates nothing, on the posted and the unexpected
// path alike.
func (ch *Channel) Recv(src, tag int, buf []byte) (Status, error) {
	e := ch.eng
	req := e.recvSpare.Swap(nil)
	if req == nil {
		req = newRequest(e)
	} else {
		guardRecvTake(req)
	}
	ch.irecv(src, tag, buf, req)
	st, err := req.Wait()
	req.recycle()
	guardRecvPark(req)
	if !e.recvSpare.CompareAndSwap(nil, req) {
		guardRecvTake(req) // a concurrent Recv refilled the slot first
	}
	return st, err
}

// irecv posts req as a receive, or completes it at once when the receive
// is refused or an unexpected message already matches it.
func (ch *Channel) irecv(src, tag int, buf []byte, req *Request) {
	e := ch.eng
	if src != AnySource && (src < 0 || src >= len(ch.ranks)) {
		req.complete(Status{}, fmt.Errorf("pml: recv src %d out of range [0,%d)", src, len(ch.ranks)))
		return
	}
	pr := e.newPostedRecv()
	pr.ch, pr.src, pr.tag, pr.buf, pr.req = ch, src, tag, buf, req

	if raceYield != nil {
		raceYield("irecv")
	}
	// The failure rule runs under the channel lock that also guards the
	// posted queue. A failure marks its state before it sweeps that queue
	// under the same lock, so a receive is either refused here or posted
	// in time for the sweep.
	ch.lock.Lock()
	msg, refuse := ch.unexpectedLocked(src, tag, true)
	if msg == nil && refuse == nil {
		ch.m.pushPosted(pr)
		ch.lock.Unlock()
		return
	}
	ch.lock.Unlock()
	if refuse != nil {
		e.freePostedRecv(pr)
		req.complete(Status{}, refuse)
		return
	}
	e.st.unexpectedHits.Add(1)
	e.consume(pr, msg)
	e.freeInbound(msg)
}

// consume finishes matching a posted receive against an inbound message.
// Called with no locks held; both records have been removed from every
// queue, so this goroutine owns them. consume recycles the receive record
// and the eager frame; the caller recycles msg, which may be a record on
// its own stack.
func (e *Engine) consume(pr *postedRecv, msg *inbound) {
	if !msg.rndv {
		n := copy(pr.buf, msg.payload)
		st := Status{Source: msg.src, Tag: msg.tag, Count: n}
		var err error
		if len(msg.payload) > len(pr.buf) {
			err = ErrTruncate
		}
		e.putBuf(msg.raw)
		pr.req.complete(st, err)
		e.freePostedRecv(pr)
		return
	}
	// Rendezvous: register the receive and send CTS.
	recvID := e.nextReq.Add(1)
	src, tag := msg.src, msg.tag
	pr.resSrc, pr.resTag = src, tag
	sendReqID, senderGlobal := msg.sendReqID, msg.senderGlobal
	ch := pr.ch
	e.pendMu.Lock()
	e.pendRecv[recvID] = pr
	e.pendMu.Unlock()
	// Registered first, checked second, as in isend: a sweep of pendRecv
	// that ran before the registration is seen here. A sweep after it may
	// already have failed and recycled pr, so pr is not touched again.
	if refuse := ch.refuses(src, tag, opUnderway); refuse != nil {
		e.failPendingRecv(recvID, refuse)
		return
	}
	e.sendCTS(ch, senderGlobal, sendReqID, recvID)
}

// failPendingRecv withdraws a registered rendezvous receive and fails it,
// unless a sweep already took it.
func (e *Engine) failPendingRecv(recvID uint64, err error) {
	e.pendMu.Lock()
	pr := e.pendRecv[recvID]
	delete(e.pendRecv, recvID)
	e.pendMu.Unlock()
	if pr != nil {
		pr.req.complete(Status{}, err)
		e.freePostedRecv(pr)
	}
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
		e.failPendingRecv(recvID, e.wrapSendErr(senderGlobal, err))
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
// With none queued it reports the failure rule's refusal, as a receive
// would get it.
func (ch *Channel) Iprobe(src, tag int) (Status, bool, error) {
	ch.lock.Lock()
	defer ch.lock.Unlock()
	msg, err := ch.unexpectedLocked(src, tag, false)
	if msg == nil {
		return Status{}, false, err
	}
	return probeStatus(msg), true, nil
}

// Probe blocks until a matching message is available (without consuming
// it), or until the failure rule refuses the wait. Arrivals and sweeps
// broadcast the channel's cond.
func (ch *Channel) Probe(src, tag int) (Status, error) {
	ch.lock.Lock()
	defer ch.lock.Unlock()
	for {
		msg, err := ch.unexpectedLocked(src, tag, false)
		if msg != nil {
			return probeStatus(msg), nil
		}
		if err != nil {
			return Status{}, err
		}
		ch.cond.Wait()
	}
}

// handleMatch routes an eager (hdrMatch) or rendezvous-RTS packet through
// tag matching on its channel. A frame that a posted receive takes at once
// is matched from a record on this stack; only a frame that must queue, as
// unexpected or stashed out of sequence, draws a pooled one.
func (e *Engine) handleMatch(pkt []byte, env envelope) {
	hdr := env.hdr
	for {
		var ch *Channel
		if env.hasExt {
			if v, ok := e.byEx.Load(env.ext.ex); ok {
				ch = v.(*Channel)
			}
		} else {
			ch = e.channel(hdr.ctx)
		}
		if ch == nil {
			// The communicator is still being constructed locally: buffer
			// and replay on AddChannel. Re-check the registry under regMu
			// first — AddChannel holds it while taking the orphan list, so
			// a packet cannot slip into orphans after its replay.
			if raceYield != nil {
				raceYield("orphan")
			}
			e.regMu.Lock()
			if env.hasExt {
				if v, ok := e.byEx.Load(env.ext.ex); ok {
					ch = v.(*Channel)
				} else {
					e.orphansEx[env.ext.ex] = append(e.orphansEx[env.ext.ex], pkt)
				}
			} else {
				if ch = e.channel(hdr.ctx); ch == nil {
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

		in := inbound{src: int(hdr.src), tag: int(hdr.tag), seq: hdr.seq, senderGlobal: ch.ranks[hdr.src]}
		if hdr.typ == hdrRTS {
			in.rndv = true
			in.rndvLen = env.rndv.length
			in.sendReqID = env.rndv.sendReqID
		} else {
			in.payload = env.payload
			in.raw = pkt
		}

		var needAck bool
		var ackTo int
		ch.lock.Lock()
		if ch.removed {
			ch.lock.Unlock()
			continue // channel torn down under us: redo the lookup
		}
		ps := &ch.peers[hdr.src]
		if ch.useEx && !env.hasExt && !ps.ackSent {
			// A peer sends on the fast path only after this channel's ACK,
			// which answers its first extended frame. A fast-path frame
			// before that is a stale frame of an earlier channel that had
			// this local CID: dropping it keeps it out of the sequence
			// space, where it would displace the real frame of its number.
			ch.lock.Unlock()
			e.st.dupsDropped.Add(1)
			e.putBuf(pkt)
			return
		}
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
		if d := int16(in.seq - ps.recvSeq); d != 0 {
			if d < 0 || ps.stash[in.seq] != nil {
				ch.lock.Unlock()
				e.st.dupsDropped.Add(1)
				e.putBuf(pkt)
			} else {
				if ps.stash == nil {
					ps.stash = make(map[uint16]*inbound)
				}
				ps.stash[in.seq] = e.queued(&in)
				ch.lock.Unlock()
				e.st.reorderStashed.Add(1)
				if hdr.typ == hdrRTS {
					e.putBuf(pkt) // fully decoded into the record; the frame is done
				}
			}
			if needAck {
				e.sendChannelAck(ch, ackTo)
			}
			return
		}

		// In sequence: deliver, then drain any parked successors in order.
		ps.recvSeq++
		matched := ch.m.takePosted(in.src, in.tag)
		if matched == nil {
			ch.m.pushUnexpected(e.queued(&in))
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
			} else {
				drained = append(drained, nxt)
				drainedMatch = append(drainedMatch, m2)
			}
		}
		ch.lock.Unlock()

		if matched != nil {
			e.st.postedHits.Add(1)
			e.consume(matched, &in)
		}
		for i, m2 := range drainedMatch {
			e.st.postedHits.Add(1)
			e.consume(m2, drained[i])
			e.freeInbound(drained[i])
		}
		if hdr.typ == hdrRTS {
			e.putBuf(pkt) // RTS is fully decoded; the frame is done
		}
		if needAck {
			e.sendChannelAck(ch, ackTo)
		}
		return
	}
}

// queued copies a frame's record into a pooled one, for a frame that waits
// in a queue or a stash.
func (e *Engine) queued(in *inbound) *inbound {
	m := e.newInbound()
	*m = *in
	return m
}
