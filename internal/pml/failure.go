package pml

import "fmt"

// Failure handling: peer death (FailPeer/RevivePeer) and communicator
// revocation (Revoke and the hdrRevoke notice).

// FailPeer reacts to a runtime process-failure notification: every posted
// receive naming the dead process as its specific source fails with
// ErrPeerFailed, as do rendezvous operations pending in either direction —
// sends awaiting the dead peer's CTS (or, for internal tags, any member's
// CTS on a channel the dead process belonged to) and receives whose CTS
// went out but whose DATA will never arrive. Wildcard application receives
// are left posted while any other channel member survives — they may still
// match another sender — but once the LAST non-self member dies they are failed
// too (and new ones rejected): nothing can ever send on the channel again,
// so a blocking wildcard Recv would hang forever. On every channel
// containing the dead rank, internal (negative-tag) receives are failed
// regardless of source and the channel is poisoned for future internal
// receives: a collective's dependency graph reaches the dead rank
// transitively, so waiting on a live peer that itself bailed out would hang
// forever.
func (e *Engine) FailPeer(globalRank int) {
	if _, loaded := e.failedPeers.LoadOrStore(globalRank, struct{}{}); !loaded {
		e.failedCount.Add(1)
	}
	var victims []*Request
	var frees []*postedRecv
	e.comms.Range(func(_, v any) bool {
		ch := v.(*Channel)
		commRank := -1
		allDead := true
		for i, r := range ch.ranks {
			if r == globalRank {
				commRank = i
			}
			if i != ch.myRank && !e.peerFailed(r) {
				allDead = false
			}
		}
		if commRank < 0 {
			return true
		}
		ch.lock.Lock()
		ch.deadMember = true
		prs := ch.m.takePostedBySrc(commRank)
		prs = append(prs, ch.m.takePostedInternal()...)
		if allDead && !ch.allDead {
			ch.allDead = true
			prs = append(prs, ch.m.takePostedWildcard()...)
		}
		ch.cond.Broadcast() // wake probes so they re-check state
		ch.lock.Unlock()
		for _, pr := range prs {
			victims = append(victims, pr.req)
			frees = append(frees, pr)
		}
		return true
	})
	e.pendMu.Lock()
	for id, ps := range e.pendSend {
		if ps.destGlobal == globalRank || (ps.internal && channelHasRank(ps.ch, globalRank)) {
			victims = append(victims, ps.req)
			delete(e.pendSend, id)
		}
	}
	for id, pr := range e.pendRecv {
		// resSrc is the matched sender's comm rank, fixed when the CTS was
		// issued. The receive hangs if that sender died — or, for internal
		// tags, if any member of the channel died (the sender may never
		// reach its DATA send).
		dead := pr.resSrc >= 0 && pr.resSrc < len(pr.ch.ranks) && pr.ch.ranks[pr.resSrc] == globalRank
		if dead || (pr.resTag < 0 && channelHasRank(pr.ch, globalRank)) {
			victims = append(victims, pr.req)
			frees = append(frees, pr)
			delete(e.pendRecv, id)
		}
	}
	e.pendMu.Unlock()
	err := fmt.Errorf("%w: rank %d", ErrPeerFailed, globalRank)
	for _, r := range victims {
		r.complete(Status{}, err)
	}
	for _, pr := range frees {
		e.freePostedRecv(pr)
	}
}

// RevivePeer clears the failure mark for a respawned process so new
// communicators can reach its fresh incarnation: the failed-peer entry is
// dropped (sends stop failing fast) and the cached route is discarded so the
// next communication re-resolves the peer's new endpoint through the modex.
// Channels poisoned while the rank was dead STAY poisoned — their collective
// and matching state straddles two incarnations and cannot be trusted; the
// application rebuilds communicators over a survivor group instead.
func (e *Engine) RevivePeer(globalRank int) {
	if _, loaded := e.failedPeers.LoadAndDelete(globalRank); loaded {
		e.failedCount.Add(-1)
	}
	e.routes.Delete(globalRank)
}

// Revoke marks the communicator revoked everywhere (the ULFM
// MPIX_Comm_revoke analogue): locally, every pending and future operation
// on the channel fails with ErrRevoked; remotely, a revocation notice goes
// to every member the runtime still believes alive, whose engine applies
// the same local poison on receipt. The notice is best-effort and
// direct — every member that observed the triggering failure revokes too,
// so delivery does not depend on a single revoker surviving. Revoking an
// already-revoked (or removed) channel is a no-op.
//
// Revocation exists for exactly one situation: a member died, some
// survivors noticed (their operations toward the dead rank failed) and
// abandoned the communicator, and other survivors are still blocked in
// operations among themselves that no one will ever complete. FailPeer
// cannot unblock those — the blocked operation's peer is alive — so the
// survivors that DID notice interrupt the rest.
func (e *Engine) Revoke(ch *Channel) {
	if !e.revokeLocal(ch) {
		return
	}
	for i, g := range ch.ranks {
		if i == ch.myRank || e.peerFailed(g) {
			continue
		}
		rt, err := e.routeTo(g)
		if err != nil {
			continue // unreachable peer learns from another revoker
		}
		// Unlike data packets, a revocation notice deliberately races with
		// the receiver freeing this communicator and building its
		// replacement. Local CIDs are recycled, so a notice addressed by
		// remoteCID could poison an innocent successor channel that reused
		// the number; the exCID is never reused, so exCID channels always
		// address the notice extended. (Consensus-CID channels have no
		// unique identity on the wire — there the notice is best-effort and
		// the tiny reuse window is accepted.)
		ext := ch.useEx
		hdr := matchHeader{typ: hdrRevoke, ctx: ch.localCID, src: uint32(ch.myRank)}
		if ext {
			hdr.flags |= flagExt
		}
		pkt := e.buildPacket(hdr, ch, ext, nil, nil)
		_ = rt.ep.Send(pkt)
	}
}

// revokeLocal applies the local half of a revocation: poison the channel,
// fail every posted receive and every pending rendezvous operation on it.
// Reports whether this call was the one that revoked (false if the channel
// was already revoked or removed).
func (e *Engine) revokeLocal(ch *Channel) bool {
	ch.lock.Lock()
	if ch.revoked || ch.removed {
		ch.lock.Unlock()
		return false
	}
	ch.revoked = true
	posted := ch.m.takeAllPosted()
	ch.cond.Broadcast() // wake probes so they re-check state
	ch.lock.Unlock()

	var victims []*Request
	frees := append([]*postedRecv(nil), posted...)
	for _, pr := range posted {
		victims = append(victims, pr.req)
	}
	e.pendMu.Lock()
	for id, ps := range e.pendSend {
		if ps.ch == ch {
			victims = append(victims, ps.req)
			delete(e.pendSend, id)
		}
	}
	for id, pr := range e.pendRecv {
		if pr.ch == ch {
			victims = append(victims, pr.req)
			frees = append(frees, pr)
			delete(e.pendRecv, id)
		}
	}
	e.pendMu.Unlock()
	for _, r := range victims {
		r.complete(Status{}, ErrRevoked)
	}
	for _, pr := range frees {
		e.freePostedRecv(pr)
	}
	return true
}

// handleRevoke poisons the addressed channel on receipt of a member's
// revocation notice. An exCID-addressed notice racing ahead of the local
// communicator construction is buffered with the other early packets and
// replayed by AddChannel, so the revocation is not lost. A consensus-CID
// notice that finds no channel is dropped instead: the receiver may
// already have freed the communicator, local CIDs are recycled, and a
// parked notice would be replayed into whatever successor channel claims
// the number next.
func (e *Engine) handleRevoke(pkt []byte, env envelope) {
	var ch *Channel
	if env.hasExt {
		if v, ok := e.byEx.Load(env.ext.ex); ok {
			ch = v.(*Channel)
		}
		if ch == nil {
			e.regMu.Lock()
			if v, ok := e.byEx.Load(env.ext.ex); ok {
				ch = v.(*Channel)
			} else {
				e.orphansEx[env.ext.ex] = append(e.orphansEx[env.ext.ex], pkt)
			}
			e.regMu.Unlock()
			if ch == nil {
				return
			}
		}
	} else {
		if v, ok := e.comms.Load(env.hdr.ctx); ok {
			ch = v.(*Channel)
		}
		if ch == nil {
			e.putBuf(pkt)
			return
		}
	}
	e.revokeLocal(ch)
	e.putBuf(pkt)
}

func channelHasRank(ch *Channel, globalRank int) bool {
	for _, r := range ch.ranks {
		if r == globalRank {
			return true
		}
	}
	return false
}
