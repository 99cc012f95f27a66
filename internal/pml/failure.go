package pml

import (
	"errors"
	"fmt"
	"slices"
)

// Failure handling: peer death (FailPeer/RevivePeer), communicator
// revocation (Revoke and the hdrRevoke notice) and teardown
// (RemoveChannel, Engine.Close) share one rule and one sweep.
//
// refusal is the rule: the error an operation on a channel gets in the
// channel's present state. Operations ask it when they register: Irecv,
// the rendezvous match (consume), Isend, Probe and Iprobe. Failure events
// mark their state first and then run sweep, which asks the same rule of
// every queued operation. Every operation that queues itself registers
// first (posted queue, pendSend, pendRecv) and asks refusal second, under
// the channel lock that guards the marks. Whichever order a failure and
// an operation land in, one of them sees the other, so no operation is
// queued behind a failure that already swept.

// raceYield, when set, runs at the named points of Isend and Irecv that
// lie between an operation's registration and its liveness check, so a
// test can land a FailPeer or Revoke exactly there; at the point of
// Request.complete between publishing the outcome and running the hook,
// so a test can land a Notify there; and between handleMatch's lock-free
// registry miss and its re-check under regMu, so a test can land an
// AddChannel there. It is nil in production, which costs one predictable
// branch.
var raceYield func(point string)

// opKind says how an operation waits, which decides what refuses it.
type opKind uint8

const (
	// opEager is an eager send: it waits on no peer.
	opEager opKind = iota
	// opWaits is a receive, a probe, or a rendezvous send being started.
	opWaits
	// opUnderway is a rendezvous operation under way: a send whose RTS is
	// out, or a matched receive. Freeing its channel does not refuse it:
	// operations pending at MPI_Comm_free complete normally, and CTS and
	// DATA find them by request ID, not through the channel registry.
	opUnderway
)

// refusal is the PML's one failure rule. It returns the error an
// operation of kind op toward peer (a comm rank, or AnySource for a
// wildcard receive or probe) with tag gets on this channel now, or nil.
// Caller holds ch.lock.
//
//   - A closed engine refuses everything: ErrClosed. A removed channel
//     refuses everything but an operation under way.
//   - A revoked channel refuses everything: ErrRevoked. Revocation is
//     terminal: the communicator's state is no longer globally consistent
//     and the caller must rebuild.
//   - A dead specific peer: ErrPeerFailed.
//   - A wildcard once every other member is dead: ErrPeerFailed. Nothing
//     can ever send on the channel again.
//   - An operation that waits on an internal (collective) tag, once any
//     member has died: ErrPeerFailed. A collective's dependency graph
//     includes the dead rank, so it could wait forever on a live peer that
//     already bailed out.
//
// Receives and probes take the unexpected queue before a peer failure
// (unexpectedLocked): a dead peer's messages from before its death still
// deliver.
func (ch *Channel) refusal(peer, tag int, op opKind) error {
	e := ch.eng
	switch {
	case e.closed.Load() || ch.removed && op != opUnderway:
		return ErrClosed
	case ch.revoked:
		return ErrRevoked
	case peer != AnySource && e.peerFailed(ch.ranks[peer]):
		return fmt.Errorf("%w: rank %d", ErrPeerFailed, ch.ranks[peer])
	case peer == AnySource && ch.allDead:
		return fmt.Errorf("%w: all channel peers failed", ErrPeerFailed)
	case op != opEager && ch.deadMember && tag < 0 && tag != AnyTag:
		return fmt.Errorf("%w: communicator has a failed member", ErrPeerFailed)
	}
	return nil
}

// refuses is refusal under the channel lock.
func (ch *Channel) refuses(peer, tag int, op opKind) error {
	ch.lock.Lock()
	defer ch.lock.Unlock()
	return ch.refusal(peer, tag, op)
}

// doomed reports whether the rule refuses a posted receive: the predicate
// sweep hands the matcher. Caller holds ch.lock.
func (ch *Channel) doomed(pr *postedRecv) bool {
	return ch.refusal(pr.src, pr.tag, opWaits) != nil
}

// unexpectedLocked returns the earliest unexpected message matching (src,
// tag), removed from the queue when take is set, or else the refusal of a
// receive or probe for it. Only a closed or revoked channel withholds a
// queued message. Caller holds ch.lock.
func (ch *Channel) unexpectedLocked(src, tag int, take bool) (*inbound, error) {
	err := ch.refusal(src, tag, opWaits)
	if err != nil && !errors.Is(err, ErrPeerFailed) {
		return nil, err
	}
	var msg *inbound
	if take {
		msg = ch.m.takeUnexpected(src, tag)
	} else {
		msg = ch.m.peekUnexpected(src, tag)
	}
	if msg != nil {
		return msg, nil
	}
	return nil, err
}

// sweep fails every queued operation of chs that the rule now refuses:
// posted receives, and pending rendezvous sends and receives. Callers mark
// their state first. Probes parked on chs wake to ask the rule again. The
// pending maps are walked under pendMu, asking the channel of each entry
// on chs under its lock: the one place two PML locks nest.
func (e *Engine) sweep(chs ...*Channel) {
	type victim struct {
		req *Request
		err error
		pr  *postedRecv // recycled after completion; nil for a send
	}
	var vs []victim
	for _, ch := range chs {
		ch.lock.Lock()
		for _, pr := range ch.m.takePostedIf(ch.doomed) {
			vs = append(vs, victim{pr.req, ch.refusal(pr.src, pr.tag, opWaits), pr})
		}
		ch.cond.Broadcast()
		ch.lock.Unlock()
	}
	e.pendMu.Lock()
	for id, ps := range e.pendSend {
		if !slices.Contains(chs, ps.ch) {
			continue
		}
		if err := ps.ch.refuses(ps.dest, ps.tag, opUnderway); err != nil {
			delete(e.pendSend, id)
			vs = append(vs, victim{ps.req, err, nil})
		}
	}
	for id, pr := range e.pendRecv {
		// resSrc/resTag are the matched sender and tag, fixed when the CTS
		// was issued.
		if !slices.Contains(chs, pr.ch) {
			continue
		}
		if err := pr.ch.refuses(pr.resSrc, pr.resTag, opUnderway); err != nil {
			delete(e.pendRecv, id)
			vs = append(vs, victim{pr.req, err, pr})
		}
	}
	e.pendMu.Unlock()
	for _, v := range vs {
		v.req.complete(Status{}, v.err)
		if v.pr != nil {
			e.freePostedRecv(v.pr)
		}
	}
}

// channels returns every registered channel, and every removed one that
// still has a rendezvous operation under way: the channels a failure that
// reaches the whole engine (Close, FailPeer) marks and sweeps.
func (e *Engine) channels() []*Channel {
	var chs []*Channel
	if t := e.chans.Load(); t != nil {
		for _, ch := range *t {
			if ch != nil {
				chs = append(chs, ch)
			}
		}
	}
	e.pendMu.Lock()
	for _, ps := range e.pendSend {
		if !slices.Contains(chs, ps.ch) {
			chs = append(chs, ps.ch)
		}
	}
	for _, pr := range e.pendRecv {
		if !slices.Contains(chs, pr.ch) {
			chs = append(chs, pr.ch)
		}
	}
	e.pendMu.Unlock()
	return chs
}

// dropInbound discards a torn-down channel's unexpected queue and every
// peer's out-of-order stash. Stashed RTS records have a nil raw, which
// putBuf treats as a no-op.
func (e *Engine) dropInbound(ch *Channel) {
	ch.lock.Lock()
	unex := ch.m.takeAllUnexpected()
	for i := range ch.peers {
		for _, m := range ch.peers[i].stash {
			unex = append(unex, m)
		}
		ch.peers[i].stash = nil
	}
	ch.lock.Unlock()
	for _, m := range unex {
		e.putBuf(m.raw)
		e.freeInbound(m)
	}
}

// FailPeer reacts to a runtime process-failure notification: it marks
// the death (markFailed) and sweeps the channels containing the dead
// process. So fail: receives and rendezvous operations naming it; on its
// channels, every operation that waits on an internal tag, whatever its
// peer; and, once the last other member of a channel has died, its
// wildcard receives. Wildcard application receives stay posted while any
// other member survives: they may still match another sender.
func (e *Engine) FailPeer(globalRank int) {
	e.sweep(e.markFailed(globalRank)...)
}

// markFailed records globalRank as dead and marks every channel containing
// it: deadMember, and allDead once no other member survives. It returns
// those channels.
func (e *Engine) markFailed(globalRank int) []*Channel {
	if _, loaded := e.failedPeers.LoadOrStore(globalRank, struct{}{}); !loaded {
		e.failedCount.Add(1)
	}
	var marked []*Channel
	for _, ch := range e.channels() {
		member, allDead := false, true
		for i, r := range ch.ranks {
			member = member || r == globalRank
			if i != ch.myRank && !e.peerFailed(r) {
				allDead = false
			}
		}
		if member {
			ch.lock.Lock()
			ch.deadMember = true
			if allDead {
				ch.allDead = true
			}
			ch.lock.Unlock()
			marked = append(marked, ch)
		}
	}
	return marked
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
	e.routeMu.Lock()
	defer e.routeMu.Unlock()
	e.routeGen++
	if t := e.routeTab.Load(); t != nil && uint(globalRank) < uint(len(*t)) && (*t)[globalRank] != nil {
		e.routeTab.Store(withSlot(t, globalRank, nil))
	}
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

// revokeLocal applies the local half of a revocation: mark the channel
// revoked and sweep, which fails every posted receive and every pending
// rendezvous operation on it. Reports whether this call was the one that
// revoked (false if the channel was already revoked or removed).
func (e *Engine) revokeLocal(ch *Channel) bool {
	ch.lock.Lock()
	if ch.revoked || ch.removed {
		ch.lock.Unlock()
		return false
	}
	ch.revoked = true
	ch.lock.Unlock()
	e.sweep(ch)
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
		if ch = e.channel(env.hdr.ctx); ch == nil {
			e.putBuf(pkt)
			return
		}
	}
	e.revokeLocal(ch)
	e.putBuf(pkt)
}
