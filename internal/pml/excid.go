package pml

// The exCID handshake's one-time ACK: the first extended-header
// message from a peer is answered with this channel's local CID, after
// which that peer switches to the 14-byte fast header.

// PeerConnected reports whether the exCID handshake with a peer has
// completed (always true for consensus-CID channels).
func (ch *Channel) PeerConnected(commRank int) bool {
	if !ch.useEx {
		return true
	}
	ch.lock.Lock()
	defer ch.lock.Unlock()
	return ch.peers[commRank].haveACK
}

// sendChannelAck emits the one-time CID handshake ACK for a channel.
func (e *Engine) sendChannelAck(ch *Channel, ackTo int) {
	e.st.acksSent.Add(1)
	ack := e.buildCIDAck(ch)
	if rt, err := e.routeTo(ackTo); err == nil {
		_ = rt.ep.Send(ack)
	}
}

// buildCIDAck assembles the handshake ACK for a channel (immutable fields
// only; no lock needed).
func (e *Engine) buildCIDAck(ch *Channel) []byte {
	pkt := e.getBuf(matchHeaderLen + cidAckLen)
	putMatchHeader(pkt, matchHeader{typ: hdrCIDAck})
	putCIDAck(pkt[matchHeaderLen:], cidAck{ex: ch.ex, localCID: ch.localCID, commRank: uint32(ch.myRank)})
	return pkt
}
