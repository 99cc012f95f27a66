package pml

// The matching engine behind a Channel. Every bucketMatcher method is called
// with the channel's lock held; the matcher holds no locks of its own.
//
// MPI's matching rules, which it must preserve exactly (the property test
// in match_test.go checks it against a single ordered queue):
//   - an inbound message matches the EARLIEST-POSTED receive it satisfies
//     (posted order spans specific-source and wildcard receives);
//   - a receive matches the EARLIEST-ARRIVED unexpected message it
//     satisfies, which implies FIFO per sender;
//   - AnyTag matches only non-negative (application) tags.

// tagMatches implements the tag half of the matching rule.
func tagMatches(want, got int) bool {
	if want == AnyTag {
		return got >= 0
	}
	return want == got
}

// matches implements the full MPI matching rule: wildcard source matches
// any rank; wildcard tag matches only non-negative (application) tags.
func matches(wantSrc, wantTag, src, tag int) bool {
	if wantSrc != AnySource && wantSrc != src {
		return false
	}
	return tagMatches(wantTag, tag)
}

// postedList / inboundList are intrusive doubly-linked queues: the links
// live inside the records, so push, pop, and mid-queue unlink are O(1) with
// no per-element allocation (the records themselves are pooled).
type postedList struct {
	head, tail *postedRecv
}

func (l *postedList) pushBack(pr *postedRecv) {
	pr.pnext, pr.pprev = nil, l.tail
	if l.tail != nil {
		l.tail.pnext = pr
	} else {
		l.head = pr
	}
	l.tail = pr
}

func (l *postedList) remove(pr *postedRecv) {
	if pr.pprev != nil {
		pr.pprev.pnext = pr.pnext
	} else {
		l.head = pr.pnext
	}
	if pr.pnext != nil {
		pr.pnext.pprev = pr.pprev
	} else {
		l.tail = pr.pprev
	}
	pr.pnext, pr.pprev = nil, nil
}

type inboundList struct {
	head, tail *inbound
}

func (l *inboundList) pushBackSrc(m *inbound) {
	m.snext, m.sprev = nil, l.tail
	if l.tail != nil {
		l.tail.snext = m
	} else {
		l.head = m
	}
	l.tail = m
}

func (l *inboundList) removeSrc(m *inbound) {
	if m.sprev != nil {
		m.sprev.snext = m.snext
	} else {
		l.head = m.snext
	}
	if m.snext != nil {
		m.snext.sprev = m.sprev
	} else {
		l.tail = m.sprev
	}
	m.snext, m.sprev = nil, nil
}

func (l *inboundList) pushBackAll(m *inbound) {
	m.anext, m.aprev = nil, l.tail
	if l.tail != nil {
		l.tail.anext = m
	} else {
		l.head = m
	}
	l.tail = m
}

func (l *inboundList) removeAll(m *inbound) {
	if m.aprev != nil {
		m.aprev.anext = m.anext
	} else {
		l.head = m.anext
	}
	if m.anext != nil {
		m.anext.aprev = m.aprev
	} else {
		l.tail = m.aprev
	}
	m.anext, m.aprev = nil, nil
}

// bucketMatcher is the matcher: per-source buckets make the
// common non-wildcard lookup O(1) amortized while sequence numbers keep the
// wildcard fallbacks semantically identical to a single ordered queue.
//
//   - Posted receives live in per-source lists (specific src) or the
//     wildcard list (AnySource); each carries pseq, the global post order.
//     Matching an inbound (src, tag) inspects only bucket src and the
//     wildcard list and takes the lower pseq of their first tag matches.
//   - Unexpected messages are threaded onto TWO lists at once: their
//     source's arrival-order list and the global arrival-order list. A
//     specific-source receive walks only its bucket (FIFO per sender); an
//     AnySource receive walks the global list (global arrival order).
//     Unlinking from both lists is O(1).
type bucketMatcher struct {
	nextPseq uint64
	postWild postedList
	postSrc  []postedList
	unexAll  inboundList
	unexSrc  []inboundList
}

func newBucketMatcher(size int) *bucketMatcher {
	return &bucketMatcher{
		postSrc: make([]postedList, size),
		unexSrc: make([]inboundList, size),
	}
}

// pushPosted appends a receive to the posted queue.
func (b *bucketMatcher) pushPosted(pr *postedRecv) {
	b.nextPseq++
	pr.pseq = b.nextPseq
	if pr.src == AnySource {
		b.postWild.pushBack(pr)
	} else {
		b.postSrc[pr.src].pushBack(pr)
	}
}

// takePosted removes and returns the earliest-posted receive matching an
// inbound (src, tag), or nil.
func (b *bucketMatcher) takePosted(src, tag int) *postedRecv {
	var best *postedRecv
	var bestList *postedList
	for pr := b.postSrc[src].head; pr != nil; pr = pr.pnext {
		if tagMatches(pr.tag, tag) {
			best, bestList = pr, &b.postSrc[src]
			break
		}
	}
	for pr := b.postWild.head; pr != nil; pr = pr.pnext {
		if tagMatches(pr.tag, tag) {
			if best == nil || pr.pseq < best.pseq {
				best, bestList = pr, &b.postWild
			}
			break
		}
	}
	if best != nil {
		bestList.remove(best)
	}
	return best
}

// pushUnexpected appends an unmatched inbound message.
func (b *bucketMatcher) pushUnexpected(m *inbound) {
	b.unexSrc[m.src].pushBackSrc(m)
	b.unexAll.pushBackAll(m)
}

func (b *bucketMatcher) findUnexpected(src, tag int) *inbound {
	if src != AnySource {
		for m := b.unexSrc[src].head; m != nil; m = m.snext {
			if tagMatches(tag, m.tag) {
				return m
			}
		}
		return nil
	}
	for m := b.unexAll.head; m != nil; m = m.anext {
		if tagMatches(tag, m.tag) {
			return m
		}
	}
	return nil
}

// takeUnexpected removes and returns the earliest-arrived unexpected message
// matching a receive's (src, tag) pattern, or nil. src may be AnySource and
// tag may be AnyTag.
func (b *bucketMatcher) takeUnexpected(src, tag int) *inbound {
	m := b.findUnexpected(src, tag)
	if m != nil {
		b.unexSrc[m.src].removeSrc(m)
		b.unexAll.removeAll(m)
	}
	return m
}

// peekUnexpected is takeUnexpected without removal (probes).
func (b *bucketMatcher) peekUnexpected(src, tag int) *inbound {
	return b.findUnexpected(src, tag)
}

// takePostedIf removes and returns every posted receive for which pred
// holds: each source's receives in posted order, then the wildcards in
// posted order. The failure sweep passes the channel's failure rule
// (Channel.doomed), so one walk serves peer death, revocation and
// teardown.
func (b *bucketMatcher) takePostedIf(pred func(*postedRecv) bool) []*postedRecv {
	var out []*postedRecv
	take := func(l *postedList) {
		for pr := l.head; pr != nil; {
			next := pr.pnext
			if pred(pr) {
				l.remove(pr)
				out = append(out, pr)
			}
			pr = next
		}
	}
	for i := range b.postSrc {
		take(&b.postSrc[i])
	}
	take(&b.postWild)
	return out
}

// takeAllUnexpected removes and returns every unexpected message.
func (b *bucketMatcher) takeAllUnexpected() []*inbound {
	var out []*inbound
	for m := b.unexAll.head; m != nil; {
		next := m.anext
		b.unexSrc[m.src].removeSrc(m)
		b.unexAll.removeAll(m)
		out = append(out, m)
		m = next
	}
	return out
}
