package pml

// listMatcher is the single-queue reference matcher: one posted slice and
// one unexpected slice, scanned linearly in order, with O(n) splice
// removals — MPI's matching rules in their most literal form. The property
// test in match_test.go checks bucketMatcher against it.
type listMatcher struct {
	posted     []*postedRecv
	unexpected []*inbound
}

func newListMatcher() *listMatcher { return &listMatcher{} }

func (l *listMatcher) pushPosted(pr *postedRecv) {
	l.posted = append(l.posted, pr)
}

func (l *listMatcher) takePosted(src, tag int) *postedRecv {
	for i, pr := range l.posted {
		if matches(pr.src, pr.tag, src, tag) {
			l.posted = append(l.posted[:i], l.posted[i+1:]...)
			return pr
		}
	}
	return nil
}

func (l *listMatcher) pushUnexpected(m *inbound) {
	l.unexpected = append(l.unexpected, m)
}

func (l *listMatcher) takeUnexpected(src, tag int) *inbound {
	for i, m := range l.unexpected {
		if matches(src, tag, m.src, m.tag) {
			l.unexpected = append(l.unexpected[:i], l.unexpected[i+1:]...)
			return m
		}
	}
	return nil
}

func (l *listMatcher) peekUnexpected(src, tag int) *inbound {
	for _, m := range l.unexpected {
		if matches(src, tag, m.src, m.tag) {
			return m
		}
	}
	return nil
}

func (l *listMatcher) takePostedBySrc(src int) []*postedRecv {
	var out []*postedRecv
	kept := l.posted[:0]
	for _, pr := range l.posted {
		if pr.src == src {
			out = append(out, pr)
		} else {
			kept = append(kept, pr)
		}
	}
	l.posted = kept
	return out
}

func (l *listMatcher) takePostedInternal() []*postedRecv {
	var out []*postedRecv
	kept := l.posted[:0]
	for _, pr := range l.posted {
		if pr.tag < 0 && pr.tag != AnyTag {
			out = append(out, pr)
		} else {
			kept = append(kept, pr)
		}
	}
	l.posted = kept
	return out
}

func (l *listMatcher) takePostedWildcard() []*postedRecv {
	var out []*postedRecv
	kept := l.posted[:0]
	for _, pr := range l.posted {
		if pr.src == AnySource {
			out = append(out, pr)
		} else {
			kept = append(kept, pr)
		}
	}
	l.posted = kept
	return out
}

func (l *listMatcher) takeAllPosted() []*postedRecv {
	out := l.posted
	l.posted = nil
	return out
}

func (l *listMatcher) takeAllUnexpected() []*inbound {
	out := l.unexpected
	l.unexpected = nil
	return out
}
