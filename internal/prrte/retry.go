package prrte

// Retry policy for the daemon control plane.
//
// The simulated wire can drop, duplicate, delay, and reorder control
// messages (simnet fault plans), so every daemon round-trip must tolerate a
// lost request or reply. The policy is deliberately narrow:
//
//   - Only a reply TIMEOUT is transient. A closed endpoint or a shut-down
//     DVM is permanent: the peer is gone and reissuing the request cannot
//     help, it can only mask a real failure.
//   - Retries are bounded (rpcAttempts) and paced with exponential backoff
//     clamped to backoffMax, so a partitioned daemon degrades into a
//     deterministic ErrTimeout instead of hammering the fabric forever.
//   - The caller's deadline always wins: a retry never extends the overall
//     timeout the PMIx layer asked for.
//
// Request/response RPCs (PGCID allocation, pset queries, fetches, lookups)
// are simply reissued: a duplicate is a harmless read, a burnt PGCID, or the
// refresh of a parked lookup, which the RM keys by the shared reply
// endpoint. A daemon that completed an all-to-all Exchange has deleted its
// pending state, so it answers late re-requests (the Want flag on xchgMsg)
// from a small ring of completed operations.

import (
	"errors"
	"fmt"
	"time"

	"gompi/internal/simnet"
)

const (
	// rpcAttempts bounds how many times one logical control-plane
	// round-trip is issued before the operation fails with ErrTimeout.
	rpcAttempts = 8
	// rpcAttemptTimeout is the first per-attempt reply deadline; it doubles
	// every retry up to rpcAttemptMax. The fabric's control-plane RTT is
	// sub-millisecond, so the first window already covers heavy fault-plan
	// delay injection.
	rpcAttemptTimeout = 25 * time.Millisecond
	rpcAttemptMax     = 200 * time.Millisecond
	// rpcDefaultTimeout caps the whole retried round-trip when the caller
	// did not propagate a deadline.
	rpcDefaultTimeout = 10 * time.Second
	// backoffBase/backoffMax bound the idle pause between RPC retries.
	backoffBase = 2 * time.Millisecond
	backoffMax  = 50 * time.Millisecond
	// exchangeResendBase/Max pace the contribution re-offer rounds inside
	// Exchange while participants are missing.
	exchangeResendBase = 10 * time.Millisecond
	exchangeResendMax  = 100 * time.Millisecond
	// completedOpCache is how many finished all-to-all operations a daemon
	// remembers so it can serve Want re-requests after completing.
	completedOpCache = 128
)

// backoff yields exponentially growing waits clamped to max.
type backoff struct {
	cur, max time.Duration
}

func newBackoff(base, max time.Duration) *backoff { return &backoff{cur: base, max: max} }

func (b *backoff) next() time.Duration {
	d := b.cur
	b.cur *= 2
	if b.cur > b.max {
		b.cur = b.max
	}
	return d
}

// retryable reports whether a control-plane error is transient. Only reply
// timeouts qualify; everything else (closed endpoints, shutdown) is final.
func retryable(err error) bool { return errors.Is(err, simnet.ErrTimeout) }

// rpcRetry performs one logical request/response round-trip against another
// daemon with bounded retries. send must (re)issue the request addressed to
// the supplied transient reply endpoint, given what is left of the
// deadline; rpcRetry waits for the reply with growing per-attempt windows
// and reissues on timeout. timeout <= 0 applies rpcDefaultTimeout. The reply endpoint is shared by all attempts, so a
// late reply from an earlier attempt is indistinguishable from the current
// one and equally valid: all attempts carry the same logical request.
//
// With waitFull set, exhausting the retry budget does not fail the call:
// the remaining deadline is spent listening for the reply. That is the
// shape of a blocking lookup, where the server intentionally withholds the
// reply until the key is published — re-sends only guard against the
// request itself being dropped.
//
// hopeless, when non-nil, is consulted before every attempt: a non-nil
// error means no number of retries can succeed (the request depends on a
// rank the RM knows is dead) and the loop short-circuits with that error
// instead of burning the remaining attempts against a peer that will never
// answer usefully.
func (d *Daemon) rpcRetry(timeout time.Duration, waitFull bool, hopeless func() error, send func(replyTo simnet.Addr, remaining time.Duration) error) (simnet.Message, error) {
	// A fresh reply endpoint keeps responses from interleaving with the
	// daemon's served endpoint.
	rep := d.dvm.fabric.NewEndpoint(d.node)
	defer rep.Close()

	if timeout <= 0 {
		timeout = rpcDefaultTimeout
	}
	deadline := time.Now().Add(timeout)
	attemptTO := rpcAttemptTimeout
	bo := newBackoff(backoffBase, backoffMax)
	for attempt := 0; attempt < rpcAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(bo.next())
		}
		if hopeless != nil {
			if herr := hopeless(); herr != nil {
				return simnet.Message{}, herr
			}
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			break
		}
		if err := send(rep.Addr(), remaining); err != nil {
			return simnet.Message{}, err
		}
		to := attemptTO
		if to > remaining {
			to = remaining
		}
		m, err := rep.Recv(to)
		if err == nil {
			return m, nil
		}
		if !retryable(err) {
			return simnet.Message{}, err
		}
		attemptTO *= 2
		if attemptTO > rpcAttemptMax {
			attemptTO = rpcAttemptMax
		}
	}
	if waitFull {
		if remaining := time.Until(deadline); remaining > 0 {
			if m, err := rep.Recv(remaining); err == nil {
				return m, nil
			} else if !retryable(err) {
				return simnet.Message{}, err
			}
		}
	}
	return simnet.Message{}, fmt.Errorf("no reply after %d attempts: %w", rpcAttempts, ErrTimeout)
}
