package pmix

import (
	"fmt"
	"sort"
	"time"
)

// Asynchronous group construction: the invite/join model described in
// §III-A of the paper. An initiator invites a set of processes; each
// invitee accepts or declines (or fails to respond within the timeout).
// The initiator then constructs the group from the acceptors, obtaining a
// PGCID from the resource manager, and notifies them. Invitees that
// accepted learn the group's PGCID and membership when construction
// completes.

// InviteOutcome reports the result of one invitation.
type InviteOutcome struct {
	Rank     int
	Accepted bool
	TimedOut bool
}

// GroupInvite initiates asynchronous construction of group name over the
// given ranks (the initiator is always a member and must not invite
// itself). It returns the constructed group — containing the initiator and
// every acceptor — plus the per-invitee outcomes. If no invitee accepts the
// group still forms with just the initiator, letting the caller decide
// whether to retry with replacement processes (the paper's "replace
// processes that refuse the invitation" model).
func (c *Client) GroupInvite(name string, invitees []int, timeout time.Duration) (GroupResult, []InviteOutcome, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	for _, r := range invitees {
		if r == c.proc.Rank {
			return GroupResult{}, nil, fmt.Errorf("%w: initiator cannot invite itself", ErrBadArgument)
		}
	}

	// Collect join responses via a transient handler on our own client.
	responses := make(chan Event, len(invitees)+1)
	hid := c.RegisterEventHandler([]EventCode{EventGroupJoinResponse}, func(ev Event) {
		if ev.Group == name {
			responses <- ev
		}
	})
	defer c.DeregisterEventHandler(hid)

	members := append([]int(nil), invitees...)
	members = append(members, c.proc.Rank)
	sort.Ints(members)

	for _, r := range invitees {
		ev := Event{
			Code:    EventGroupInvite,
			Source:  c.proc,
			Target:  Proc{Nspace: c.proc.Nspace, Rank: r},
			Group:   name,
			Members: members,
		}
		if err := c.server.daemon.NotifyNode(c.server.job.NodeOf(r), EventCodec.Encode(ev)); err != nil {
			return GroupResult{}, nil, fmt.Errorf("pmix: invite rank %d: %w", r, err)
		}
	}

	outcomes := make(map[int]*InviteOutcome, len(invitees))
	for _, r := range invitees {
		outcomes[r] = &InviteOutcome{Rank: r, TimedOut: true}
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	pending := len(invitees)
collect:
	for pending > 0 {
		select {
		case ev := <-responses:
			if o := outcomes[ev.Source.Rank]; o != nil && o.TimedOut {
				o.TimedOut = false
				o.Accepted = ev.Accept
				pending--
			}
		case <-deadline.C:
			break collect
		}
	}

	final := []int{c.proc.Rank}
	for _, o := range outcomes {
		if o.Accepted {
			final = append(final, o.Rank)
		}
	}
	sort.Ints(final)

	pgcid, err := c.server.daemon.AllocPGCID(name, final, timeout)
	if err != nil {
		return GroupResult{}, nil, err
	}
	// Notify acceptors that the group is live.
	for _, r := range final {
		if r == c.proc.Rank {
			continue
		}
		ev := Event{
			Code:    EventGroupConstructed,
			Source:  c.proc,
			Target:  Proc{Nspace: c.proc.Nspace, Rank: r},
			Group:   name,
			PGCID:   pgcid,
			Members: final,
		}
		_ = c.server.daemon.NotifyNode(c.server.job.NodeOf(r), EventCodec.Encode(ev))
	}

	outs := make([]InviteOutcome, 0, len(outcomes))
	for _, r := range invitees {
		outs = append(outs, *outcomes[r])
	}
	return GroupResult{Name: name, PGCID: pgcid, Members: final}, outs, nil
}

// GroupJoin responds to a pending (or imminent) invitation for group name
// from the given initiator rank. With accept set it blocks until the
// initiator completes construction (or the timeout expires) and returns the
// constructed group. Declining returns immediately with a zero result.
//
// GroupJoin may be called before or after the invitation arrives:
// invitations are buffered at the client, and the response is only sent
// once the matching invitation is seen, so repeated invite/join rounds
// over the same processes are race-free.
func (c *Client) GroupJoin(name string, initiator int, accept bool, timeout time.Duration) (GroupResult, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	if err := c.awaitInvite(name, timeout); err != nil {
		return GroupResult{}, err
	}
	constructed := make(chan Event, 1)
	var hid int
	if accept {
		hid = c.RegisterEventHandler([]EventCode{EventGroupConstructed}, func(ev Event) {
			if ev.Group == name {
				select {
				case constructed <- ev:
				default:
				}
			}
		})
		defer c.DeregisterEventHandler(hid)
	}

	resp := Event{
		Code:   EventGroupJoinResponse,
		Source: c.proc,
		Target: Proc{Nspace: c.proc.Nspace, Rank: initiator},
		Group:  name,
		Accept: accept,
	}
	if err := c.server.daemon.NotifyNode(c.server.job.NodeOf(initiator), EventCodec.Encode(resp)); err != nil {
		return GroupResult{}, fmt.Errorf("pmix: join response to rank %d: %w", initiator, err)
	}
	if !accept {
		return GroupResult{}, nil
	}

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case ev := <-constructed:
		return GroupResult{Name: name, PGCID: ev.PGCID, Members: ev.Members}, nil
	case <-timer.C:
		return GroupResult{}, fmt.Errorf("pmix: join %q: %w", name, ErrTimeout)
	}
}

// awaitInvite blocks until an invitation for group name has been buffered
// at the client (consuming it) or the timeout expires.
func (c *Client) awaitInvite(name string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	c.mu.Lock()
	if c.inviteSig == nil {
		c.inviteSig = make(chan struct{}, 1)
	}
	sig := c.inviteSig
	c.mu.Unlock()
	for {
		c.mu.Lock()
		if _, ok := c.invites[name]; ok {
			delete(c.invites, name)
			c.mu.Unlock()
			return nil
		}
		c.mu.Unlock()
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return fmt.Errorf("pmix: join %q: no invitation: %w", name, ErrTimeout)
		}
		timer := time.NewTimer(remaining)
		select {
		case <-sig:
			timer.Stop()
		case <-timer.C:
			// Re-check the mailbox once before giving up: another waiter
			// may have consumed the wake-up pulse meant for us.
		}
	}
}

// GroupLeave departs a group asynchronously: remaining members receive an
// EventGroupMemberLeft notification and the runtime's pset registry is
// updated to exclude the departing process.
func (c *Client) GroupLeave(name string, members []int) error {
	remaining := make([]int, 0, len(members))
	for _, r := range members {
		if r != c.proc.Rank {
			remaining = append(remaining, r)
		}
	}
	if err := c.server.daemon.UpdatePset(name, remaining); err != nil {
		return err
	}
	ev := Event{
		Code:    EventGroupMemberLeft,
		Source:  c.proc,
		Group:   name,
		Members: remaining,
	}
	seen := make(map[int]bool)
	for _, r := range remaining {
		n := c.server.job.NodeOf(r)
		if seen[n] {
			continue
		}
		seen[n] = true
		if err := c.server.daemon.NotifyNode(n, EventCodec.Encode(ev)); err != nil {
			return err
		}
	}
	return nil
}
