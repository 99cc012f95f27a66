package mpi_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"gompi/mpi"
)

// TestPartitionedRoundTrip: rank 0 streams a partitioned send to rank 1,
// contributing partitions out of order from concurrent goroutines; rank 1
// consumes partitions as Parrived reports them. Repeats several rounds on
// the same requests and composes Start through StartAll with a persistent
// point-to-point request. Run under -race in make check.
func TestPartitionedRoundTrip(t *testing.T) {
	cfg := propCfg() // low eager limit: large partitions take the rendezvous path
	run(t, 1, 2, cfg, func(p *mpi.Process) error {
		if err := p.Init(); err != nil {
			return err
		}
		defer p.Finalize()
		world := p.CommWorld()
		rank := world.Rank()
		const parts = 8
		const chunk = 640
		const rounds = 4

		if rank == 0 {
			buf := make([]byte, parts*chunk)
			req, err := world.PsendInit(buf, 1, 77, parts)
			if err != nil {
				return err
			}
			if req.Partitions() != parts {
				return fmt.Errorf("partitions = %d, want %d", req.Partitions(), parts)
			}
			// Startable composition with a plain persistent send.
			note := []byte("round-note")
			pp, err := world.SendInit(note, 1, 5)
			if err != nil {
				return err
			}
			for round := 0; round < rounds; round++ {
				for i := range buf {
					buf[i] = byte(round*31 + i)
				}
				if err := mpi.StartAll(req, pp); err != nil {
					return err
				}
				var wg sync.WaitGroup
				for _, q := range rand.Perm(parts) {
					wg.Add(1)
					go func(q int) {
						defer wg.Done()
						if err := req.Pready(q); err != nil {
							t.Errorf("Pready(%d): %v", q, err)
						}
					}(q)
				}
				wg.Wait()
				if err := req.Wait(); err != nil {
					return err
				}
				if _, err := pp.Wait(); err != nil {
					return err
				}
			}
			return req.Free()
		}

		buf := make([]byte, parts*chunk)
		req, err := world.PrecvInit(buf, 0, 77, parts)
		if err != nil {
			return err
		}
		note := make([]byte, 10)
		pp, err := world.RecvInit(note, 0, 5)
		if err != nil {
			return err
		}
		for round := 0; round < rounds; round++ {
			if err := mpi.StartAll(req, pp); err != nil {
				return err
			}
			// Consume partitions as they land; every partition must
			// eventually arrive without Wait.
			seen := make([]bool, parts)
			for n := 0; n < parts; {
				for q := 0; q < parts; q++ {
					if seen[q] {
						continue
					}
					ok, err := req.Parrived(q)
					if err != nil {
						return err
					}
					if !ok {
						continue
					}
					for i := q * chunk; i < (q+1)*chunk; i++ {
						if buf[i] != byte(round*31+i) {
							return fmt.Errorf("round %d partition %d byte %d corrupt", round, q, i)
						}
					}
					seen[q] = true
					n++
				}
			}
			if err := req.Wait(); err != nil {
				return err
			}
			if _, err := pp.Wait(); err != nil {
				return err
			}
			if string(note) != "round-note" {
				return fmt.Errorf("round %d: persistent recv corrupt: %q", round, note)
			}
		}
		return req.Free()
	})
}

// TestPartitionedConcurrentPready readies every partition from its own
// goroutine while the receive's Wait and the send's Wait already block —
// the send's until the last Pready lands. Run under -race in make check.
func TestPartitionedConcurrentPready(t *testing.T) {
	withWorld(t, 1, 1, exCfg(), func(p *mpi.Process, self *mpi.Comm) error {
		const parts, chunk = 16, 64
		payload := make([]byte, parts*chunk)
		recvBuf := make([]byte, parts*chunk)
		ps, err := self.PsendInit(payload, 0, 9, parts)
		if err != nil {
			return err
		}
		pr, err := self.PrecvInit(recvBuf, 0, 9, parts)
		if err != nil {
			return err
		}
		for round := 0; round < 5; round++ {
			for i := range payload {
				payload[i] = byte(round + i)
			}
			if err := mpi.StartAll(ps, pr); err != nil {
				return err
			}
			waits := make(chan error, 2)
			go func() { waits <- pr.Wait() }()
			go func() { waits <- ps.Wait() }()
			var wg sync.WaitGroup
			for q := 0; q < parts; q++ {
				wg.Add(1)
				go func(q int) {
					defer wg.Done()
					if err := ps.Pready(q); err != nil {
						t.Errorf("Pready(%d): %v", q, err)
					}
				}(q)
			}
			wg.Wait()
			for i := 0; i < 2; i++ {
				if err := <-waits; err != nil {
					return fmt.Errorf("round %d: %w", round, err)
				}
			}
			if !bytes.Equal(recvBuf, payload) {
				return fmt.Errorf("round %d: payload corrupt", round)
			}
		}
		if err := ps.Free(); err != nil {
			return err
		}
		return pr.Free()
	})
}

// TestPartitionedMisuse covers the bad-argument and wrong-kind paths; the
// request states are TestStartableLifecycle's.
func TestPartitionedMisuse(t *testing.T) {
	withWorld(t, 1, 1, exCfg(), func(p *mpi.Process, self *mpi.Comm) error {
		initErr := func(_ *mpi.PartitionedRequest, err error) error { return err }
		for _, c := range []struct {
			name string
			want mpi.ErrorClass
			err  func() error
		}{
			{"negative tag", mpi.ErrClassTag, func() error { return initErr(self.PsendInit(make([]byte, 8), 0, -3, 2)) }},
			{"tag above the region", mpi.ErrClassTag, func() error { return initErr(self.PrecvInit(make([]byte, 8), 0, 1<<16, 2)) }},
			{"indivisible buffer", mpi.ErrClassBuffer, func() error { return initErr(self.PsendInit(make([]byte, 7), 0, 0, 2)) }},
			{"no partitions", mpi.ErrClassBuffer, func() error { return initErr(self.PsendInit(make([]byte, 8), 0, 0, 0)) }},
			{"too many partitions", mpi.ErrClassBuffer, func() error {
				return initErr(self.PrecvInit(make([]byte, 8), 0, 0, mpi.MaxPartitions+1))
			}},
			{"bad peer", mpi.ErrClassRank, func() error { return initErr(self.PrecvInit(make([]byte, 8), 9, 0, 2)) }},
		} {
			if cls := mpi.ErrorClassOf(c.err()); cls != c.want {
				return fmt.Errorf("%s: class %v, want %v", c.name, cls, c.want)
			}
		}
		ps, err := self.PsendInit([]byte("abcdefgh"), 0, 0, 2)
		if err != nil {
			return err
		}
		buf := make([]byte, 8)
		pr, err := self.PrecvInit(buf, 0, 0, 2)
		if err != nil {
			return err
		}
		if err := mpi.StartAll(ps, pr); err != nil {
			return err
		}
		if err := ps.Pready(0); err != nil {
			return err
		}
		for name, err := range map[string]error{
			"second Pready":         ps.Pready(0),
			"Pready out of range":   ps.Pready(2),
			"Pready on a receive":   pr.Pready(0),
			"Parrived out of range": second(pr.Parrived(-1)),
			"Parrived on a send":    second(ps.Parrived(0)),
		} {
			if err == nil {
				return fmt.Errorf("%s accepted", name)
			}
		}
		if err := ps.Pready(1); err != nil {
			return err
		}
		if err := pr.Wait(); err != nil {
			return err
		}
		if err := ps.Wait(); err != nil {
			return err
		}
		if string(buf) != "abcdefgh" {
			return fmt.Errorf("received %q", buf)
		}
		if err := ps.Free(); err != nil {
			return err
		}
		return pr.Free()
	})
}

func second(_ bool, err error) error { return err }
