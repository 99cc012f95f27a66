package mpi_test

import (
	"errors"
	"fmt"
	"testing"

	"gompi/mpi"
)

// startableCase is one request under TestStartableLifecycle: its calls by
// name, and a cleanup for whatever else the request needed.
type startableCase struct {
	calls map[string]func() error // Start, Wait, Test, Free, and Pready or Parrived where they apply
	done  func() error
}

// TestStartableLifecycle runs every call in every state on every kind of
// startable request — persistent point-to-point, persistent collective,
// partitioned send and receive — and checks all of them against one table:
// the same (state, call) gives the same result for every kind. Each cell
// gets a fresh request on a one-rank communicator, so every round can
// finish on the caller: a persistent send to self is eager, a barrier of
// one finishes at once, the partitioned receive's partner sends the
// round's partition just before its Start, and the partitioned send's
// Wait marks its partition ready first.
func TestStartableLifecycle(t *testing.T) {
	// "active" rounds have all finished their operation, but nobody has
	// completed them with Wait or Test; "completed" is one Start and one
	// Wait later.
	want := map[string]map[string]error{
		"fresh":     {"Start": nil, "Wait": mpi.ErrNotStarted, "Test": mpi.ErrNotStarted, "Free": nil, "Pready": mpi.ErrNotStarted, "Parrived": mpi.ErrNotStarted},
		"active":    {"Start": mpi.ErrActive, "Wait": nil, "Test": nil, "Free": mpi.ErrActive, "Pready": nil, "Parrived": nil},
		"completed": {"Start": nil, "Wait": mpi.ErrNotStarted, "Test": mpi.ErrNotStarted, "Free": nil, "Pready": mpi.ErrNotStarted, "Parrived": mpi.ErrNotStarted},
		"freed":     {"Start": mpi.ErrFreed, "Wait": mpi.ErrFreed, "Test": mpi.ErrFreed, "Free": mpi.ErrFreed, "Pready": mpi.ErrFreed, "Parrived": mpi.ErrFreed},
	}
	kinds := []struct {
		name string
		init func(self *mpi.Comm, tag int) (startableCase, error)
	}{
		{"persistent send", func(self *mpi.Comm, tag int) (startableCase, error) {
			r, err := self.SendInit([]byte{1}, 0, tag)
			if err != nil {
				return startableCase{}, err
			}
			return startableCase{calls: map[string]func() error{
				"Start": r.Start,
				"Wait":  func() error { _, err := r.Wait(); return err },
				"Test":  func() error { _, _, err := r.Test(); return err },
				"Free":  r.Free,
			}}, nil
		}},
		{"persistent barrier", func(self *mpi.Comm, tag int) (startableCase, error) {
			r, err := self.BarrierInit()
			if err != nil {
				return startableCase{}, err
			}
			return startableCase{calls: map[string]func() error{
				"Start": r.Start,
				"Wait":  r.Wait,
				"Test":  func() error { _, err := r.Test(); return err },
				"Free":  r.Free,
			}}, nil
		}},
		{"partitioned send", func(self *mpi.Comm, tag int) (startableCase, error) {
			r, err := self.PsendInit([]byte{1, 2}, 0, tag, 1)
			if err != nil {
				return startableCase{}, err
			}
			return startableCase{calls: map[string]func() error{
				"Start": r.Start,
				"Wait": func() error {
					_ = r.Pready(0) // fails unless active with the partition not yet ready
					return r.Wait()
				},
				"Test":   func() error { _, err := r.Test(); return err },
				"Free":   r.Free,
				"Pready": func() error { return r.Pready(0) },
			}}, nil
		}},
		{"partitioned receive", func(self *mpi.Comm, tag int) (startableCase, error) {
			r, err := self.PrecvInit(make([]byte, 2), 0, tag, 1)
			if err != nil {
				return startableCase{}, err
			}
			partner, err := self.PsendInit([]byte{1, 2}, 0, tag, 1)
			if err != nil {
				return startableCase{}, err
			}
			send := func() error {
				if err := partner.Start(); err != nil {
					return err
				}
				if err := partner.Pready(0); err != nil {
					return err
				}
				return partner.Wait()
			}
			return startableCase{calls: map[string]func() error{
				"Start": func() error {
					if err := send(); err != nil {
						return err
					}
					return r.Start()
				},
				"Wait":     r.Wait,
				"Test":     func() error { _, err := r.Test(); return err },
				"Free":     r.Free,
				"Parrived": func() error { _, err := r.Parrived(0); return err },
			}, done: partner.Free}, nil
		}},
	}
	setup := map[string][]string{
		"fresh":     nil,
		"active":    {"Start"},
		"completed": {"Start", "Wait"},
		"freed":     {"Free"},
	}

	withWorld(t, 1, 1, exCfg(), func(p *mpi.Process, self *mpi.Comm) error {
		tag := 100 // one tag per cell: a message a cell leaves unmatched never reaches the next
		for _, k := range kinds {
			for _, state := range []string{"fresh", "active", "completed", "freed"} {
				for _, call := range []string{"Start", "Wait", "Test", "Free", "Pready", "Parrived"} {
					tag++
					c, err := k.init(self, tag)
					if err != nil {
						return err
					}
					if c.calls[call] != nil {
						for _, step := range setup[state] {
							if err := c.calls[step](); err != nil {
								return fmt.Errorf("%s, %s setup, %s: %w", k.name, state, step, err)
							}
						}
						if got, exp := c.calls[call](), want[state][call]; !errors.Is(got, exp) {
							t.Errorf("%s, %s, %s: got %v, want %v", k.name, state, call, got, exp)
						}
					}
					_ = c.calls["Wait"]() // finish a round the cell left active
					_ = c.calls["Free"]()
					if c.done != nil {
						if err := c.done(); err != nil {
							return err
						}
					}
				}
			}
		}
		return nil
	})
}
