package mpi_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"gompi/internal/topo"
	"gompi/mpi"
	"gompi/runtime"
)

// withSessionWithin is withSession on 2 nodes with one rank each, failing
// the test if the job has not ended after d, so a hung origin fails this
// test rather than the whole suite's timeout.
func withSessionWithin(t *testing.T, d time.Duration, body func(p *mpi.Process, s *mpi.Session, g *mpi.Group) error) {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		errc <- runtime.Run(runtime.Options{Cluster: topo.New(topo.Loopback(1), 2), PPN: 1, Config: exCfg()},
			func(p *mpi.Process) error {
				sess, err := p.SessionInit(nil, nil)
				if err != nil {
					return err
				}
				grp, err := sess.GroupFromPset(mpi.PsetWorld)
				if err != nil {
					return err
				}
				if err := body(p, sess, grp); err != nil {
					return err
				}
				return sess.Finalize()
			})
	}()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(d):
		t.Fatalf("job still running after %v", d)
	}
}

// A request larger than any fixed receive buffer reaches the file host
// whole: a non-host member writes 2 MiB and every member reads it back.
func TestFileLargeWriteFromNonHost(t *testing.T) {
	const size = 2 << 20
	want := make([]byte, size)
	for i := range want {
		want[i] = byte(i*7 + i>>11)
	}
	withSessionWithin(t, time.Minute, func(p *mpi.Process, s *mpi.Session, g *mpi.Group) error {
		f, err := s.FileOpenFromGroup(g, "big", "big.dat")
		if err != nil {
			return err
		}
		if p.JobRank() == 1 {
			if err := f.WriteAt(0, want); err != nil {
				return err
			}
		}
		if err := f.Sync(); err != nil {
			return err
		}
		if n, err := f.Size(); err != nil || n != size {
			return fmt.Errorf("size = %d, %v; want %d", n, err, size)
		}
		got := make([]byte, size)
		if n, err := f.ReadAt(0, got); err != nil || n != size {
			return fmt.Errorf("read %d bytes, %v; want %d", n, err, size)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("rank %d read back different bytes", p.JobRank())
		}
		return f.Close()
	})
}

// Put, Get and Accumulate outside the target's window fail with
// MPI_ERR_BUFFER on the remote path as on the local one, and leave the
// window as it was.
func TestWinOutOfBoundsIsBufferError(t *testing.T) {
	withSession(t, 1, 2, func(p *mpi.Process, s *mpi.Session, g *mpi.Group) error {
		win, err := s.WinCreateFromGroup(g, "oob", 16)
		if err != nil {
			return err
		}
		me := win.Comm().Rank()
		for i := range win.Local() {
			win.Local()[i] = byte(100 + i)
		}
		if err := win.Fence(); err != nil {
			return err
		}
		eight := mpi.PackInt64s([]int64{1})
		got := bytes.Repeat([]byte{0xee}, 8)
		for _, target := range []int{1 - me, me} {
			for name, op := range map[string]func() error{
				"put past end":        func() error { return win.Put(target, 12, eight) },
				"put negative offset": func() error { return win.Put(target, -1, eight[:1]) },
				"get past end":        func() error { return win.Get(target, 9, got) },
				"accumulate past end": func() error { return win.Accumulate(target, 16, eight, mpi.OpSum) },
			} {
				if err := op(); mpi.ErrorClassOf(err) != mpi.ErrClassBuffer {
					return fmt.Errorf("%s at rank %d from rank %d: %v (class %v), want MPI_ERR_BUFFER",
						name, target, me, err, mpi.ErrorClassOf(err))
				}
			}
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{0xee}, 8)) {
			return fmt.Errorf("failed get wrote %v", got)
		}
		if err := win.Fence(); err != nil {
			return err
		}
		for i, b := range win.Local() {
			if b != byte(100+i) {
				return fmt.Errorf("rank %d window[%d] = %d after rejected operations", me, i, b)
			}
		}
		return win.Free()
	})
}

// A request the service cannot serve gets an error reply, and the service
// goes on serving.
func TestWinServiceRejectsMalformedRequests(t *testing.T) {
	withSession(t, 1, 2, func(p *mpi.Process, s *mpi.Session, g *mpi.Group) error {
		win, err := s.WinCreateFromGroup(g, "malformed", 8)
		if err != nil {
			return err
		}
		me := win.Comm().Rank()
		if me == 0 {
			for name, raw := range map[string][]byte{
				"one byte":           {1},
				"trailing byte":      {0, 0, 0, 0, 0, 0},
				"stop from a peer":   {0, 0, 0, 0, 0},
				"unknown operation":  {0x7e, 0, 0, 0, 0},
				"negative get count": {4, 0, 1, 0, 0},
				"bad lock type":      {8, 0, 0, 14, 0},
			} {
				cls, err := mpi.RawServiceRequest(win, 1, raw)
				if err != nil {
					return fmt.Errorf("%s: %v", name, err)
				}
				if cls == mpi.ErrSuccess {
					return fmt.Errorf("%s: the service reported success", name)
				}
			}
			if err := win.Put(1, 0, []byte("served")); err != nil {
				return fmt.Errorf("put after malformed requests: %v", err)
			}
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if me == 1 && string(win.Local()[:6]) != "served" {
			return fmt.Errorf("window = %q after the put", win.Local())
		}
		return win.Free()
	})
}

// The fixed tags of windows and files lie outside every internal tag region
// DESIGN.md reserves (and outside the application's non-negative tags).
func TestServiceTagsOutsideReservedRegions(t *testing.T) {
	regions := []struct {
		name     string
		low, top int
	}{
		{"one-shot collectives", mpi.OneShotCollTagFloor(), -16},
		{"persistent collectives", -(1 << 28) + 1, -(1 << 26)},
		{"partitioned p2p", -(1 << 28) - (1 << 26) + 1, -(1 << 28)},
	}
	seen := map[int]bool{}
	for _, tag := range mpi.ServiceTags {
		if tag >= 0 || tag == mpi.AnyTag || seen[tag] {
			t.Errorf("tag %d is not a distinct internal tag", tag)
		}
		seen[tag] = true
		for _, r := range regions {
			if tag >= r.low && tag <= r.top {
				t.Errorf("tag %d lies in the %s region [%d, %d]", tag, r.name, r.low, r.top)
			}
		}
	}
	if len(mpi.ServiceTags) != 4 {
		t.Errorf("%d fixed tags, want 4", len(mpi.ServiceTags))
	}
}
