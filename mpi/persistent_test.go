package mpi_test

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"testing"
	"time"

	"gompi/mpi"
)

func TestPersistentHaloPattern(t *testing.T) {
	withWorld(t, 2, 2, exCfg(), func(p *mpi.Process, world *mpi.Comm) error {
		n := world.Size()
		me := world.Rank()
		right := (me + 1) % n
		left := (me - 1 + n) % n
		out := make([]byte, 4)
		in := make([]byte, 4)

		sreq, err := world.SendInit(out, right, 7)
		if err != nil {
			return err
		}
		rreq, err := world.RecvInit(in, left, 7)
		if err != nil {
			return err
		}
		for iter := 0; iter < 5; iter++ {
			for i := range out {
				out[i] = byte(me*16 + iter)
			}
			if err := mpi.StartAll(rreq, sreq); err != nil {
				return fmt.Errorf("iter %d: %w", iter, err)
			}
			if err := mpi.WaitAll(sreq, rreq); err != nil {
				return fmt.Errorf("iter %d: %w", iter, err)
			}
			for i := range in {
				if in[i] != byte(left*16+iter) {
					return fmt.Errorf("iter %d byte %d = %d", iter, i, in[i])
				}
			}
		}
		return nil
	})
}

func TestPersistentDoubleStartFails(t *testing.T) {
	withWorld(t, 1, 2, exCfg(), func(p *mpi.Process, world *mpi.Comm) error {
		if world.Rank() == 1 {
			return world.Barrier()
		}
		// Recv with no matching send stays active.
		req, err := world.RecvInit(make([]byte, 1), 1, 99)
		if err != nil {
			return err
		}
		if err := req.Start(); err != nil {
			return err
		}
		if err := req.Start(); !errors.Is(err, mpi.ErrActive) {
			return fmt.Errorf("double start: %v, want ErrActive", err)
		}
		if done, _, err := req.Test(); done || err != nil {
			return fmt.Errorf("Test after refused Start: done=%v err=%v, want the first round still pending", done, err)
		}
		if err := req.Free(); !errors.Is(err, mpi.ErrActive) {
			return fmt.Errorf("Free of an active request: %v, want ErrActive", err)
		}
		return world.Barrier()
	})
}

func TestPersistentWaitBeforeStartFails(t *testing.T) {
	withWorld(t, 1, 2, exCfg(), func(p *mpi.Process, world *mpi.Comm) error {
		req, err := world.SendInit(nil, (world.Rank()+1)%2, 1)
		if err != nil {
			return err
		}
		if _, err := req.Wait(); !errors.Is(err, mpi.ErrNotStarted) {
			return fmt.Errorf("wait before start: %v, want ErrNotStarted", err)
		}
		// An unstarted request's Done is already closed, so a select-based
		// waiter falls through to the Test that reports the misuse.
		if _, _, err := mpi.Waitany([]mpi.Request{req}); !errors.Is(err, mpi.ErrNotStarted) {
			return fmt.Errorf("waitany before start: %v, want ErrNotStarted", err)
		}
		return req.Free()
	})
}

func TestPersistentSsend(t *testing.T) {
	withWorld(t, 1, 2, exCfg(), func(p *mpi.Process, world *mpi.Comm) error {
		if world.Rank() == 0 {
			req, err := world.SsendInit([]byte("pp"), 1, 4)
			if err != nil {
				return err
			}
			for i := 0; i < 3; i++ {
				if err := req.Start(); err != nil {
					return err
				}
				if _, err := req.Wait(); err != nil {
					return err
				}
			}
			return nil
		}
		buf := make([]byte, 2)
		for i := 0; i < 3; i++ {
			if _, err := world.Recv(buf, 0, 4); err != nil {
				return err
			}
			if string(buf) != "pp" {
				return fmt.Errorf("iter %d: %q", i, buf)
			}
		}
		return nil
	})
}

// TestPersistentRoundErrorHandled: a round's own error — here the
// communicator was revoked after SendInit — reaches the communicator's
// error handler once, at the Wait that reports it, as a persistent
// collective's does.
func TestPersistentRoundErrorHandled(t *testing.T) {
	withWorld(t, 1, 1, exCfg(), func(p *mpi.Process, world *mpi.Comm) error {
		dup, err := world.Dup()
		if err != nil {
			return err
		}
		defer dup.Free()
		handled := 0
		dup.SetErrhandler(mpi.ErrhandlerCreate("count", func(error) { handled++ }))
		req, err := dup.SendInit([]byte{1}, 0, 3)
		if err != nil {
			return err
		}
		if err := dup.Revoke(); err != nil {
			return err
		}
		if err := req.Start(); err != nil {
			return fmt.Errorf("Start = %v, want nil: the round reports its error", err)
		}
		_, err = req.Wait()
		if cls := mpi.ErrorClassOf(err); cls != mpi.ErrClassRevoked || handled != 1 {
			return fmt.Errorf("Wait = %v (class %v), handler ran %d times; want MPI_ERR_REVOKED, once", err, cls, handled)
		}
		return req.Free()
	})
}

func TestWaitanyAndTestall(t *testing.T) {
	withWorld(t, 1, 2, exCfg(), func(p *mpi.Process, world *mpi.Comm) error {
		if world.Rank() == 1 {
			// Send only on tag 2; tag-3 recv at rank 0 stays pending.
			if err := world.Send([]byte{9}, 0, 2); err != nil {
				return err
			}
			if err := world.Send([]byte{8}, 0, 3); err != nil {
				return err
			}
			return nil
		}
		b2 := make([]byte, 1)
		b3 := make([]byte, 1)
		reqs := []mpi.Request{nil, world.Irecv(b2, 1, 2), world.Irecv(b3, 1, 3)}
		i, st, err := mpi.Waitany(reqs)
		if err != nil {
			return err
		}
		if i != 1 && i != 2 {
			return fmt.Errorf("waitany index = %d", i)
		}
		if st.Source != 1 {
			return fmt.Errorf("waitany status = %+v", st)
		}
		// Eventually all complete.
		for {
			done, err := mpi.Testall(reqs)
			if err != nil {
				return err
			}
			if done {
				break
			}
		}
		if b2[0] != 9 || b3[0] != 8 {
			return fmt.Errorf("payloads = %d %d", b2[0], b3[0])
		}
		if i, _, _ := mpi.Waitany([]mpi.Request{nil, nil}); i != mpi.Undefined {
			return fmt.Errorf("all-nil waitany = %d", i)
		}
		return nil
	})
}

// Waitany selects over completion channels: the request that loses the race
// (an Irecv nobody has matched yet) must not leave a goroutine parked on it.
func TestWaitanyLeavesNoGoroutines(t *testing.T) {
	withWorld(t, 1, 1, exCfg(), func(p *mpi.Process, world *mpi.Comm) error {
		send := world.Isend([]byte{1}, 0, 1)
		if _, err := send.Wait(); err != nil {
			return err
		}
		in := make([]byte, 1)
		recv := world.Irecv(in, 0, 2)
		before := goruntime.NumGoroutine()
		i, _, err := mpi.Waitany([]mpi.Request{send, recv})
		if err != nil || i != 0 {
			return fmt.Errorf("waitany = %d, %v; want the completed Isend", i, err)
		}
		// Other goroutines of the job may come and go; one parked on the
		// unmatched Irecv never would.
		after := goruntime.NumGoroutine()
		for deadline := time.Now().Add(time.Second); after > before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
			after = goruntime.NumGoroutine()
		}
		if after > before {
			return fmt.Errorf("goroutines %d before Waitany, %d after", before, after)
		}
		// Match both messages so the job shuts down clean.
		if err := world.Send([]byte{2}, 0, 2); err != nil {
			return err
		}
		if _, err := recv.Wait(); err != nil {
			return err
		}
		_, err = world.Recv(in, 0, 1)
		return err
	})
}

func TestUserDefinedOp(t *testing.T) {
	withWorld(t, 1, 4, exCfg(), func(p *mpi.Process, world *mpi.Comm) error {
		// op(a, b) = a*10 + b over int64: associative? No — use a genuinely
		// associative non-commutative op: 2x2 matrix multiply flattened
		// into 4 int64s.
		matmul := mpi.OpCreate("mat2x2", func(inout, in []byte, count int, dt mpi.Datatype) error {
			a := mpi.UnpackInt64s(inout)
			b := mpi.UnpackInt64s(in)
			for m := 0; m+4 <= len(a); m += 4 {
				r0 := a[m+0]*b[m+0] + a[m+1]*b[m+2]
				r1 := a[m+0]*b[m+1] + a[m+1]*b[m+3]
				r2 := a[m+2]*b[m+0] + a[m+3]*b[m+2]
				r3 := a[m+2]*b[m+1] + a[m+3]*b[m+3]
				a[m+0], a[m+1], a[m+2], a[m+3] = r0, r1, r2, r3
			}
			copy(inout, mpi.PackInt64s(a))
			return nil
		})
		// Rank r contributes [[1, r+1], [0, 1]]; the ordered product's
		// upper-right entry is the sum 1+2+...+n.
		mine := mpi.PackInt64s([]int64{1, int64(world.Rank() + 1), 0, 1})
		out := make([]byte, 32)
		if err := world.AllreduceUser(mine, out, 4, mpi.Int64, matmul); err != nil {
			return err
		}
		got := mpi.UnpackInt64s(out)
		n := int64(world.Size())
		want := n * (n + 1) / 2
		if got[0] != 1 || got[1] != want || got[2] != 0 || got[3] != 1 {
			return fmt.Errorf("product = %v, want [1 %d 0 1]", got, want)
		}
		// ReduceUser to a root.
		if err := world.ReduceUser(mine, out, 4, mpi.Int64, matmul, 0); err != nil {
			return err
		}
		if world.Rank() == 0 {
			got = mpi.UnpackInt64s(out)
			if got[1] != want {
				return fmt.Errorf("reduce product = %v", got)
			}
		}
		if err := world.ReduceUser(mine, out, 4, mpi.Int64, nil, 0); err == nil {
			return fmt.Errorf("nil op accepted")
		}
		return nil
	})
}
