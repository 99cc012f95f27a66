package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	goruntime "runtime"
	"time"

	"gompi/internal/twomesh"
	"gompi/mpi"
)

// twomeshResidual is the final L0 residual of twomesh.Tiny, by rank count.
// The solver is deterministic, so any other value means the communication
// underneath it returned wrong data.
var twomeshResidual = map[int]float64{
	2: 0.294058944190436,
	4: 0.8743487431791531,
}

// kernel is one closed-loop measurement a long-lived job takes turns at.
// Every rank of the kernel's communicator builds it and runs the same
// batches in lockstep.
type kernel struct {
	metric string
	// pair kernels run on the 2-rank point-to-point communicator, the rest
	// on the communicator spanning the job.
	pair bool
	// value converts nanoseconds per operation into the metric's unit.
	value func(nsPerOp float64) float64
	build func(c *mpi.Comm, p *mpi.Process, in inputs) (*kernelRun, error)
}

// kernelRun is a kernel bound to a communicator. batch runs n operations
// and returns the time that counts towards the metric; check verifies what
// the last batch left in the receive buffers.
type kernelRun struct {
	batch func(n int) (time.Duration, error)
	check func() error // nil when batch checks every operation itself
	close func() error // nil when there is nothing to release
}

func (kr *kernelRun) verify() error {
	if kr.check == nil {
		return nil
	}
	return kr.check()
}

func usPerOp(ns float64) float64 { return ns / 1e3 }

// longKernels is the fixed kernel list of the long-lived job; the seed
// permutes the order they run in each round.
var longKernels = []kernel{
	{metric: "comm_dup_us", value: usPerOp, build: buildCommDup},
	{metric: "twomesh_tiny_ms", value: func(ns float64) float64 { return ns / 1e6 }, build: buildTwomesh},
	{metric: "latency_8B_us", pair: true, value: func(ns float64) float64 { return ns / 2e3 }, build: pingPong(smallBytes, 0)},
	{metric: "latency_64KiB_us", pair: true, value: func(ns float64) float64 { return ns / 2e3 }, build: pingPong(largeBytes, 1)},
	{metric: "msg_rate_8B_per_s", pair: true, value: func(ns float64) float64 { return rateWindow * 1e9 / ns }, build: windowed(smallBytes, rateWindow, 2)},
	{metric: "bw_64KiB_MBps", pair: true, value: func(ns float64) float64 { return bwWindow * largeBytes * 1e3 / ns }, build: windowed(largeBytes, bwWindow, 4)},
	{metric: "allreduce_8B_us", value: usPerOp, build: allreduce(1, false)},
	{metric: "allreduce_persistent_8B_us", value: usPerOp, build: allreduce(1, true)},
	{metric: "allreduce_32KiB_us", value: usPerOp, build: allreduce(reduceCount, false)},
	{metric: "gather_1KiB_us", value: usPerOp, build: buildGather},
}

// buildCommDup: barrier, then a timed Comm.Dup; the duplicate is freed
// outside the timed region (Fig. 4).
func buildCommDup(c *mpi.Comm, _ *mpi.Process, _ inputs) (*kernelRun, error) {
	return &kernelRun{
		batch: func(n int) (time.Duration, error) {
			var total time.Duration
			for i := 0; i < n; i++ {
				if err := c.Barrier(); err != nil {
					return 0, err
				}
				t0 := time.Now()
				dup, err := c.Dup()
				total += time.Since(t0)
				if err != nil {
					return 0, err
				}
				if dup.Size() != c.Size() || dup.Rank() != c.Rank() {
					return 0, fmt.Errorf("dup is rank %d of %d, want %d of %d", dup.Rank(), dup.Size(), c.Rank(), c.Size())
				}
				if err := dup.Free(); err != nil {
					return 0, err
				}
			}
			return total, nil
		},
	}, nil
}

// buildTwomesh: the 2MESH proxy with its L1 library initialising its own
// session inside an MPI_Init application (Fig. 7).
func buildTwomesh(c *mpi.Comm, p *mpi.Process, _ inputs) (*kernelRun, error) {
	want, ok := twomeshResidual[c.Size()]
	if !ok {
		return nil, fmt.Errorf("no reference residual for %d ranks", c.Size())
	}
	return &kernelRun{
		batch: func(n int) (time.Duration, error) {
			var total time.Duration
			for i := 0; i < n; i++ {
				t0 := time.Now()
				rep, err := twomesh.Run(p, twomesh.Tiny(), true, 2)
				total += time.Since(t0)
				if err != nil {
					return 0, err
				}
				if rep.Residual != want {
					return 0, fmt.Errorf("twomesh residual %v, want %v", rep.Residual, want)
				}
			}
			return total, nil
		},
	}, nil
}

// pingPong is osu_latency: rank 0 sends and waits for the reply, rank 1
// mirrors it. One operation is a round trip; the metric halves it.
func pingPong(size, tagOff int) func(*mpi.Comm, *mpi.Process, inputs) (*kernelRun, error) {
	return func(c *mpi.Comm, _ *mpi.Process, in inputs) (*kernelRun, error) {
		if c.Size() != 2 {
			return nil, fmt.Errorf("ping-pong needs 2 ranks, got %d", c.Size())
		}
		me, tag := c.Rank(), in.Tag+tagOff
		sbuf, want := in.Ping[:size], in.Pong[:size]
		if me == 1 {
			sbuf, want = want, sbuf
		}
		rbuf := make([]byte, size)
		return &kernelRun{
			batch: func(n int) (time.Duration, error) {
				rbuf[0] = ^want[0] // a stale buffer must not pass the check
				t0 := time.Now()
				for i := 0; i < n; i++ {
					if me == 0 {
						if err := c.Send(sbuf, 1, tag); err != nil {
							return 0, err
						}
						if _, err := c.Recv(rbuf, 1, tag); err != nil {
							return 0, err
						}
					} else {
						if _, err := c.Recv(rbuf, 0, tag); err != nil {
							return 0, err
						}
						if err := c.Send(sbuf, 0, tag); err != nil {
							return 0, err
						}
					}
				}
				return time.Since(t0), nil
			},
			check: func() error {
				if !bytes.Equal(rbuf, want) {
					return fmt.Errorf("rank %d received a corrupted %d-byte payload", me, size)
				}
				return nil
			},
		}, nil
	}
}

// windowed is osu_mbw_mr with one pair: rank 0 sends a window of messages
// and waits for a 1-byte ack. Rank 1 posts the receives of the next window
// before it acks the current one, so every message finds a posted receive.
// One operation is one window.
func windowed(size, window, tagOff int) func(*mpi.Comm, *mpi.Process, inputs) (*kernelRun, error) {
	return func(c *mpi.Comm, _ *mpi.Process, in inputs) (*kernelRun, error) {
		if c.Size() != 2 {
			return nil, fmt.Errorf("windowed kernel needs 2 ranks, got %d", c.Size())
		}
		me, tag, ackTag := c.Rank(), in.Tag+tagOff, in.Tag+tagOff+1
		payload := in.Ping[:size]
		ack := make([]byte, 1)
		reqs := make([]mpi.Request, window)
		var rbuf []byte
		if me == 1 {
			rbuf = make([]byte, size*window)
		}
		post := func() {
			for w := range reqs {
				reqs[w] = c.Irecv(rbuf[w*size:(w+1)*size], 0, tag)
			}
		}
		sendWindow := func() error {
			for w := range reqs {
				reqs[w] = c.Isend(payload, 1, tag)
			}
			return mpi.WaitAll(reqs...)
		}
		return &kernelRun{
			batch: func(n int) (time.Duration, error) {
				if me == 0 {
					// The first ack says the first window is posted.
					if _, err := c.Recv(ack, 1, ackTag); err != nil {
						return 0, err
					}
					t0 := time.Now()
					for i := 0; i < n; i++ {
						if err := sendWindow(); err != nil {
							return 0, err
						}
						if _, err := c.Recv(ack, 1, ackTag); err != nil {
							return 0, err
						}
					}
					return time.Since(t0), nil
				}
				for i := range rbuf {
					rbuf[i] = 0
				}
				post()
				if err := c.Send(ack, 0, ackTag); err != nil {
					return 0, err
				}
				t0 := time.Now()
				for i := 0; i < n; i++ {
					if err := mpi.WaitAll(reqs...); err != nil {
						return 0, err
					}
					if i+1 < n {
						post()
					}
					if err := c.Send(ack, 0, ackTag); err != nil {
						return 0, err
					}
				}
				return time.Since(t0), nil
			},
			check: func() error {
				for w := 0; me == 1 && w < window; w++ {
					if !bytes.Equal(rbuf[w*size:(w+1)*size], payload) {
						return fmt.Errorf("window slot %d holds a corrupted %d-byte payload", w, size)
					}
				}
				return nil
			},
		}, nil
	}
}

// allreduce sums count Int64 elements over the communicator, per call or
// through one persistent request started once per operation.
func allreduce(count int, persistent bool) func(*mpi.Comm, *mpi.Process, inputs) (*kernelRun, error) {
	return func(c *mpi.Comm, _ *mpi.Process, in inputs) (*kernelRun, error) {
		send, want := in.reduceOperand(c.Rank(), c.Size(), count)
		recv := make([]byte, len(send))
		kr := &kernelRun{
			check: func() error {
				if !bytes.Equal(recv, want) {
					return fmt.Errorf("allreduce of %d elements: wrong sum (first element %d, want %d)", count,
						int64(binary.LittleEndian.Uint64(recv)), int64(binary.LittleEndian.Uint64(want)))
				}
				return nil
			},
		}
		op := func() error { return c.Allreduce(send, recv, count, mpi.Int64, mpi.OpSum) }
		if persistent {
			pc, err := c.AllreduceInit(send, recv, count, mpi.Int64, mpi.OpSum)
			if err != nil {
				return nil, err
			}
			op = func() error {
				if err := pc.Start(); err != nil {
					return err
				}
				return pc.Wait()
			}
			kr.close = pc.Free
		}
		kr.batch = func(n int) (time.Duration, error) {
			recv[0] = ^want[0]
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if err := op(); err != nil {
					return 0, err
				}
			}
			return time.Since(t0), nil
		}
		return kr, nil
	}
}

// buildGather: Comm.Gather of a 1 KiB block per rank to root 0. A gather
// does not hold the senders back, so — as osu_gather does — a barrier
// outside the timed region follows every call; without it the senders run
// ahead of the root and flood its unexpected queue (or, on udp, overflow
// its socket buffer).
func buildGather(c *mpi.Comm, _ *mpi.Process, in inputs) (*kernelRun, error) {
	send := in.gatherBlock(c.Rank())
	var recv, want []byte
	if c.Rank() == 0 {
		recv = make([]byte, gatherBytes*c.Size())
		for r := 0; r < c.Size(); r++ {
			want = append(want, in.gatherBlock(r)...)
		}
	}
	return &kernelRun{
		batch: func(n int) (time.Duration, error) {
			if recv != nil {
				recv[len(recv)-1] = ^want[len(want)-1]
			}
			var total time.Duration
			for i := 0; i < n; i++ {
				t0 := time.Now()
				err := c.Gather(send, recv, 0)
				total += time.Since(t0)
				if err != nil {
					return 0, err
				}
				if err := c.Barrier(); err != nil {
					return 0, err
				}
			}
			return total, nil
		},
		check: func() error {
			if !bytes.Equal(recv, want) {
				return fmt.Errorf("gather: root received blocks in the wrong layout")
			}
			return nil
		},
	}, nil
}

// runSlice gives one kernel its turn on communicator c. Rank 0 of c leads:
// it picks the batch size n and the batch count nb from the running
// per-operation estimate and broadcasts them; every rank then runs one
// untimed warm-up batch and nb timed ones, checking results after each run.
// Without an estimate (set-up) the leader first doubles n until a batch
// lasts minBatch. A zero slice stops after calibration.
func runSlice(c *mpi.Comm, p *mpi.Process, k kernel, in inputs, pl plan, tr *tracer, res *rankResult) error {
	leader := c.Rank() == 0
	if leader || pl.Proc {
		goruntime.GC()
	}
	kr, err := k.build(c, p, in)
	if err != nil {
		return err
	}
	ctrl := make([]byte, 16)
	// In a traced job every other timed batch records a span, and its
	// sample is kept apart: the two halves of one slice give the tracing
	// overhead with nothing else differing between them.
	run := func(n, nb int) (plain, traced []float64, err error) {
		if _, err := kr.batch(n); err != nil {
			return nil, nil, err
		}
		if err := kr.verify(); err != nil {
			return nil, nil, err
		}
		for b := 0; b < nb; b++ {
			sp := -1
			if b%2 == 1 {
				sp = tr.begin("kernel."+k.metric, pl.Parent)
			}
			d, err := kr.batch(n)
			tr.end(sp)
			if err != nil {
				return nil, nil, err
			}
			if sp >= 0 {
				tr.spans[sp].N = n
				traced = append(traced, float64(d)/float64(n))
			} else {
				plain = append(plain, float64(d)/float64(n))
			}
		}
		if err := kr.verify(); err != nil {
			return nil, nil, err
		}
		if leader {
			res.Ops += n * (nb + 1)
		}
		return plain, traced, nil
	}
	announce := func(n, nb int) error {
		binary.LittleEndian.PutUint64(ctrl[0:], uint64(n))
		binary.LittleEndian.PutUint64(ctrl[8:], uint64(nb))
		return c.Bcast(ctrl, 0)
	}

	if !leader {
		for {
			if err := c.Bcast(ctrl, 0); err != nil {
				return err
			}
			n, nb := int(binary.LittleEndian.Uint64(ctrl[0:])), int(binary.LittleEndian.Uint64(ctrl[8:]))
			if n == 0 {
				break
			}
			plain, traced, err := run(n, nb)
			if err != nil {
				return err
			}
			res.Samples[k.metric], res.Traced[k.metric] = plain, traced
		}
	} else {
		est := pl.Est[k.metric]
		for n := 1; est == 0; n *= 2 {
			if err := announce(n, 1); err != nil {
				return err
			}
			s, _, err := run(n, 1)
			if err != nil {
				return err
			}
			if s[0]*float64(n) >= float64(minBatch) || n >= maxBatch {
				est = s[0]
			}
		}
		if pl.SliceNs > 0 {
			n := batchSize(est)
			nb := batchCount(time.Duration(pl.SliceNs), n, est)
			if pl.Trace && nb < 2 {
				nb = 2 // one batch with a span, one without
			}
			if err := announce(n, nb); err != nil {
				return err
			}
			plain, traced, err := run(n, nb)
			if err != nil {
				return err
			}
			res.Samples[k.metric], res.Traced[k.metric] = plain, traced
			est = median(plain)
		}
		res.Est[k.metric] = est
		if err := announce(0, 0); err != nil {
			return err
		}
	}
	if kr.close != nil {
		return kr.close()
	}
	return nil
}
