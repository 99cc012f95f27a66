package main

import (
	"encoding/binary"
	"math/rand/v2"
)

// Message shapes of the data kernels.
const (
	smallBytes  = 8
	largeBytes  = 64 << 10
	rateWindow  = 64 // msg_rate_8B_per_s: messages in flight per ack
	bwWindow    = 16 // bw_64KiB_MBps: 1 MiB in flight, under udp's 4 MiB socket buffer
	reduceCount = 4096
	gatherBytes = 1 << 10
)

// inputs is everything the seed decides. The program under test sees only
// these values: payload bytes, the tags the point-to-point kernels match
// on, the allreduce operands, and the order kernels take their turns in.
type inputs struct {
	// Ping and Pong are the payloads the two ends of the point-to-point
	// pair send; each end checks it received the other's bytes.
	Ping, Pong []byte // largeBytes each; the 8-byte kernels use a prefix
	// Gather is the 1 KiB block rank 0 contributes; rank r sends it XORed
	// with byte(r) so the root can check the layout.
	Gather []byte
	// Reduce holds the operands rank 0 contributes to the allreduces; rank
	// r adds r to each, so every rank can compute the expected sums.
	Reduce []int64
	// Tag is the base of the tag range the point-to-point kernels use.
	Tag int
	// Orders[i] is the kernel order of round i (indices into the caller's
	// kernel list).
	Orders [][]int
}

// genInputs derives the inputs from the seed alone.
func genInputs(seed uint64, kernels, rounds int) inputs {
	r := rand.New(rand.NewPCG(seed, 0x6d70692d62656e63)) // "mpi-benc"
	fill := func(n int) []byte {
		b := make([]byte, n)
		for i := 0; i+8 <= n; i += 8 {
			binary.LittleEndian.PutUint64(b[i:], r.Uint64())
		}
		return b
	}
	in := inputs{
		Ping:   fill(largeBytes),
		Pong:   fill(largeBytes),
		Gather: fill(gatherBytes),
		Reduce: make([]int64, reduceCount),
		Tag:    1 + r.IntN(20000),
	}
	for i := range in.Reduce {
		// 40 bits keep the 4-rank sums far from overflow.
		in.Reduce[i] = int64(r.Uint64() >> 24)
	}
	for i := 0; i < rounds; i++ {
		in.Orders = append(in.Orders, r.Perm(kernels))
	}
	return in
}

// reduceOperand returns the bytes rank contributes to an allreduce over
// count Int64 elements and the bytes every rank must end up with.
func (in inputs) reduceOperand(rank, np, count int) (send, want []byte) {
	send = make([]byte, 8*count)
	want = make([]byte, 8*count)
	for i := 0; i < count; i++ {
		binary.LittleEndian.PutUint64(send[8*i:], uint64(in.Reduce[i]+int64(rank)))
		binary.LittleEndian.PutUint64(want[8*i:], uint64(int64(np)*in.Reduce[i]+int64(np*(np-1)/2)))
	}
	return send, want
}

// gatherBlock returns the block rank contributes to the gather.
func (in inputs) gatherBlock(rank int) []byte {
	b := make([]byte, len(in.Gather))
	for i, v := range in.Gather {
		b[i] = v ^ byte(rank)
	}
	return b
}
