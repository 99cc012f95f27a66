package mpi

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

var (
	predefinedTypes = []Datatype{Byte, Int32, Int64, Uint32, Uint64, Float32, Float64}
	goNames         = []string{"Byte", "Int32", "Int64", "Uint32", "Uint64", "Float32", "Float64"}
	floatSpecials   = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1, -1.5, math.MaxFloat32}
)

func isFloat(dt Datatype) bool { return dt.kind == dtFloat32 || dt.kind == dtFloat64 }

// operands returns count random elements of dt; floating-point buffers are
// salted with NaN, infinities and signed zeros (every eighth element).
func operands(rng *rand.Rand, dt Datatype, count int) []byte {
	buf := make([]byte, count*dt.size)
	rng.Read(buf)
	for i := 0; isFloat(dt) && i < count; i += 8 {
		v := floatSpecials[rng.Intn(len(floatSpecials))]
		if dt.kind == dtFloat32 {
			putF32(buf[i*4:], v)
		} else {
			putF64(buf[i*8:], v)
		}
	}
	return buf
}

// sameElements compares two result buffers bit for bit (so -0 differs from
// +0), except that any NaN matches any NaN: which NaN payload survives
// a+b is the instruction's operand order, which the compiler may choose
// differently in two loops.
func sameElements(dt Datatype, got, want []byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	if !isFloat(dt) {
		if !bytes.Equal(got, want) {
			return fmt.Errorf("buffers differ")
		}
		return nil
	}
	for o := 0; o+dt.size <= len(got); o += dt.size {
		if bytes.Equal(got[o:o+dt.size], want[o:o+dt.size]) {
			continue
		}
		g, w := getF64, getF64
		if dt.kind == dtFloat32 {
			g, w = getF32, getF32
		}
		if a, b := g(got[o:]), w(want[o:]); !(math.IsNaN(a) && math.IsNaN(b)) {
			return fmt.Errorf("element %d: got %v (% x), want %v (% x)", o/dt.size, a, got[o:o+dt.size], b, want[o:o+dt.size])
		}
	}
	return nil
}

// checkAgainstOracle runs one kernel and the oracle on copies of the same
// operands placed off bytes into their backing arrays, and demands the
// same error, the same result, and untouched bytes on both sides of the
// operands.
func checkAgainstOracle(op Op, dt Datatype, inout, in []byte, count, off int) error {
	const guard = 0xA5
	place := func(b []byte) []byte {
		back := bytes.Repeat([]byte{guard}, off+len(b)+8)
		copy(back[off:], b)
		return back
	}
	gotBack, wantBack, inBack := place(inout), place(inout), place(in)
	got, want, src := gotBack[off:off+len(inout)], wantBack[off:off+len(inout)], inBack[off:off+len(in)]

	gotErr := builtinReducer(op, dt)(got, src, count)
	wantErr := reduceOracle(op, dt, want, append([]byte(nil), src...), count)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		return fmt.Errorf("error %v, oracle %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return nil
	}
	if err := sameElements(dt, got, want); err != nil {
		return err
	}
	for _, b := range [][]byte{gotBack[:off], gotBack[off+len(inout):], inBack[:off], inBack[off+len(in):]} {
		if bytes.Count(b, []byte{guard}) != len(b) {
			return fmt.Errorf("kernel wrote outside its operands")
		}
	}
	if !bytes.Equal(src, in) {
		return fmt.Errorf("kernel modified its input operand")
	}
	return nil
}

// TestReduceKernelsMatchOracle: every (operation, datatype) kernel against
// the scalar oracle, for counts on both sides of the four-element block and
// for operands at even and odd byte offsets.
func TestReduceKernelsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, dt := range predefinedTypes {
		for op := OpSum; op < numOps; op++ {
			for _, count := range []int{0, 1, 3, 4, 5, 4096, 4097} {
				for _, off := range []int{0, 1, 3, 7} {
					inout, in := operands(rng, dt, count), operands(rng, dt, count)
					if err := checkAgainstOracle(op, dt, inout, in, count, off); err != nil {
						t.Errorf("%s %s count %d offset %d: %v", op, dt, count, off, err)
					}
				}
			}
		}
	}
}

// TestReduceKernelFloatExtremes pins float Max and Min to math.Max and
// math.Min on every pair of special values, in every lane of the block.
func TestReduceKernelFloatExtremes(t *testing.T) {
	type codec struct {
		dt  Datatype
		put func([]byte, float64)
	}
	for _, c := range []codec{{Float32, putF32}, {Float64, putF64}} {
		for _, tc := range []struct {
			op Op
			fn func(a, b float64) float64
		}{{OpMax, math.Max}, {OpMin, math.Min}} {
			for _, a := range floatSpecials {
				for _, b := range floatSpecials {
					const count = 5 // one full block and a tail element
					inout, in := make([]byte, count*c.dt.size), make([]byte, count*c.dt.size)
					for i := 0; i < count; i++ {
						c.put(inout[i*c.dt.size:], a)
						c.put(in[i*c.dt.size:], b)
					}
					if err := reduce(tc.op, c.dt, inout, in, count); err != nil {
						t.Fatal(err)
					}
					want := make([]byte, c.dt.size) // every special is exact in float32 too
					c.put(want, tc.fn(a, b))
					for i := 0; i < count; i++ {
						if err := sameElements(c.dt, inout[i*c.dt.size:(i+1)*c.dt.size], want); err != nil {
							t.Errorf("%s %s (%v, %v) lane %d: %v", tc.op, c.dt, a, b, i, err)
						}
					}
				}
			}
		}
	}
}

// TestReduceKernelErrors: what the element loop rejected, the kernels
// reject with the same message; a negative count, which it let through as
// a no-op, is a buffer error.
func TestReduceKernelErrors(t *testing.T) {
	for _, dt := range predefinedTypes {
		for op := OpSum; op < numOps; op++ {
			full, short := make([]byte, 4*dt.size), make([]byte, 4*dt.size-1)
			for _, bufs := range [][2][]byte{{short, full}, {full, short}} {
				got, want := reduce(op, dt, bufs[0], bufs[1], 4), reduceOracle(op, dt, bufs[0], bufs[1], 4)
				if got == nil || got.Error() != want.Error() {
					t.Errorf("%s %s short buffer: %v, oracle %v", op, dt, got, want)
				}
			}
			if err := reduce(op, dt, full, full, -1); err == nil {
				t.Errorf("%s %s: negative count accepted", op, dt)
			}
			if isFloat(dt) && (op == OpBAnd || op == OpBOr) {
				got, want := reduce(op, dt, full, full, 4), reduceOracle(op, dt, full, full, 4)
				if got == nil || want == nil || got.Error() != want.Error() {
					t.Errorf("%s %s: %v, oracle %v", op, dt, got, want)
				}
			}
		}
		for _, op := range []Op{-1, numOps, 99} {
			buf := make([]byte, dt.size)
			if err := reduce(op, dt, buf, buf, 1); err == nil {
				t.Errorf("%s: operation %d accepted", dt, int(op))
			}
		}
	}
}

// FuzzReduceKernel feeds arbitrary operand bytes, offsets and (possibly
// overstated) counts to every kernel and compares with the oracle. The
// seed corpus is testdata/fuzz/FuzzReduceKernel.
func FuzzReduceKernel(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind, opByte, off, extra uint8, data []byte) {
		dt := predefinedTypes[int(kind)%len(predefinedTypes)]
		op := Op(opByte % uint8(numOps))
		half := len(data) / 2 / dt.size * dt.size
		inout, in := data[:half], data[half:2*half]
		count := half/dt.size + int(extra%2) // extra overstates the count: both sides must reject
		if err := checkAgainstOracle(op, dt, inout, in, count, int(off%9)); err != nil {
			t.Fatalf("%s %s count %d: %v", op, dt, count, err)
		}
	})
}

var kernelSink error

// BenchmarkReduceKernel times one reduction of 4096 elements per datatype
// for an arithmetic, a comparing and a bitwise operation; MB/s counts the
// inout bytes.
func BenchmarkReduceKernel(b *testing.B) {
	const count = 4096
	rng := rand.New(rand.NewSource(1))
	for _, dt := range predefinedTypes {
		for _, op := range []Op{OpSum, OpMax, OpBAnd} {
			if isFloat(dt) && op == OpBAnd {
				continue
			}
			name := goNames[dt.kind] + "/" + map[Op]string{OpSum: "Sum", OpMax: "Max", OpBAnd: "BAnd"}[op]
			b.Run(name, func(b *testing.B) {
				inout, in := operands(rng, dt, count), operands(rng, dt, count)
				rf := builtinReducer(op, dt)
				b.SetBytes(int64(len(inout)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					kernelSink = rf(inout, in, count)
				}
			})
		}
	}
}
