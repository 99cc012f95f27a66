package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"gompi/internal/coll"
)

// Reduction kernels (DESIGN.md §5c). Every predefined (datatype, operation)
// pair has one kernel: a loop with the operation fixed at compile time that
// decodes, combines and re-encodes four elements per iteration. Loads and
// stores go through encoding/binary on fixed-length windows of the buffer,
// which the compiler turns into plain moves with no bounds checks left in
// the loop. There is no unsafe cast: message buffers are []byte at
// arbitrary offsets, and a misaligned []byte -> *int64 view trips checkptr
// under -race while measuring no faster than this form.
//
// Floating-point kernels fold in the operand order of the scalar
// definition, inout = op(inout, in), one element at a time; float32 data is
// combined in float64 and rounded once, as it always was — results are
// bit-identical to the element-at-a-time loop these kernels replace (kept
// as the test oracle in reduce_oracle_test.go).

// kernel combines len(d)/size elements: d[i] = op(d[i], s[i]). The caller
// passes len(s) == len(d), a whole number of elements.
type kernel func(d, s []byte)

var le = binary.LittleEndian

type (
	int32s interface{ int32 | uint32 }
	int64s interface{ int64 | uint64 }
)

// number is what land and lor are instantiated on.
type number interface {
	uint8 | uint32 | uint64 | float64
}

// land and lor are MPI_LAND / MPI_LOR on one element pair.
func land[T number](a, b T) T {
	if a != 0 && b != 0 {
		return 1
	}
	return 0
}

func lor[T number](a, b T) T {
	if a != 0 || b != 0 {
		return 1
	}
	return 0
}

// Element codecs. The x4 forms take a window of exactly four elements.
// Integers travel as unsigned words: two's-complement sum, product and the
// logical and bitwise operations produce the same bits for either
// signedness, so one kernel serves both; only Max and Min reinterpret.

func getF32(x []byte) float64    { return float64(math.Float32frombits(le.Uint32(x))) }
func putF32(x []byte, v float64) { le.PutUint32(x, math.Float32bits(float32(v))) }
func getF64(x []byte) float64    { return math.Float64frombits(le.Uint64(x)) }
func putF64(x []byte, v float64) { le.PutUint64(x, math.Float64bits(v)) }

func get32x4(x []byte) (uint32, uint32, uint32, uint32) {
	_ = x[15]
	return le.Uint32(x), le.Uint32(x[4:]), le.Uint32(x[8:]), le.Uint32(x[12:])
}

func put32x4(x []byte, v0, v1, v2, v3 uint32) {
	_ = x[15]
	le.PutUint32(x, v0)
	le.PutUint32(x[4:], v1)
	le.PutUint32(x[8:], v2)
	le.PutUint32(x[12:], v3)
}

func get64x4(x []byte) (uint64, uint64, uint64, uint64) {
	_ = x[31]
	return le.Uint64(x), le.Uint64(x[8:]), le.Uint64(x[16:]), le.Uint64(x[24:])
}

func put64x4(x []byte, v0, v1, v2, v3 uint64) {
	_ = x[31]
	le.PutUint64(x, v0)
	le.PutUint64(x[8:], v1)
	le.PutUint64(x[16:], v2)
	le.PutUint64(x[24:], v3)
}

func getF32x4(x []byte) (float64, float64, float64, float64) {
	_ = x[15]
	return getF32(x), getF32(x[4:]), getF32(x[8:]), getF32(x[12:])
}

func putF32x4(x []byte, v0, v1, v2, v3 float64) {
	_ = x[15]
	putF32(x, v0)
	putF32(x[4:], v1)
	putF32(x[8:], v2)
	putF32(x[12:], v3)
}

func getF64x4(x []byte) (float64, float64, float64, float64) {
	_ = x[31]
	return getF64(x), getF64(x[8:]), getF64(x[16:]), getF64(x[24:])
}

func putF64x4(x []byte, v0, v1, v2, v3 float64) {
	_ = x[31]
	putF64(x, v0)
	putF64(x[8:], v1)
	putF64(x[16:], v2)
	putF64(x[24:], v3)
}

// MPI_BYTE: one byte is one element, so there is nothing to decode and a
// plain indexed loop is already one load, one operation and one store per
// element.

func sum8(d, s []byte) {
	s = s[:len(d)]
	for i := range d {
		d[i] += s[i]
	}
}

func prod8(d, s []byte) {
	s = s[:len(d)]
	for i := range d {
		d[i] *= s[i]
	}
}

func max8(d, s []byte) {
	s = s[:len(d)]
	for i := range d {
		d[i] = max(d[i], s[i])
	}
}

func min8(d, s []byte) {
	s = s[:len(d)]
	for i := range d {
		d[i] = min(d[i], s[i])
	}
}

func land8(d, s []byte) {
	s = s[:len(d)]
	for i := range d {
		d[i] = land(d[i], s[i])
	}
}

func lor8(d, s []byte) {
	s = s[:len(d)]
	for i := range d {
		d[i] = lor(d[i], s[i])
	}
}

func band8(d, s []byte) {
	s = s[:len(d)]
	for i := range d {
		d[i] &= s[i]
	}
}

func bor8(d, s []byte) {
	s = s[:len(d)]
	for i := range d {
		d[i] |= s[i]
	}
}

// 32-bit integers.

func sum32(d, s []byte) {
	s = s[:len(d)]
	i := 0
	for ; i+16 <= len(d); i += 16 {
		x, y := d[i:i+16:i+16], s[i:i+16:i+16]
		a0, a1, a2, a3 := get32x4(x)
		b0, b1, b2, b3 := get32x4(y)
		put32x4(x, a0+b0, a1+b1, a2+b2, a3+b3)
	}
	for ; i+4 <= len(d); i += 4 {
		x, y := d[i:i+4:i+4], s[i:i+4:i+4]
		le.PutUint32(x, le.Uint32(x)+le.Uint32(y))
	}
}

func prod32(d, s []byte) {
	s = s[:len(d)]
	i := 0
	for ; i+16 <= len(d); i += 16 {
		x, y := d[i:i+16:i+16], s[i:i+16:i+16]
		a0, a1, a2, a3 := get32x4(x)
		b0, b1, b2, b3 := get32x4(y)
		put32x4(x, a0*b0, a1*b1, a2*b2, a3*b3)
	}
	for ; i+4 <= len(d); i += 4 {
		x, y := d[i:i+4:i+4], s[i:i+4:i+4]
		le.PutUint32(x, le.Uint32(x)*le.Uint32(y))
	}
}

func max32[T int32s](d, s []byte) {
	s = s[:len(d)]
	i := 0
	for ; i+16 <= len(d); i += 16 {
		x, y := d[i:i+16:i+16], s[i:i+16:i+16]
		a0, a1, a2, a3 := get32x4(x)
		b0, b1, b2, b3 := get32x4(y)
		put32x4(x, uint32(max(T(a0), T(b0))), uint32(max(T(a1), T(b1))),
			uint32(max(T(a2), T(b2))), uint32(max(T(a3), T(b3))))
	}
	for ; i+4 <= len(d); i += 4 {
		x, y := d[i:i+4:i+4], s[i:i+4:i+4]
		le.PutUint32(x, uint32(max(T(le.Uint32(x)), T(le.Uint32(y)))))
	}
}

func min32[T int32s](d, s []byte) {
	s = s[:len(d)]
	i := 0
	for ; i+16 <= len(d); i += 16 {
		x, y := d[i:i+16:i+16], s[i:i+16:i+16]
		a0, a1, a2, a3 := get32x4(x)
		b0, b1, b2, b3 := get32x4(y)
		put32x4(x, uint32(min(T(a0), T(b0))), uint32(min(T(a1), T(b1))),
			uint32(min(T(a2), T(b2))), uint32(min(T(a3), T(b3))))
	}
	for ; i+4 <= len(d); i += 4 {
		x, y := d[i:i+4:i+4], s[i:i+4:i+4]
		le.PutUint32(x, uint32(min(T(le.Uint32(x)), T(le.Uint32(y)))))
	}
}

func land32(d, s []byte) {
	s = s[:len(d)]
	i := 0
	for ; i+16 <= len(d); i += 16 {
		x, y := d[i:i+16:i+16], s[i:i+16:i+16]
		a0, a1, a2, a3 := get32x4(x)
		b0, b1, b2, b3 := get32x4(y)
		put32x4(x, land(a0, b0), land(a1, b1), land(a2, b2), land(a3, b3))
	}
	for ; i+4 <= len(d); i += 4 {
		x, y := d[i:i+4:i+4], s[i:i+4:i+4]
		le.PutUint32(x, land(le.Uint32(x), le.Uint32(y)))
	}
}

func lor32(d, s []byte) {
	s = s[:len(d)]
	i := 0
	for ; i+16 <= len(d); i += 16 {
		x, y := d[i:i+16:i+16], s[i:i+16:i+16]
		a0, a1, a2, a3 := get32x4(x)
		b0, b1, b2, b3 := get32x4(y)
		put32x4(x, lor(a0, b0), lor(a1, b1), lor(a2, b2), lor(a3, b3))
	}
	for ; i+4 <= len(d); i += 4 {
		x, y := d[i:i+4:i+4], s[i:i+4:i+4]
		le.PutUint32(x, lor(le.Uint32(x), le.Uint32(y)))
	}
}

func band32(d, s []byte) {
	s = s[:len(d)]
	i := 0
	for ; i+16 <= len(d); i += 16 {
		x, y := d[i:i+16:i+16], s[i:i+16:i+16]
		a0, a1, a2, a3 := get32x4(x)
		b0, b1, b2, b3 := get32x4(y)
		put32x4(x, a0&b0, a1&b1, a2&b2, a3&b3)
	}
	for ; i+4 <= len(d); i += 4 {
		x, y := d[i:i+4:i+4], s[i:i+4:i+4]
		le.PutUint32(x, le.Uint32(x)&le.Uint32(y))
	}
}

func bor32(d, s []byte) {
	s = s[:len(d)]
	i := 0
	for ; i+16 <= len(d); i += 16 {
		x, y := d[i:i+16:i+16], s[i:i+16:i+16]
		a0, a1, a2, a3 := get32x4(x)
		b0, b1, b2, b3 := get32x4(y)
		put32x4(x, a0|b0, a1|b1, a2|b2, a3|b3)
	}
	for ; i+4 <= len(d); i += 4 {
		x, y := d[i:i+4:i+4], s[i:i+4:i+4]
		le.PutUint32(x, le.Uint32(x)|le.Uint32(y))
	}
}

// 64-bit integers.

func sum64(d, s []byte) {
	s = s[:len(d)]
	i := 0
	for ; i+32 <= len(d); i += 32 {
		x, y := d[i:i+32:i+32], s[i:i+32:i+32]
		a0, a1, a2, a3 := get64x4(x)
		b0, b1, b2, b3 := get64x4(y)
		put64x4(x, a0+b0, a1+b1, a2+b2, a3+b3)
	}
	for ; i+8 <= len(d); i += 8 {
		x, y := d[i:i+8:i+8], s[i:i+8:i+8]
		le.PutUint64(x, le.Uint64(x)+le.Uint64(y))
	}
}

func prod64(d, s []byte) {
	s = s[:len(d)]
	i := 0
	for ; i+32 <= len(d); i += 32 {
		x, y := d[i:i+32:i+32], s[i:i+32:i+32]
		a0, a1, a2, a3 := get64x4(x)
		b0, b1, b2, b3 := get64x4(y)
		put64x4(x, a0*b0, a1*b1, a2*b2, a3*b3)
	}
	for ; i+8 <= len(d); i += 8 {
		x, y := d[i:i+8:i+8], s[i:i+8:i+8]
		le.PutUint64(x, le.Uint64(x)*le.Uint64(y))
	}
}

func max64[T int64s](d, s []byte) {
	s = s[:len(d)]
	i := 0
	for ; i+32 <= len(d); i += 32 {
		x, y := d[i:i+32:i+32], s[i:i+32:i+32]
		a0, a1, a2, a3 := get64x4(x)
		b0, b1, b2, b3 := get64x4(y)
		put64x4(x, uint64(max(T(a0), T(b0))), uint64(max(T(a1), T(b1))),
			uint64(max(T(a2), T(b2))), uint64(max(T(a3), T(b3))))
	}
	for ; i+8 <= len(d); i += 8 {
		x, y := d[i:i+8:i+8], s[i:i+8:i+8]
		le.PutUint64(x, uint64(max(T(le.Uint64(x)), T(le.Uint64(y)))))
	}
}

func min64[T int64s](d, s []byte) {
	s = s[:len(d)]
	i := 0
	for ; i+32 <= len(d); i += 32 {
		x, y := d[i:i+32:i+32], s[i:i+32:i+32]
		a0, a1, a2, a3 := get64x4(x)
		b0, b1, b2, b3 := get64x4(y)
		put64x4(x, uint64(min(T(a0), T(b0))), uint64(min(T(a1), T(b1))),
			uint64(min(T(a2), T(b2))), uint64(min(T(a3), T(b3))))
	}
	for ; i+8 <= len(d); i += 8 {
		x, y := d[i:i+8:i+8], s[i:i+8:i+8]
		le.PutUint64(x, uint64(min(T(le.Uint64(x)), T(le.Uint64(y)))))
	}
}

func land64(d, s []byte) {
	s = s[:len(d)]
	i := 0
	for ; i+32 <= len(d); i += 32 {
		x, y := d[i:i+32:i+32], s[i:i+32:i+32]
		a0, a1, a2, a3 := get64x4(x)
		b0, b1, b2, b3 := get64x4(y)
		put64x4(x, land(a0, b0), land(a1, b1), land(a2, b2), land(a3, b3))
	}
	for ; i+8 <= len(d); i += 8 {
		x, y := d[i:i+8:i+8], s[i:i+8:i+8]
		le.PutUint64(x, land(le.Uint64(x), le.Uint64(y)))
	}
}

func lor64(d, s []byte) {
	s = s[:len(d)]
	i := 0
	for ; i+32 <= len(d); i += 32 {
		x, y := d[i:i+32:i+32], s[i:i+32:i+32]
		a0, a1, a2, a3 := get64x4(x)
		b0, b1, b2, b3 := get64x4(y)
		put64x4(x, lor(a0, b0), lor(a1, b1), lor(a2, b2), lor(a3, b3))
	}
	for ; i+8 <= len(d); i += 8 {
		x, y := d[i:i+8:i+8], s[i:i+8:i+8]
		le.PutUint64(x, lor(le.Uint64(x), le.Uint64(y)))
	}
}

func band64(d, s []byte) {
	s = s[:len(d)]
	i := 0
	for ; i+32 <= len(d); i += 32 {
		x, y := d[i:i+32:i+32], s[i:i+32:i+32]
		a0, a1, a2, a3 := get64x4(x)
		b0, b1, b2, b3 := get64x4(y)
		put64x4(x, a0&b0, a1&b1, a2&b2, a3&b3)
	}
	for ; i+8 <= len(d); i += 8 {
		x, y := d[i:i+8:i+8], s[i:i+8:i+8]
		le.PutUint64(x, le.Uint64(x)&le.Uint64(y))
	}
}

func bor64(d, s []byte) {
	s = s[:len(d)]
	i := 0
	for ; i+32 <= len(d); i += 32 {
		x, y := d[i:i+32:i+32], s[i:i+32:i+32]
		a0, a1, a2, a3 := get64x4(x)
		b0, b1, b2, b3 := get64x4(y)
		put64x4(x, a0|b0, a1|b1, a2|b2, a3|b3)
	}
	for ; i+8 <= len(d); i += 8 {
		x, y := d[i:i+8:i+8], s[i:i+8:i+8]
		le.PutUint64(x, le.Uint64(x)|le.Uint64(y))
	}
}

// float32, combined in float64. Max and Min are math.Max / math.Min, NaN,
// infinities and signed zeros included; the bitwise operations are
// undefined on floating-point data and have no kernel.

func sumF32(d, s []byte) {
	s = s[:len(d)]
	i := 0
	for ; i+16 <= len(d); i += 16 {
		x, y := d[i:i+16:i+16], s[i:i+16:i+16]
		a0, a1, a2, a3 := getF32x4(x)
		b0, b1, b2, b3 := getF32x4(y)
		putF32x4(x, a0+b0, a1+b1, a2+b2, a3+b3)
	}
	for ; i+4 <= len(d); i += 4 {
		x, y := d[i:i+4:i+4], s[i:i+4:i+4]
		putF32(x, getF32(x)+getF32(y))
	}
}

func prodF32(d, s []byte) {
	s = s[:len(d)]
	i := 0
	for ; i+16 <= len(d); i += 16 {
		x, y := d[i:i+16:i+16], s[i:i+16:i+16]
		a0, a1, a2, a3 := getF32x4(x)
		b0, b1, b2, b3 := getF32x4(y)
		putF32x4(x, a0*b0, a1*b1, a2*b2, a3*b3)
	}
	for ; i+4 <= len(d); i += 4 {
		x, y := d[i:i+4:i+4], s[i:i+4:i+4]
		putF32(x, getF32(x)*getF32(y))
	}
}

func maxF32(d, s []byte) {
	s = s[:len(d)]
	i := 0
	for ; i+16 <= len(d); i += 16 {
		x, y := d[i:i+16:i+16], s[i:i+16:i+16]
		a0, a1, a2, a3 := getF32x4(x)
		b0, b1, b2, b3 := getF32x4(y)
		putF32x4(x, math.Max(a0, b0), math.Max(a1, b1), math.Max(a2, b2), math.Max(a3, b3))
	}
	for ; i+4 <= len(d); i += 4 {
		x, y := d[i:i+4:i+4], s[i:i+4:i+4]
		putF32(x, math.Max(getF32(x), getF32(y)))
	}
}

func minF32(d, s []byte) {
	s = s[:len(d)]
	i := 0
	for ; i+16 <= len(d); i += 16 {
		x, y := d[i:i+16:i+16], s[i:i+16:i+16]
		a0, a1, a2, a3 := getF32x4(x)
		b0, b1, b2, b3 := getF32x4(y)
		putF32x4(x, math.Min(a0, b0), math.Min(a1, b1), math.Min(a2, b2), math.Min(a3, b3))
	}
	for ; i+4 <= len(d); i += 4 {
		x, y := d[i:i+4:i+4], s[i:i+4:i+4]
		putF32(x, math.Min(getF32(x), getF32(y)))
	}
}

func landF32(d, s []byte) {
	s = s[:len(d)]
	i := 0
	for ; i+16 <= len(d); i += 16 {
		x, y := d[i:i+16:i+16], s[i:i+16:i+16]
		a0, a1, a2, a3 := getF32x4(x)
		b0, b1, b2, b3 := getF32x4(y)
		putF32x4(x, land(a0, b0), land(a1, b1), land(a2, b2), land(a3, b3))
	}
	for ; i+4 <= len(d); i += 4 {
		x, y := d[i:i+4:i+4], s[i:i+4:i+4]
		putF32(x, land(getF32(x), getF32(y)))
	}
}

func lorF32(d, s []byte) {
	s = s[:len(d)]
	i := 0
	for ; i+16 <= len(d); i += 16 {
		x, y := d[i:i+16:i+16], s[i:i+16:i+16]
		a0, a1, a2, a3 := getF32x4(x)
		b0, b1, b2, b3 := getF32x4(y)
		putF32x4(x, lor(a0, b0), lor(a1, b1), lor(a2, b2), lor(a3, b3))
	}
	for ; i+4 <= len(d); i += 4 {
		x, y := d[i:i+4:i+4], s[i:i+4:i+4]
		putF32(x, lor(getF32(x), getF32(y)))
	}
}

// float64.

func sumF64(d, s []byte) {
	s = s[:len(d)]
	i := 0
	for ; i+32 <= len(d); i += 32 {
		x, y := d[i:i+32:i+32], s[i:i+32:i+32]
		a0, a1, a2, a3 := getF64x4(x)
		b0, b1, b2, b3 := getF64x4(y)
		putF64x4(x, a0+b0, a1+b1, a2+b2, a3+b3)
	}
	for ; i+8 <= len(d); i += 8 {
		x, y := d[i:i+8:i+8], s[i:i+8:i+8]
		putF64(x, getF64(x)+getF64(y))
	}
}

func prodF64(d, s []byte) {
	s = s[:len(d)]
	i := 0
	for ; i+32 <= len(d); i += 32 {
		x, y := d[i:i+32:i+32], s[i:i+32:i+32]
		a0, a1, a2, a3 := getF64x4(x)
		b0, b1, b2, b3 := getF64x4(y)
		putF64x4(x, a0*b0, a1*b1, a2*b2, a3*b3)
	}
	for ; i+8 <= len(d); i += 8 {
		x, y := d[i:i+8:i+8], s[i:i+8:i+8]
		putF64(x, getF64(x)*getF64(y))
	}
}

func maxF64(d, s []byte) {
	s = s[:len(d)]
	i := 0
	for ; i+32 <= len(d); i += 32 {
		x, y := d[i:i+32:i+32], s[i:i+32:i+32]
		a0, a1, a2, a3 := getF64x4(x)
		b0, b1, b2, b3 := getF64x4(y)
		putF64x4(x, math.Max(a0, b0), math.Max(a1, b1), math.Max(a2, b2), math.Max(a3, b3))
	}
	for ; i+8 <= len(d); i += 8 {
		x, y := d[i:i+8:i+8], s[i:i+8:i+8]
		putF64(x, math.Max(getF64(x), getF64(y)))
	}
}

func minF64(d, s []byte) {
	s = s[:len(d)]
	i := 0
	for ; i+32 <= len(d); i += 32 {
		x, y := d[i:i+32:i+32], s[i:i+32:i+32]
		a0, a1, a2, a3 := getF64x4(x)
		b0, b1, b2, b3 := getF64x4(y)
		putF64x4(x, math.Min(a0, b0), math.Min(a1, b1), math.Min(a2, b2), math.Min(a3, b3))
	}
	for ; i+8 <= len(d); i += 8 {
		x, y := d[i:i+8:i+8], s[i:i+8:i+8]
		putF64(x, math.Min(getF64(x), getF64(y)))
	}
}

func landF64(d, s []byte) {
	s = s[:len(d)]
	i := 0
	for ; i+32 <= len(d); i += 32 {
		x, y := d[i:i+32:i+32], s[i:i+32:i+32]
		a0, a1, a2, a3 := getF64x4(x)
		b0, b1, b2, b3 := getF64x4(y)
		putF64x4(x, land(a0, b0), land(a1, b1), land(a2, b2), land(a3, b3))
	}
	for ; i+8 <= len(d); i += 8 {
		x, y := d[i:i+8:i+8], s[i:i+8:i+8]
		putF64(x, land(getF64(x), getF64(y)))
	}
}

func lorF64(d, s []byte) {
	s = s[:len(d)]
	i := 0
	for ; i+32 <= len(d); i += 32 {
		x, y := d[i:i+32:i+32], s[i:i+32:i+32]
		a0, a1, a2, a3 := getF64x4(x)
		b0, b1, b2, b3 := getF64x4(y)
		putF64x4(x, lor(a0, b0), lor(a1, b1), lor(a2, b2), lor(a3, b3))
	}
	for ; i+8 <= len(d); i += 8 {
		x, y := d[i:i+8:i+8], s[i:i+8:i+8]
		putF64(x, lor(getF64(x), getF64(y)))
	}
}

// kernels is the [datatype][operation] table. A nil entry is an operation
// MPI leaves undefined on that datatype (bitwise on floating point).
var kernels = [numKinds][numOps]kernel{
	dtByte: {OpSum: sum8, OpProd: prod8, OpMax: max8, OpMin: min8,
		OpLAnd: land8, OpLOr: lor8, OpBAnd: band8, OpBOr: bor8},
	dtInt32: {OpSum: sum32, OpProd: prod32, OpMax: max32[int32], OpMin: min32[int32],
		OpLAnd: land32, OpLOr: lor32, OpBAnd: band32, OpBOr: bor32},
	dtInt64: {OpSum: sum64, OpProd: prod64, OpMax: max64[int64], OpMin: min64[int64],
		OpLAnd: land64, OpLOr: lor64, OpBAnd: band64, OpBOr: bor64},
	dtUint32: {OpSum: sum32, OpProd: prod32, OpMax: max32[uint32], OpMin: min32[uint32],
		OpLAnd: land32, OpLOr: lor32, OpBAnd: band32, OpBOr: bor32},
	dtUint64: {OpSum: sum64, OpProd: prod64, OpMax: max64[uint64], OpMin: min64[uint64],
		OpLAnd: land64, OpLOr: lor64, OpBAnd: band64, OpBOr: bor64},
	dtFloat32: {OpSum: sumF32, OpProd: prodF32, OpMax: maxF32, OpMin: minF32, OpLAnd: landF32, OpLOr: lorF32},
	dtFloat64: {OpSum: sumF64, OpProd: prodF64, OpMax: maxF64, OpMin: minF64, OpLAnd: landF64, OpLOr: lorF64},
}

// reducers holds every kernel bound into the collective framework's
// combiner shape, built once at start-up so that resolving a reduction is
// two index operations and allocates no closure per call.
var reducers = func() (t [numKinds][numOps]coll.ReduceFunc) {
	predefined := [numKinds]Datatype{Byte, Int32, Int64, Uint32, Uint64, Float32, Float64}
	for kind, dt := range predefined {
		for op, k := range kernels[kind] {
			t[kind][op] = bindKernel(dt, Op(op), k)
		}
	}
	return t
}()

// bindKernel wraps a kernel with the argument checks every caller shares.
func bindKernel(dt Datatype, op Op, k kernel) coll.ReduceFunc {
	return func(inout, in []byte, count int) error {
		n := count * dt.size
		if count < 0 || len(inout) < n || len(in) < n {
			return fmt.Errorf("mpi: reduce buffer too small for %d x %s", count, dt)
		}
		if count == 0 {
			return nil
		}
		if k == nil {
			return fmt.Errorf("mpi: bitwise %s undefined on floating-point data", op)
		}
		k(inout[:n], in[:n])
		return nil
	}
}

var errUnknownOp = errors.New("mpi: reduce: not a predefined operation")

func unknownOp([]byte, []byte, int) error { return errUnknownOp }

// builtinReducer resolves a predefined operation on a predefined datatype
// to its kernel, in the framework's element-wise combiner shape:
// inout = op(inout, in).
func builtinReducer(op Op, dt Datatype) coll.ReduceFunc {
	if op < 0 || op >= numOps {
		return unknownOp
	}
	return reducers[dt.kind][op]
}

// reduce applies inout[i] = op(inout[i], in[i]) element-wise for count
// elements of datatype dt.
func reduce(op Op, dt Datatype, inout, in []byte, count int) error {
	return builtinReducer(op, dt)(inout, in, count)
}
