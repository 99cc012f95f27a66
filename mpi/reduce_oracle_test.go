package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// reduceOracle is the element-at-a-time reduction the typed kernels in
// reduce_kernels.go replaced — a switch on the operation per element. It
// stays as the independent definition the kernels are checked against.
func reduceOracle(op Op, dt Datatype, inout, in []byte, count int) error {
	if len(inout) < count*dt.size || len(in) < count*dt.size {
		return fmt.Errorf("mpi: reduce buffer too small for %d x %s", count, dt)
	}
	switch dt.kind {
	case dtByte:
		for i := 0; i < count; i++ {
			inout[i] = byte(reduceU64(op, uint64(inout[i]), uint64(in[i])))
		}
	case dtInt32:
		for i := 0; i < count; i++ {
			a := int32(binary.LittleEndian.Uint32(inout[i*4:]))
			b := int32(binary.LittleEndian.Uint32(in[i*4:]))
			binary.LittleEndian.PutUint32(inout[i*4:], uint32(reduceI64(op, int64(a), int64(b))))
		}
	case dtInt64:
		for i := 0; i < count; i++ {
			a := int64(binary.LittleEndian.Uint64(inout[i*8:]))
			b := int64(binary.LittleEndian.Uint64(in[i*8:]))
			binary.LittleEndian.PutUint64(inout[i*8:], uint64(reduceI64(op, a, b)))
		}
	case dtUint32:
		for i := 0; i < count; i++ {
			a := binary.LittleEndian.Uint32(inout[i*4:])
			b := binary.LittleEndian.Uint32(in[i*4:])
			binary.LittleEndian.PutUint32(inout[i*4:], uint32(reduceU64(op, uint64(a), uint64(b))))
		}
	case dtUint64:
		for i := 0; i < count; i++ {
			a := binary.LittleEndian.Uint64(inout[i*8:])
			b := binary.LittleEndian.Uint64(in[i*8:])
			binary.LittleEndian.PutUint64(inout[i*8:], reduceU64(op, a, b))
		}
	case dtFloat32:
		for i := 0; i < count; i++ {
			a := math.Float32frombits(binary.LittleEndian.Uint32(inout[i*4:]))
			b := math.Float32frombits(binary.LittleEndian.Uint32(in[i*4:]))
			v, err := reduceF64(op, float64(a), float64(b))
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint32(inout[i*4:], math.Float32bits(float32(v)))
		}
	case dtFloat64:
		for i := 0; i < count; i++ {
			a := math.Float64frombits(binary.LittleEndian.Uint64(inout[i*8:]))
			b := math.Float64frombits(binary.LittleEndian.Uint64(in[i*8:]))
			v, err := reduceF64(op, a, b)
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint64(inout[i*8:], math.Float64bits(v))
		}
	default:
		return fmt.Errorf("mpi: reduce: unsupported datatype %s", dt)
	}
	return nil
}

func reduceI64(op Op, a, b int64) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpProd:
		return a * b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	case OpLAnd:
		if a != 0 && b != 0 {
			return 1
		}
		return 0
	case OpLOr:
		if a != 0 || b != 0 {
			return 1
		}
		return 0
	case OpBAnd:
		return a & b
	case OpBOr:
		return a | b
	}
	return a
}

func reduceU64(op Op, a, b uint64) uint64 {
	switch op {
	case OpSum:
		return a + b
	case OpProd:
		return a * b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	case OpLAnd:
		if a != 0 && b != 0 {
			return 1
		}
		return 0
	case OpLOr:
		if a != 0 || b != 0 {
			return 1
		}
		return 0
	case OpBAnd:
		return a & b
	case OpBOr:
		return a | b
	}
	return a
}

func reduceF64(op Op, a, b float64) (float64, error) {
	switch op {
	case OpSum:
		return a + b, nil
	case OpProd:
		return a * b, nil
	case OpMax:
		return math.Max(a, b), nil
	case OpMin:
		return math.Min(a, b), nil
	case OpBAnd, OpBOr:
		return 0, fmt.Errorf("mpi: bitwise %s undefined on floating-point data", op)
	case OpLAnd:
		if a != 0 && b != 0 {
			return 1, nil
		}
		return 0, nil
	case OpLOr:
		if a != 0 || b != 0 {
			return 1, nil
		}
		return 0, nil
	}
	return a, nil
}
