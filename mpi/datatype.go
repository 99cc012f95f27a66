package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Datatype describes the element type of a message buffer, in the spirit of
// MPI predefined datatypes. Buffers are always []byte on the wire; the
// datatype gives reductions and typed helpers their interpretation.
type Datatype struct {
	kind dtKind
	size int
	name string
}

type dtKind int

const (
	dtByte dtKind = iota
	dtInt32
	dtInt64
	dtUint32
	dtUint64
	dtFloat32
	dtFloat64
	numKinds
)

// Predefined datatypes.
var (
	Byte    = Datatype{dtByte, 1, "MPI_BYTE"}
	Int32   = Datatype{dtInt32, 4, "MPI_INT32_T"}
	Int64   = Datatype{dtInt64, 8, "MPI_INT64_T"}
	Uint32  = Datatype{dtUint32, 4, "MPI_UINT32_T"}
	Uint64  = Datatype{dtUint64, 8, "MPI_UINT64_T"}
	Float32 = Datatype{dtFloat32, 4, "MPI_FLOAT"}
	Float64 = Datatype{dtFloat64, 8, "MPI_DOUBLE"}
)

// Size returns the datatype's extent in bytes.
func (d Datatype) Size() int { return d.size }

// String returns the MPI-style name.
func (d Datatype) String() string { return d.name }

// Op is a reduction operation.
type Op int

// Predefined reduction operations.
const (
	OpSum Op = iota
	OpProd
	OpMax
	OpMin
	OpLAnd
	OpLOr
	OpBAnd
	OpBOr
	numOps
)

func (o Op) String() string {
	switch o {
	case OpSum:
		return "MPI_SUM"
	case OpProd:
		return "MPI_PROD"
	case OpMax:
		return "MPI_MAX"
	case OpMin:
		return "MPI_MIN"
	case OpLAnd:
		return "MPI_LAND"
	case OpLOr:
		return "MPI_LOR"
	case OpBAnd:
		return "MPI_BAND"
	case OpBOr:
		return "MPI_BOR"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Typed buffer helpers: MPI applications in this library express payloads
// as []byte; these pack and unpack common Go slices.

// PackFloat64s encodes a float64 slice little-endian.
func PackFloat64s(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(x))
	}
	return out
}

// UnpackFloat64s decodes a little-endian float64 buffer.
func UnpackFloat64s(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// PackInt64s encodes an int64 slice little-endian.
func PackInt64s(v []int64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[i*8:], uint64(x))
	}
	return out
}

// UnpackInt64s decodes a little-endian int64 buffer.
func UnpackInt64s(b []byte) []int64 {
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// PackInt32s encodes an int32 slice little-endian.
func PackInt32s(v []int32) []byte {
	out := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[i*4:], uint32(x))
	}
	return out
}

// UnpackInt32s decodes a little-endian int32 buffer.
func UnpackInt32s(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

// PackFloat32s encodes a float32 slice little-endian.
func PackFloat32s(v []float32) []byte {
	out := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(x))
	}
	return out
}

// UnpackFloat32s decodes a little-endian float32 buffer.
func UnpackFloat32s(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

// PackUint32s encodes a uint32 slice little-endian.
func PackUint32s(v []uint32) []byte {
	out := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[i*4:], x)
	}
	return out
}

// UnpackUint32s decodes a little-endian uint32 buffer.
func UnpackUint32s(b []byte) []uint32 {
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out
}
