package opal

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// The control-plane codec: every runtime message that crosses a byte
// boundary — a PMIx collective's node blob and modex set, a PMIx event, a
// boot-stream frame between the launcher and a child process — is packed and
// unpacked here, the role Open MPI's DSS (and PMIx's bfrops) play. One fixed
// format, no type descriptors, no reflection:
//
//   - unsigned integers are uvarints; signed ones are zigzag varints;
//   - a bool is one byte, 0 or 1;
//   - bytes and strings are a uvarint length and the raw bytes;
//   - an []int is a uvarint count and that many varints;
//   - a map is a uvarint count and its entries in ascending key order, so
//     equal values encode to equal bytes.
//
// Decoding is strict, because the boot server decodes what another OS
// process sent: a varint must be minimal, a bool 0 or 1, map keys strictly
// ascending, and every count or length is checked against the bytes left
// before anything is allocated (every encoded value takes at least one byte).
// Truncation and trailing bytes are errors. An accepted message therefore
// has exactly one encoding, and the decoder never panics.

// ErrMalformed is wrapped by every decode error.
var ErrMalformed = errors.New("opal: malformed control-plane message")

var (
	errTruncated = fmt.Errorf("%w: truncated", ErrMalformed)
	errVarint    = fmt.Errorf("%w: overlong or overflowing varint", ErrMalformed)
	errBool      = fmt.Errorf("%w: bool is neither 0 nor 1", ErrMalformed)
	errCount     = fmt.Errorf("%w: count exceeds the bytes left", ErrMalformed)
	errKeyOrder  = fmt.Errorf("%w: map keys not strictly ascending", ErrMalformed)
	errRange     = fmt.Errorf("%w: integer out of range", ErrMalformed)
	errTrailing  = fmt.Errorf("%w: trailing bytes", ErrMalformed)
	errFrameSize = fmt.Errorf("%w: frame exceeds the size limit", ErrMalformed)
)

// Encoder appends values to a byte slice.
type Encoder struct{ buf []byte }

// Uint appends v as a uvarint.
func (e *Encoder) Uint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Int64 appends v as a zigzag varint.
func (e *Encoder) Int64(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Int appends v as a zigzag varint.
func (e *Encoder) Int(v int) { e.Int64(int64(v)) }

// Bool appends v as one byte.
func (e *Encoder) Bool(v bool) {
	var b byte
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

// Bytes appends v's length and contents.
func (e *Encoder) Bytes(v []byte) {
	e.Uint(uint64(len(v)))
	e.buf = append(e.buf, v...)
}

// Str appends v's length and contents.
func (e *Encoder) Str(v string) {
	e.Uint(uint64(len(v)))
	e.buf = append(e.buf, v...)
}

// Ints appends v's count and elements.
func (e *Encoder) Ints(v []int) {
	e.Uint(uint64(len(v)))
	for _, x := range v {
		e.Int(x)
	}
}

// EncodeMap appends m's size and its entries in ascending key order.
func EncodeMap[K cmp.Ordered, V any](e *Encoder, m map[K]V, key func(*Encoder, K), val func(*Encoder, V)) {
	e.Uint(uint64(len(m)))
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		key(e, k)
		val(e, m[k])
	}
}

// Decoder reads values from a byte slice. The first error sticks: later
// reads return zero values, and Finish reports it. A []byte it returns
// aliases the input; a string is a copy.
type Decoder struct {
	buf []byte
	err error
}

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.buf = nil
}

// Uint reads a uvarint.
func (d *Decoder) Uint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		if n == 0 {
			d.fail(errTruncated)
		} else {
			d.fail(errVarint)
		}
		return 0
	}
	if n > 1 && d.buf[n-1] == 0 {
		d.fail(errVarint)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Int64 reads a zigzag varint.
func (d *Decoder) Int64() int64 {
	u := d.Uint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads a zigzag varint that fits an int.
func (d *Decoder) Int() int {
	v := d.Int64()
	if v < math.MinInt || v > math.MaxInt {
		d.fail(errRange)
		return 0
	}
	return int(v)
}

// Bool reads one byte, which must be 0 or 1.
func (d *Decoder) Bool() bool {
	if len(d.buf) == 0 {
		d.fail(errTruncated)
		return false
	}
	b := d.buf[0]
	if b > 1 {
		d.fail(errBool)
		return false
	}
	d.buf = d.buf[1:]
	return b == 1
}

// count reads an element count and checks that count elements of at least
// minSize bytes each fit in what is left, before the caller allocates.
func (d *Decoder) count(minSize int) int {
	n := d.Uint()
	if n > uint64(len(d.buf)/minSize) {
		d.fail(errCount)
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string; empty reads as nil. The result
// aliases the input.
func (d *Decoder) Bytes() []byte {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	v := d.buf[:n:n]
	d.buf = d.buf[n:]
	return v
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string { return string(d.Bytes()) }

// Ints reads a counted []int; empty reads as nil.
func (d *Decoder) Ints() []int {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	v := make([]int, n)
	for i := range v {
		v[i] = d.Int()
	}
	if d.err != nil {
		return nil
	}
	return v
}

// DecodeMap reads a map written by EncodeMap; empty reads as nil.
func DecodeMap[K cmp.Ordered, V any](d *Decoder, key func(*Decoder) K, val func(*Decoder) V) map[K]V {
	n := d.count(2) // a key and a value take a byte each at least
	if n == 0 {
		return nil
	}
	m := make(map[K]V, n)
	var prev K
	for i := 0; i < n; i++ {
		k := key(d)
		if i > 0 && k <= prev {
			d.fail(errKeyOrder)
		}
		v := val(d)
		if d.err != nil {
			return nil
		}
		m[k], prev = v, k
	}
	return m
}

// Finish reports the first decode error, or an error if bytes are left over.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.buf) > 0 {
		d.fail(errTrailing)
	}
	return d.err
}

// Codec packs and unpacks one message kind.
type Codec[T any] struct {
	Pack   func(*Encoder, T)
	Unpack func(*Decoder) T
}

// Encode returns v's encoding.
func (c Codec[T]) Encode(v T) []byte {
	var e Encoder
	c.Pack(&e, v)
	return e.buf
}

// Decode unpacks exactly one message from data; the result may alias data.
func (c Codec[T]) Decode(data []byte) (T, error) {
	d := Decoder{buf: data}
	v := c.Unpack(&d)
	if err := d.Finish(); err != nil {
		var zero T
		return zero, err
	}
	return v, nil
}

// AppendFrame appends v as one stream frame: its encoded length as a
// uvarint, then the encoding.
func (c Codec[T]) AppendFrame(dst []byte, v T) []byte {
	body := c.Encode(v)
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...)
}

// ReadFrame reads one frame written by AppendFrame and decodes it. A frame
// longer than limit bytes is rejected before its body is read. Any error
// leaves the stream unusable.
func (c Codec[T]) ReadFrame(r *bufio.Reader, limit int) (T, error) {
	var zero T
	n, err := readUvarint(r)
	if err != nil {
		return zero, err
	}
	if n > uint64(limit) {
		return zero, errFrameSize
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return zero, err
	}
	return c.Decode(body)
}

// readUvarint reads a minimal uvarint from a stream. A clean EOF before the
// first byte is returned as io.EOF; EOF inside the varint is
// io.ErrUnexpectedEOF.
func readUvarint(r io.ByteReader) (uint64, error) {
	var v uint64
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := r.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		if b < 0x80 {
			if (i > 0 && b == 0) || (i == binary.MaxVarintLen64-1 && b > 1) {
				return 0, errVarint
			}
			return v | uint64(b)<<(7*i), nil
		}
		v |= uint64(b&0x7f) << (7 * i)
	}
	return 0, errVarint
}
