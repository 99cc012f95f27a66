package opal

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// sample is a message with one field of every primitive the codec has.
type sample struct {
	U  uint64
	I  int
	I6 int64
	B  bool
	Bs []byte
	S  string
	Is []int
	M  map[string][]byte
	N  map[int][]int
}

var sampleCodec = Codec[sample]{
	Pack: func(e *Encoder, v sample) {
		e.Uint(v.U)
		e.Int(v.I)
		e.Int64(v.I6)
		e.Bool(v.B)
		e.Bytes(v.Bs)
		e.Str(v.S)
		e.Ints(v.Is)
		EncodeMap(e, v.M, (*Encoder).Str, (*Encoder).Bytes)
		EncodeMap(e, v.N, (*Encoder).Int, (*Encoder).Ints)
	},
	Unpack: func(d *Decoder) sample {
		return sample{
			U:  d.Uint(),
			I:  d.Int(),
			I6: d.Int64(),
			B:  d.Bool(),
			Bs: d.Bytes(),
			S:  d.Str(),
			Is: d.Ints(),
			M:  DecodeMap(d, (*Decoder).Str, (*Decoder).Bytes),
			N:  DecodeMap(d, (*Decoder).Int, (*Decoder).Ints),
		}
	},
}

func TestCodecPrimitivesRoundTrip(t *testing.T) {
	for _, v := range []sample{
		{},
		{U: math.MaxUint64, I: math.MinInt, I6: math.MaxInt64, B: true},
		{I: -1, Bs: []byte{0}, S: "x", Is: []int{0, -1, 1023, math.MaxInt}},
		{M: map[string][]byte{"": {1}, "a": nil, "b": bytes.Repeat([]byte{7}, 1<<16)}, N: map[int][]int{-5: {1}, 0: nil, 1023: {2, 3}}},
	} {
		data := sampleCodec.Encode(v)
		got, err := sampleCodec.Decode(data)
		if err != nil {
			t.Fatalf("decode %+v: %v", v, err)
		}
		// Empty values decode as nil; the inputs above use nil or non-empty
		// everywhere except map values, which compare by content.
		if got.U != v.U || got.I != v.I || got.I6 != v.I6 || got.B != v.B || !bytes.Equal(got.Bs, v.Bs) ||
			got.S != v.S || !reflect.DeepEqual(got.Is, v.Is) || len(got.M) != len(v.M) || len(got.N) != len(v.N) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, v)
		}
		for k, b := range v.M {
			if !bytes.Equal(got.M[k], b) {
				t.Fatalf("M[%q] = %x, want %x", k, got.M[k], b)
			}
		}
		for k, is := range v.N {
			if !reflect.DeepEqual(got.N[k], is) {
				t.Fatalf("N[%d] = %v, want %v", k, got.N[k], is)
			}
		}
		if again := sampleCodec.Encode(got); !bytes.Equal(again, data) {
			t.Fatalf("re-encode differs:\n got %x\nwant %x", again, data)
		}
	}
}

func TestCodecMapsEncodeInKeyOrder(t *testing.T) {
	m := map[string][]byte{"c": {3}, "a": {1}, "b": {2}}
	want := sampleCodec.Encode(sample{M: m})
	for i := 0; i < 20; i++ {
		if got := sampleCodec.Encode(sample{M: map[string][]byte{"b": {2}, "c": {3}, "a": {1}}}); !bytes.Equal(got, want) {
			t.Fatalf("equal maps encoded differently:\n%x\n%x", got, want)
		}
	}
}

// TestCodecRejectsNonCanonical feeds the decoder inputs that a lenient
// parser would accept: each must fail with ErrMalformed, so an accepted
// message has exactly one encoding.
func TestCodecRejectsNonCanonical(t *testing.T) {
	var e Encoder
	e.Uint(5)
	five := e.buf
	for _, tc := range []struct {
		name string
		data []byte
		read func(*Decoder)
	}{
		{"empty", nil, func(d *Decoder) { d.Uint() }},
		{"overlong varint", []byte{0x85, 0x00}, func(d *Decoder) { d.Uint() }},
		{"overflowing varint", bytes.Repeat([]byte{0xff}, 11), func(d *Decoder) { d.Uint() }},
		{"bool 2", []byte{2}, func(d *Decoder) { d.Bool() }},
		{"bytes past end", []byte{3, 'a', 'b'}, func(d *Decoder) { d.Bytes() }},
		{"ints past end", []byte{3, 0, 0}, func(d *Decoder) { d.Ints() }},
		{"trailing", append(five, 0), func(d *Decoder) { d.Uint() }},
		{"keys descending", []byte{2, 1, 'b', 0, 1, 'a', 0}, func(d *Decoder) { DecodeMap(d, (*Decoder).Str, (*Decoder).Bytes) }},
		{"duplicate key", []byte{2, 1, 'a', 0, 1, 'a', 0}, func(d *Decoder) { DecodeMap(d, (*Decoder).Str, (*Decoder).Bytes) }},
		{"map count past end", []byte{2, 1, 'a', 0}, func(d *Decoder) { DecodeMap(d, (*Decoder).Str, (*Decoder).Bytes) }},
	} {
		d := Decoder{buf: tc.data}
		tc.read(&d)
		if err := d.Finish(); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: %x decoded with err %v, want ErrMalformed", tc.name, tc.data, err)
		}
	}
}

// TestCodecFirstErrorSticks: once a read fails, later reads return zero
// values and Finish reports the first failure, not a later one.
func TestCodecFirstErrorSticks(t *testing.T) {
	d := Decoder{buf: []byte{2, 0}}
	if d.Bool(); d.err == nil {
		t.Fatal("bool 2 accepted")
	}
	if v := d.Uint(); v != 0 {
		t.Fatalf("read after error = %d", v)
	}
	if err := d.Finish(); err != errBool {
		t.Fatalf("Finish = %v, want %v", err, errBool)
	}
}

// TestCodecCountRejectedBeforeAllocation: a count claiming more elements
// than there are bytes left fails without allocating for them.
func TestCodecCountRejectedBeforeAllocation(t *testing.T) {
	huge := []byte{0x80, 0x80, 0x40, 1, 2, 3} // count 1<<20, three bytes left
	for name, read := range map[string]func(*Decoder){
		"ints":  func(d *Decoder) { d.Ints() },
		"bytes": func(d *Decoder) { d.Bytes() },
	} {
		allocs := testing.AllocsPerRun(100, func() {
			d := Decoder{buf: huge}
			read(&d)
			if d.err != errCount {
				t.Fatalf("%s: err = %v, want %v", name, d.err, errCount)
			}
		})
		if allocs > 1 { // the Decoder itself may escape through read
			t.Errorf("%s: %v allocations rejecting an oversized count", name, allocs)
		}
	}
}

func TestFrameRoundTripAndLimits(t *testing.T) {
	var stream []byte
	msgs := []sample{{U: 1}, {S: strings.Repeat("x", 300)}, {}}
	for _, m := range msgs {
		stream = sampleCodec.AppendFrame(stream, m)
	}
	r := bufio.NewReader(bytes.NewReader(stream))
	for i, want := range msgs {
		got, err := sampleCodec.ReadFrame(r, 1<<10)
		if err != nil || got.U != want.U || got.S != want.S {
			t.Fatalf("frame %d: %+v, %v", i, got, err)
		}
	}
	if _, err := sampleCodec.ReadFrame(r, 1<<10); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}

	// An oversized frame is refused on its length alone.
	big := sampleCodec.AppendFrame(nil, sample{S: strings.Repeat("x", 2000)})
	if _, err := sampleCodec.ReadFrame(bufio.NewReader(bytes.NewReader(big[:2])), 1<<10); !errors.Is(err, ErrMalformed) {
		t.Fatalf("oversized frame: %v, want ErrMalformed", err)
	}
	// Truncation inside the length or the body is an unexpected EOF.
	for _, cut := range []int{1, 2, 5, len(big) - 1} {
		if _, err := sampleCodec.ReadFrame(bufio.NewReader(bytes.NewReader(big[:cut])), 1<<20); err != io.ErrUnexpectedEOF {
			t.Fatalf("frame cut at %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	// An overlong length prefix is malformed.
	if _, err := sampleCodec.ReadFrame(bufio.NewReader(bytes.NewReader([]byte{0x80, 0x00})), 1<<10); !errors.Is(err, ErrMalformed) {
		t.Fatalf("overlong frame length: %v, want ErrMalformed", err)
	}
}
