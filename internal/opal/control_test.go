package opal_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gompi/internal/opal"
	"gompi/internal/pmix"
	"gompi/internal/prrte"
)

// kind is one control-plane message kind, with its type erased so one table
// covers the pmix and the prrte messages alike.
type kind struct {
	name string
	zero any
	// random draws a value of the kind; decoding its encoding must give
	// canon(value) back.
	random func(*rand.Rand) any
	encode func(any) []byte
	decode func([]byte) (any, error)
	// decodeAllocs is the allocation count of one decode of data.
	decodeAllocs func(data []byte) float64
	// readFrame decodes the first frame of a stream.
	readFrame func(data []byte, limit int) error
}

func kindOf[T any](name string, c opal.Codec[T]) kind {
	return kind{
		name: name,
		zero: *new(T),
		random: func(rng *rand.Rand) any {
			var v T
			fill(rng, reflect.ValueOf(&v).Elem())
			return v
		},
		encode: func(v any) []byte { return c.Encode(v.(T)) },
		decode: func(data []byte) (any, error) { return c.Decode(data) },
		decodeAllocs: func(data []byte) float64 {
			return testing.AllocsPerRun(50, func() { _, _ = c.Decode(data) })
		},
		readFrame: func(data []byte, limit int) error {
			_, err := c.ReadFrame(bufio.NewReader(bytes.NewReader(data)), limit)
			return err
		},
	}
}

// kinds is every message the control plane encodes.
var kinds = []kind{
	kindOf("pmix.Event", pmix.EventCodec),
	kindOf("pmix.nodeBlob", pmix.NodeBlobCodec),
	kindOf("pmix.modex", pmix.ModexCodec),
	kindOf("prrte.bootMsg", prrte.BootMsgCodec),
	kindOf("prrte.bootReply", prrte.BootReplyCodec),
}

// fill sets v, field by field, to a random value biased towards the edges
// the codec must handle: nil and empty slices and maps, empty keys, 0 B and
// 64 KiB byte strings, ranks up to 1023, and extreme integers.
func fill(rng *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(rng, v.Field(i))
		}
	case reflect.Bool:
		v.SetBool(rng.IntN(2) == 1)
	case reflect.Int, reflect.Int64:
		switch rng.IntN(8) {
		case 0:
			v.SetInt(math.MinInt64)
		case 1:
			v.SetInt(math.MaxInt64)
		case 2:
			v.SetInt(-1 - rng.Int64N(1024))
		default:
			v.SetInt(rng.Int64N(1024)) // a rank
		}
	case reflect.Uint64:
		if rng.IntN(4) == 0 {
			v.SetUint(math.MaxUint64)
		} else {
			v.SetUint(rng.Uint64N(1 << uint(rng.IntN(64))))
		}
	case reflect.String:
		v.SetString(string(randBytes(rng, false)))
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			v.SetBytes(randBytes(rng, true))
			return
		}
		n := randLen(rng)
		if n < 0 {
			return // nil
		}
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			fill(rng, s.Index(i))
		}
		v.Set(s)
	case reflect.Map:
		n := randLen(rng)
		if n < 0 {
			return // nil
		}
		m := reflect.MakeMap(v.Type())
		for i := 0; i < n; i++ {
			k := reflect.New(v.Type().Key()).Elem()
			fill(rng, k)
			e := reflect.New(v.Type().Elem()).Elem()
			fill(rng, e)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	default:
		panic("fill: no generator for " + v.Type().String())
	}
}

// randLen is -1 (nil), 0 (empty but not nil) or a small count.
func randLen(rng *rand.Rand) int { return rng.IntN(7) - 1 }

func randBytes(rng *rand.Rand, nilOK bool) []byte {
	switch rng.IntN(6) {
	case 0:
		if nilOK {
			return nil
		}
		return []byte{}
	case 1:
		return []byte{}
	case 2:
		b := make([]byte, 64<<10)
		x := byte(rng.UintN(256))
		for i := range b {
			b[i] = byte(i) ^ x
		}
		return b
	default:
		b := make([]byte, rng.IntN(24))
		for i := range b {
			b[i] = byte(rng.UintN(256))
		}
		return b
	}
}

// canon is what decoding gives back for v: every empty slice and map reads
// as nil.
func canon(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			canon(v.Field(i))
		}
	case reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		for i := 0; i < v.Len(); i++ {
			canon(v.Index(i))
		}
	case reflect.Map:
		if v.Len() == 0 {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		iter := v.MapRange()
		for iter.Next() {
			e := reflect.New(v.Type().Elem()).Elem()
			e.Set(iter.Value())
			canon(e)
			v.SetMapIndex(iter.Key(), e)
		}
	}
}

func canonical(x any) any {
	v := reflect.New(reflect.TypeOf(x)).Elem()
	v.Set(reflect.ValueOf(x))
	canon(v)
	return v.Interface()
}

// TestControlCodecRoundTrip is the property test: for seeded random values
// of every message kind, decode(encode(v)) is v up to nil-vs-empty, and
// re-encoding the decoded value gives the same bytes.
func TestControlCodecRoundTrip(t *testing.T) {
	for _, k := range kinds {
		rng := rand.New(rand.NewPCG(1, uint64(len(k.name))))
		for i := 0; i < 300; i++ {
			v := k.random(rng)
			data := k.encode(v)
			got, err := k.decode(data)
			if err != nil {
				t.Fatalf("%s #%d: decode: %v", k.name, i, err)
			}
			if want := canonical(v); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s #%d: round trip:\n got %+v\nwant %+v", k.name, i, got, want)
			}
			if again := k.encode(got); !bytes.Equal(again, data) {
				t.Fatalf("%s #%d: re-encode differs", k.name, i)
			}
		}
	}
}

// TestControlCodecPrefixesFail: every proper prefix of a message fails to
// decode.
func TestControlCodecPrefixesFail(t *testing.T) {
	for _, k := range kinds {
		rng := rand.New(rand.NewPCG(2, 0))
		for i := 0; i < 20; i++ {
			data := k.encode(k.random(rng))
			if len(data) > 4096 {
				continue // the 64 KiB values add nothing but run time here
			}
			for n := 0; n < len(data); n++ {
				if _, err := k.decode(data[:n]); err == nil {
					t.Fatalf("%s: %d-byte prefix of a %d-byte message decoded", k.name, n, len(data))
				}
			}
		}
	}
}

// TestControlCodecCountsBoundedBeforeAllocation: a zero value of every kind
// encodes as one 0x00 byte per field. Swapping any one of those bytes for a
// count of 1<<20 must not make decoding allocate more than the plain zero
// message does: an oversized count is rejected before anything is made for
// it (a field that is not a count simply reads a large integer).
func TestControlCodecCountsBoundedBeforeAllocation(t *testing.T) {
	huge := []byte{0x80, 0x80, 0x40}
	for _, k := range kinds {
		zero := k.encode(k.zero)
		if bytes.Count(zero, []byte{0}) != len(zero) {
			t.Fatalf("%s: zero value encodes as %x, not all zero bytes", k.name, zero)
		}
		base := k.decodeAllocs(zero)
		for i := range zero {
			data := append(append(append([]byte(nil), zero[:i]...), huge...), zero[i+1:]...)
			if allocs := k.decodeAllocs(data); allocs > base {
				t.Errorf("%s: count 1<<20 at field %d: %v allocations, zero message %v", k.name, i, allocs, base)
			}
		}
	}
}

// FuzzControlCodec decodes arbitrary bytes as every control-plane message
// kind, and as a boot-stream frame of each: nothing may panic, and whatever
// decodes must re-encode to exactly the input (the format has one encoding
// per value) and decode again to the same value. Seeds live in
// testdata/fuzz/FuzzControlCodec (regenerate with OPAL_REGEN_CORPUS=1, see
// TestControlCorpus); make fuzz-smoke runs this target on every check.
func FuzzControlCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, k := range kinds {
			_ = k.readFrame(data, 1<<16)
			v, err := k.decode(data)
			if err != nil {
				continue
			}
			wire := k.encode(v)
			if !bytes.Equal(wire, data) {
				t.Fatalf("%s: re-encode mismatch:\n in %x\nout %x", k.name, data, wire)
			}
			again, err := k.decode(wire)
			if err != nil {
				t.Fatalf("%s: re-encoded message rejected: %v", k.name, err)
			}
			if !reflect.DeepEqual(again, v) {
				t.Fatalf("%s: value changed across round trip:\n%+v\n%+v", k.name, v, again)
			}
		}
	})
}

// TestControlCorpus rewrites the committed FuzzControlCodec seed corpus when
// run with OPAL_REGEN_CORPUS=1; otherwise it only verifies that every seed
// the corpus should contain is present.
func TestControlCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzControlCodec")
	seeds := controlSeeds()

	if os.Getenv("OPAL_REGEN_CORPUS") != "1" {
		for name := range seeds {
			if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
				t.Errorf("seed %s missing (regenerate with OPAL_REGEN_CORPUS=1): %v", name, err)
			}
		}
		return
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// controlSeeds are, per kind, the zero message, a few small random ones, a
// truncated and an over-long one, and a random message as a stream frame.
func controlSeeds() map[string][]byte {
	seeds := make(map[string][]byte)
	for _, k := range kinds {
		seeds[k.name+"-zero"] = k.encode(k.zero)
		rng := rand.New(rand.NewPCG(3, 0))
		var msgs [][]byte
		for len(msgs) < 3 {
			if data := k.encode(k.random(rng)); len(data) <= 512 {
				msgs = append(msgs, data)
			}
		}
		for i, data := range msgs {
			seeds[fmt.Sprintf("%s-valid-%d", k.name, i)] = data
		}
		seeds[k.name+"-truncated"] = msgs[0][:len(msgs[0])-1]
		seeds[k.name+"-trailing"] = append(append([]byte(nil), msgs[0]...), 0)
		seeds[k.name+"-frame"] = append(binary.AppendUvarint(nil, uint64(len(msgs[1]))), msgs[1]...)
	}
	return seeds
}
