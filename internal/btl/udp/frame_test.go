package udp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("the quick brown fox")
	in := Frame{
		SrcRank:   7,
		MsgID:     42,
		FragIndex: 2,
		FragCount: 5,
		FragOff:   2800,
		TotalLen:  6000,
		Nonce:     0xdeadbeefcafef00d,
	}
	wire := EncodeFrame(in, payload)
	if len(wire) != HeaderSize+len(payload) {
		t.Fatalf("encoded %d bytes, want %d", len(wire), HeaderSize+len(payload))
	}
	out, err := DecodeFrame(wire)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if out.SrcRank != in.SrcRank || out.MsgID != in.MsgID ||
		out.FragIndex != in.FragIndex || out.FragCount != in.FragCount ||
		out.FragOff != in.FragOff || out.TotalLen != in.TotalLen ||
		out.Nonce != in.Nonce {
		t.Fatalf("round trip mismatch: got %+v want %+v", out, in)
	}
	if !bytes.Equal(out.Payload, payload) {
		t.Fatalf("payload mismatch: got %q", out.Payload)
	}
}

func TestFrameRoundTripEmptyPayload(t *testing.T) {
	wire := EncodeFrame(Frame{FragCount: 1, TotalLen: 0, Nonce: 1}, nil)
	f, err := DecodeFrame(wire)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if len(f.Payload) != 0 {
		t.Fatalf("payload: got %d bytes, want 0", len(f.Payload))
	}
}

// valid returns a well-formed single-fragment frame for mutation tests.
func valid(t *testing.T) []byte {
	t.Helper()
	payload := []byte("hello")
	return EncodeFrame(Frame{
		SrcRank:   1,
		MsgID:     9,
		FragCount: 1,
		TotalLen:  uint32(len(payload)),
		Nonce:     0x1234,
	}, payload)
}

func TestDecodeFrameRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   string
	}{
		{"truncated", func(w []byte) []byte { return w[:HeaderSize-1] }, "need at least"},
		{"empty", func(w []byte) []byte { return nil }, "need at least"},
		{"bad magic", func(w []byte) []byte { w[0] ^= 0xff; return w }, "bad magic"},
		{"bad version", func(w []byte) []byte { w[4] = Version + 1; return w }, "unsupported version"},
		{"version 1", func(w []byte) []byte { w[4] = 1; return w }, "unsupported version 1"},
		{"flags set", func(w []byte) []byte { w[5] = 1; return w }, "reserved flags"},
		{"fragLen short", func(w []byte) []byte {
			binary.LittleEndian.PutUint16(w[10:], 3)
			return w
		}, "on the wire"},
		{"payload truncated", func(w []byte) []byte { return w[:len(w)-1] }, "on the wire"},
		{"zero fragCount", func(w []byte) []byte {
			binary.LittleEndian.PutUint16(w[8:], 0)
			return w
		}, "zero fragment count"},
		{"fragIndex out of range", func(w []byte) []byte {
			binary.LittleEndian.PutUint16(w[6:], 1)
			return w
		}, "fragment 1 of 1"},
		{"oversize totalLen", func(w []byte) []byte {
			binary.LittleEndian.PutUint32(w[24:], MaxPacketSize+1)
			binary.LittleEndian.PutUint16(w[8:], 2) // dodge the single-frag check
			return w
		}, "max"},
		{"fragment past end", func(w []byte) []byte {
			binary.LittleEndian.PutUint16(w[8:], 2)
			binary.LittleEndian.PutUint32(w[20:], 100) // fragOff beyond totalLen=5
			return w
		}, "outside packet"},
		{"single-frag partial geometry", func(w []byte) []byte {
			binary.LittleEndian.PutUint32(w[24:], 99) // totalLen != fragLen
			return w
		}, "partial geometry"},
		{"corrupt payload", func(w []byte) []byte { w[len(w)-1] ^= 0xff; return w }, "hash mismatch"},
		{"corrupt hash", func(w []byte) []byte { w[36] ^= 0xff; return w }, "hash mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.mutate(valid(t))
			_, err := DecodeFrame(w)
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("want ErrMalformed, got %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// Mutating a geometry field without re-hashing must always fail on
	// the hash even before its own structural check would fire — the hash
	// covers the whole header. Confirm a re-hashed mutation hits the
	// structural check instead (the cases above re-encode implicitly by
	// mutating and relying on one of the two).
	w := valid(t)
	binary.LittleEndian.PutUint32(w[16:], 777) // msgID changed, hash stale
	if _, err := DecodeFrame(w); !errors.Is(err, ErrMalformed) {
		t.Fatalf("stale hash accepted: %v", err)
	}
}

func TestPacketFilter(t *testing.T) {
	pf := NewPacketFilter(0x1234)

	if _, err := pf.Screen(valid(t)); err != nil {
		t.Fatalf("screening valid frame: %v", err)
	}

	if _, err := pf.Screen([]byte("junk")); !errors.Is(err, ErrMalformed) {
		t.Fatalf("want ErrMalformed, got %v", err)
	}

	foreign := EncodeFrame(Frame{FragCount: 1, TotalLen: 5, Nonce: 0x9999}, []byte("hello"))
	if _, err := pf.Screen(foreign); err != ErrForeign {
		t.Fatalf("want the bare ErrForeign sentinel, got %v", err)
	}

	st := pf.Stats()
	if st.Malformed != 1 || st.Foreign != 1 {
		t.Fatalf("filter stats = %+v, want 1 malformed / 1 foreign", st)
	}
}

// The filter runs cheapest-first: the nonce is compared before geometry and
// hash, so another job's datagram is Foreign whatever else is wrong with it,
// while anything that is not a frame of this version is Malformed before the
// nonce is even looked at.
func TestPacketFilterOrder(t *testing.T) {
	pf := NewPacketFilter(0x1234)
	foreign := func() []byte {
		return EncodeFrame(Frame{FragCount: 1, TotalLen: 5, Nonce: 0x9999}, []byte("hello"))
	}
	cases := []struct {
		name          string
		datagram      []byte
		want          error
		malformed, fo uint64
	}{
		{"foreign nonce, corrupt hash", mutated(foreign(), 36, 0xff), ErrForeign, 0, 1},
		{"foreign nonce, corrupt payload", mutated(foreign(), HeaderSize, 0xff), ErrForeign, 0, 1},
		{"foreign nonce, bad geometry", mutated(foreign(), 8, 0xff), ErrForeign, 0, 1},
		{"foreign nonce, version 1", mutated(foreign(), 4, Version^1), ErrMalformed, 1, 0},
		{"own nonce, version 1", mutated(valid(t), 4, Version^1), ErrMalformed, 1, 0},
		{"own nonce, corrupt hash", mutated(valid(t), 36, 0xff), ErrMalformed, 1, 0},
	}
	for _, tc := range cases {
		before := pf.Stats()
		_, err := pf.Screen(tc.datagram)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		after := pf.Stats()
		if after.Malformed-before.Malformed != tc.malformed || after.Foreign-before.Foreign != tc.fo {
			t.Errorf("%s: counted %d malformed / %d foreign, want %d / %d", tc.name,
				after.Malformed-before.Malformed, after.Foreign-before.Foreign, tc.malformed, tc.fo)
		}
	}
}

// mutated returns w with the byte at off XORed with x (never a no-op for
// x != 0; XORing the version byte with Version^1 makes it version 1).
func mutated(w []byte, off int, x byte) []byte {
	w[off] ^= x
	return w
}

// TestFrameGoldenBytes pins the wire format: a fixed frame and payload encode
// to exactly these 40 + n bytes. A change to the header layout, the hash
// function or the bytes it covers fails here instead of passing silently
// between two builds that both round-trip their own frames; such a change
// needs a Version bump and a regenerated fuzz corpus.
func TestFrameGoldenBytes(t *testing.T) {
	payload := []byte("gompi")
	wire := EncodeFrame(Frame{
		SrcRank:   0x01020304,
		MsgID:     0x05060708,
		FragIndex: 0x090a,
		FragCount: 0x0b0c,
		FragOff:   0x000e0f10,
		TotalLen:  0x00fedcba,
		Nonce:     0x1112131415161718,
	}, payload)
	golden := []byte{
		'g', 'U', 'D', 'P', // magic
		0x02,       // version
		0x00,       // flags
		0x0a, 0x09, // fragIndex
		0x0c, 0x0b, // fragCount
		0x05, 0x00, // fragLen
		0x04, 0x03, 0x02, 0x01, // srcRank
		0x08, 0x07, 0x06, 0x05, // msgID
		0x10, 0x0f, 0x0e, 0x00, // fragOff
		0xba, 0xdc, 0xfe, 0x00, // totalLen
		0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11, // nonce
		0xdf, 0x11, 0xc7, 0x25, // CRC32C (0x25c711df) over the 36 bytes above + payload
		'g', 'o', 'm', 'p', 'i',
	}
	if !bytes.Equal(wire, golden) {
		t.Fatalf("wire bytes changed:\n got %x\nwant %x", wire, golden)
	}
	if f, err := DecodeFrame(golden); err != nil || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("golden frame does not decode: %+v, %v", f, err)
	}
}

var codecSink Frame

// BenchmarkFrameCodec is one full datagram through the codec — encode into a
// fresh buffer, decode with every check — at the LAN floor and at the
// loopback path budget. Bytes/s is payload rate.
func BenchmarkFrameCodec(b *testing.B) {
	for _, bc := range []struct {
		name   string
		budget int
	}{
		{"mtu1400", DefaultMTU},
		{"path65507", maxUDPPayload4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			payload := make([]byte, bc.budget-HeaderSize)
			for i := range payload {
				payload[i] = byte(i)
			}
			f := Frame{SrcRank: 1, MsgID: 2, FragIndex: 1, FragCount: 3, FragOff: uint32(len(payload)), TotalLen: uint32(3 * len(payload)), Nonce: 0x1234}
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := DecodeFrame(EncodeFrame(f, payload))
				if err != nil {
					b.Fatal(err)
				}
				codecSink = out
			}
		})
	}
}
