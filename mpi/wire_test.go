package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"gompi/internal/opal"
)

// The two byte layouts the mpi package owns, both in the opal codec: the
// Accept/Connect rendezvous payload and the window/file service record.

// TestWireGoldenBytes pins each layout's wire form.
func TestWireGoldenBytes(t *testing.T) {
	for name, c := range map[string]struct{ got, want []byte }{
		"rendezvous": {
			rendezvousCodec.Encode(rendezvousMsg{connID: "1.2", ranks: []int{4, 5}}),
			[]byte{3, '1', '.', '2', 2, 8, 10},
		},
		"service put": {
			svcCodec.Encode(svcRecord{kind: svcPut, offset: 3, payload: []byte("ab")}),
			[]byte{2, 6, 0, 0, 2, 'a', 'b'},
		},
		"service reply": {
			svcCodec.Encode(svcRecord{kind: int(ErrClassBuffer)}),
			[]byte{12, 0, 0, 0, 0},
		},
	} {
		if !bytes.Equal(c.got, c.want) {
			t.Errorf("%s: encodes to %v, want %v", name, c.got, c.want)
		}
	}
}

// TestRendezvousCodec round-trips the Accept/Connect name-service payload
// and rejects every malformed one instead of decoding part of it.
func TestRendezvousCodec(t *testing.T) {
	for _, m := range []rendezvousMsg{
		{},
		{connID: "0.1"},
		{connID: "3.17", ranks: []int{0}},
		{connID: "12.4", ranks: []int{7, 3, 1 << 40, 0}},
	} {
		got, err := decodeRendezvous(rendezvousCodec.Encode(m))
		if err != nil {
			t.Fatalf("decode(encode(%+v)): %v", m, err)
		}
		if got.connID != m.connID || !slices.Equal(got.ranks, m.ranks) {
			t.Fatalf("round trip: got %+v, want %+v", got, m)
		}
	}

	good := rendezvousCodec.Encode(rendezvousMsg{connID: "1.2", ranks: []int{4, 5}})
	// The fixed-width layout this payload replaced: an 8-byte ID length,
	// 8-byte ranks, then the ID. A 12-byte rank block is one and a half
	// ranks.
	fixed := binary.LittleEndian.AppendUint64(nil, 3)
	fixed = append(fixed, make([]byte, 12)...)
	fixed = append(fixed, "1.2"...)
	for name, b := range map[string][]byte{
		"empty":              nil,
		"truncated ranks":    good[:len(good)-1],
		"truncated id":       good[:2],
		"trailing byte":      append(slices.Clone(good), 0),
		"count past end":     {0, 9, 2},
		"12-byte rank block": fixed,
	} {
		if _, err := decodeRendezvous(b); !errors.Is(err, opal.ErrMalformed) {
			t.Errorf("%s: err = %v, want opal.ErrMalformed", name, err)
		}
	}
}
