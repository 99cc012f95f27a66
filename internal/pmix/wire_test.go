package pmix

import (
	"bytes"
	"testing"
)

// The golden tests pin the wire bytes of each PMIx message kind. A failure
// means the encoding changed; every process of a job must then run the same
// build, and the internal/opal fuzz corpus wants regenerating.

func checkGolden[T any](t *testing.T, name string, wire, golden []byte, decode func([]byte) (T, error)) {
	t.Helper()
	if !bytes.Equal(wire, golden) {
		t.Fatalf("%s wire bytes changed:\n got %x\nwant %x", name, wire, golden)
	}
	if _, err := decode(golden); err != nil {
		t.Fatalf("%s golden bytes do not decode: %v", name, err)
	}
	for n := 0; n < len(golden); n++ {
		if _, err := decode(golden[:n]); err == nil {
			t.Fatalf("%s: %d-byte prefix of the golden message decoded", name, n)
		}
	}
}

func TestEventGoldenBytes(t *testing.T) {
	ev := Event{
		Code:    EventGroupInvite,
		Source:  Proc{Nspace: "job-0", Rank: 1},
		Target:  Proc{Nspace: "job-0", Rank: 2},
		Group:   "g",
		PGCID:   300,
		Accept:  true,
		Members: []int{1, 2},
		Payload: []byte("p"),
	}
	golden := []byte{
		0x06,                                // Code 3, zigzag
		0x05, 'j', 'o', 'b', '-', '0', 0x02, // Source
		0x05, 'j', 'o', 'b', '-', '0', 0x04, // Target
		0x01, 'g', // Group
		0xac, 0x02, // PGCID 300, uvarint
		0x01,             // Accept
		0x02, 0x02, 0x04, // Members
		0x01, 'p', // Payload
	}
	checkGolden(t, "Event", EventCodec.Encode(ev), golden, EventCodec.Decode)
}

func TestNodeBlobGoldenBytes(t *testing.T) {
	nb := nodeBlob{PGCID: 7, Data: map[int][]byte{3: []byte("c"), 1: []byte("a")}}
	golden := []byte{
		0x07,            // PGCID
		0x02,            // two entries, ascending rank
		0x02, 0x01, 'a', // rank 1
		0x06, 0x01, 'c', // rank 3
	}
	checkGolden(t, "nodeBlob", NodeBlobCodec.Encode(nb), golden, NodeBlobCodec.Decode)
}

func TestModexGoldenBytes(t *testing.T) {
	kv := map[string][]byte{"b": {2}, "a": {}}
	golden := []byte{
		0x02,            // two entries, ascending key
		0x01, 'a', 0x00, // "a" = empty
		0x01, 'b', 0x01, 0x02, // "b" = {2}
	}
	checkGolden(t, "modex", ModexCodec.Encode(kv), golden, ModexCodec.Decode)
}
