package prrte

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"
)

// The golden tests pin the boot stream's wire bytes. A failure means the
// encoding changed; the launcher and its children must then run the same
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

func TestBootMsgGoldenBytes(t *testing.T) {
	msg := bootMsg{
		ID:           5,
		Kind:         bootRM,
		Node:         -1,
		Key:          "k",
		KV:           map[string][]byte{"x": []byte("y")},
		Participants: []int{0, 1},
		Timeout:      64 * time.Nanosecond,
		RM:           rmReq{Op: rmPGCID, Name: "n", Members: []int{2}, Rank: 3, Wait: true},
	}
	golden := []byte{
		0x05,           // ID
		0x02, 'r', 'm', // Kind
		0x01,      // Node -1, zigzag
		0x01, 'k', // Key
		0x00,                       // Val
		0x01, 0x01, 'x', 0x01, 'y', // KV
		0x02, 0x00, 0x02, // Participants
		0x80, 0x01, // Timeout 64 ns, zigzag 128
		// RM:
		0x02,      // Op rmPGCID
		0x01, 'n', // Name
		0x01, 0x04, // Members
		0x00, // Key
		0x00, // Val
		0x06, // Rank 3
		0x01, // Wait
		0x00, // Timeout
	}
	checkGolden(t, "bootMsg", BootMsgCodec.Encode(msg), golden, BootMsgCodec.Decode)

	// On the stream the message is one frame: its length, then the bytes.
	frame := BootMsgCodec.AppendFrame(nil, msg)
	if frame[0] != byte(len(golden)) || !bytes.Equal(frame[1:], golden) {
		t.Fatalf("frame = %x, want length %d then the golden bytes", frame, len(golden))
	}
}

func TestBootReplyGoldenBytes(t *testing.T) {
	r := bootReply{
		ID:  5,
		Res: rmResp{N: 9, OK: true, Val: []byte("v"), Psets: map[string][]int{"mpi://WORLD": {0, 1}}},
		Map: map[int][]byte{0: []byte("a")},
	}
	golden := []byte{
		0x05, // ID
		0x00, // Err
		0x00, // Dead
		// Res:
		0x09,      // N
		0x01,      // OK
		0x01, 'v', // Val
		0x01, 0x0b, 'm', 'p', 'i', ':', '/', '/', 'W', 'O', 'R', 'L', 'D', 0x02, 0x00, 0x02, // Psets
		0x01, 0x00, 0x01, 'a', // Map
		0x00, // Event
	}
	checkGolden(t, "bootReply", BootReplyCodec.Encode(r), golden, BootReplyCodec.Decode)
}

// TestBootServerDropsMalformedFrame: a frame that does not decode, or that
// announces more than maxBootFrame bytes, closes the connection from the
// server's side instead of wedging or crashing the launcher.
func TestBootServerDropsMalformedFrame(t *testing.T) {
	srv, err := NewBootServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for name, frame := range map[string][]byte{
		"undecodable": {0x02, 0xff, 0xff},
		"oversized":   binary.AppendUvarint(nil, maxBootFrame+1),
	} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err = bufio.NewReader(conn).ReadByte()
		var ne net.Error
		if err == nil || (errors.As(err, &ne) && ne.Timeout()) {
			t.Fatalf("%s frame: connection still open (read: %v)", name, err)
		}
		conn.Close()
	}
}
