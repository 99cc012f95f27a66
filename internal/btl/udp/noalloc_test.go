package udp

import (
	"bytes"
	"testing"

	"gompi/internal/pml"
)

// TestUDPReceivePathAllocs corroborates the //gompilint:noalloc annotations
// on the progress loop and the reassembler's accept at runtime: the
// steady-state receive pipeline (Screen -> reassembler accept -> arena
// packet) performs zero heap allocations once the arena size class is warm,
// for a single-fragment packet and for a 64 KiB packet in 49 fragments (the
// LAN floor) or 2 (the loopback path budget). The
// socket read is exercised separately (ReadFromUDPAddrPort into the module's
// preallocated scratch buffer is allocation-free by construction); this test
// drives the exact per-datagram work the loop does after the read, with the
// arena wired the way core.Instance wires it.
func TestUDPReceivePathAllocs(t *testing.T) {
	const nonce = 0xfeedfacecafef00d
	filter := NewPacketFilter(nonce)
	reasm := newReassembler(pml.ArenaGet, pml.ArenaPut)

	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i)
	}
	frame := EncodeFrame(Frame{
		SrcRank:   3,
		MsgID:     7,
		FragIndex: 0,
		FragCount: 1,
		FragOff:   0,
		TotalLen:  uint32(len(payload)),
		Nonce:     nonce,
	}, payload)

	deliver := func(frame []byte) error {
		f, err := filter.Screen(frame)
		if err != nil {
			return err
		}
		pkt, dropped, evicted := reasm.accept(f)
		if pkt == nil || dropped || evicted != 0 {
			t.Fatalf("single-fragment frame did not complete a packet (dropped=%v evicted=%d)", dropped, evicted)
		}
		pml.ArenaPut(pkt) // the PML upcall consumes and recycles the packet
		return nil
	}

	// Warm the arena size class the 512-byte packet draws from.
	for i := 0; i < 8; i++ {
		if err := deliver(frame); err != nil {
			t.Fatal(err)
		}
	}

	allocs := testing.AllocsPerRun(200, func() {
		if err := deliver(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("udp receive path allocated %.1f times per datagram; the //gompilint:noalloc progress loop must stay allocation-free", allocs)
	}

	// A 64 KiB rendezvous DATA packet cut to the LAN floor (49 fragments) and
	// to the loopback path budget (2), a fresh msgID per packet as the sender
	// stamps them. The partial record, its bitmap and the reassembly buffer
	// must all be recycled, and the tombstone table must turn over (300
	// packets > maxTombstones) without allocating either.
	const totalLen = 14 + 8 + 64<<10
	body := patterned(totalLen)
	msgID := uint32(1000)
	for _, tc := range []struct{ budget, fragCount int }{
		{DefaultMTU, 49},
		{maxUDPPayload4, 2},
	} {
		maxPayload := tc.budget - HeaderSize
		fragCount := (totalLen + maxPayload - 1) / maxPayload
		if fragCount != tc.fragCount {
			t.Fatalf("a 64 KiB DATA packet at budget %d is %d fragments, want %d", tc.budget, fragCount, tc.fragCount)
		}
		frames := make([][]byte, fragCount)
		for i := range frames {
			off := i * maxPayload
			end := min(off+maxPayload, totalLen)
			frames[i] = EncodeFrame(Frame{
				SrcRank: 3, FragIndex: uint16(i), FragCount: uint16(fragCount),
				FragOff: uint32(off), TotalLen: totalLen, Nonce: nonce,
			}, body[off:end])
		}
		deliverLarge := func() {
			msgID++
			for i, frame := range frames {
				f, err := filter.Screen(frame)
				if err != nil {
					t.Fatal(err)
				}
				f.MsgID = msgID // what a re-encode with the next msgID would decode to
				pkt, dropped, evicted := reasm.accept(f)
				if dropped || evicted != 0 || (pkt != nil) != (i == fragCount-1) {
					t.Fatalf("fragment %d: pkt=%v dropped=%v evicted=%d", i, pkt != nil, dropped, evicted)
				}
				if pkt != nil {
					if !bytes.Equal(pkt, body) {
						t.Fatal("reassembled packet differs from what was sent")
					}
					pml.ArenaPut(pkt)
				}
			}
		}
		for i := 0; i < maxTombstones+8; i++ {
			deliverLarge()
		}
		if allocs := testing.AllocsPerRun(300, deliverLarge); allocs != 0 {
			t.Errorf("udp receive path allocated %.1f times per %d-fragment packet; accept must recycle partial records, bitmaps and buffers", allocs, fragCount)
		}
	}
}
