// Package udp is the real-network BTL: it carries PML packets between
// separate OS processes over UDP sockets, taking gompi off the simulator.
// Every datagram is one self-describing frame — magic, version, fragment
// geometry, a job nonce, and a CRC32C (Castagnoli) over header and payload —
// so the receive path can discard malformed or foreign datagrams before
// anything reaches the matching engine (DESIGN.md §5d). The checks run
// cheapest-first — length, magic, version, nonce, geometry, and the only
// one that reads the payload, the hash, last — so the datagrams a socket is
// most likely to see by accident (another job's) cost a few compares.
// Packets above the path's datagram budget are fragmented by the sender and
// reassembled by the receiver into buffers drawn from the PML's size-classed
// arena.
package udp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync/atomic"
)

// Frame geometry constants.
const (
	// Magic identifies a gompi udp frame ("gUDP" little-endian).
	Magic = uint32('g') | uint32('U')<<8 | uint32('D')<<16 | uint32('P')<<24

	// Version is the only frame version this build speaks. Version 1
	// carried an FNV-1a hash in the same field and is rejected outright.
	Version = 2

	// HeaderSize is the fixed frame header length in bytes.
	HeaderSize = 40

	// MaxPacketSize bounds the reassembled packet: anything claiming to be
	// larger is malformed (the PML never builds packets near this size).
	MaxPacketSize = 16 << 20

	// DefaultMTU is the LAN-safe floor of the datagram budget (header +
	// payload): under the classic 1500-byte Ethernet MTU, so a frame this
	// size crosses any hop unfragmented by IP. A module cuts packets that
	// fit it to it without asking anybody, and falls back to it when the
	// interface behind its socket is unknown; larger packets are cut to
	// what that interface carries (Module.budget) — 65507 bytes on
	// loopback, where the kernel's cost is per datagram, not per byte.
	DefaultMTU = 1400
)

// Decode errors. ErrMalformed is the class every structural failure wraps;
// ErrForeign marks a frame stamped with a different job's nonce, reported
// bare by the PacketFilter rather than DecodeFrame.
var (
	ErrMalformed = errors.New("udp: malformed frame")
	ErrForeign   = errors.New("udp: frame from a foreign job")
)

// Frame is one decoded datagram. Payload aliases the datagram buffer the
// frame was decoded from; it is only valid until the buffer is reused.
//
// Header layout (little-endian):
//
//	off  0  u32  magic
//	off  4  u8   version
//	off  5  u8   flags (must be zero in version 2)
//	off  6  u16  fragIndex
//	off  8  u16  fragCount
//	off 10  u16  fragLen   (== len(datagram) - HeaderSize)
//	off 12  u32  srcRank
//	off 16  u32  msgID
//	off 20  u32  fragOff   (byte offset of this fragment in the packet)
//	off 24  u32  totalLen  (reassembled packet length)
//	off 28  u64  nonce     (job identity)
//	off 36  u32  hash      (CRC32C over header[0:36] + payload)
type Frame struct {
	SrcRank   uint32
	MsgID     uint32
	FragIndex uint16
	FragCount uint16
	FragOff   uint32
	TotalLen  uint32
	Nonce     uint64
	Payload   []byte
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameHash is the CRC32C of the first 36 header bytes and the payload,
// exactly the bytes the hash field covers. crc32.Update on the Castagnoli
// table uses the CPU's CRC instructions where it has them and never
// allocates, so the per-frame receive path stays allocation-free.
func frameHash(frame []byte) uint32 {
	h := crc32.Update(0, castagnoli, frame[:36])
	return crc32.Update(h, castagnoli, frame[HeaderSize:])
}

// encodeInto writes the frame header and payload into dst, which must hold
// HeaderSize+len(payload) bytes, and returns the encoded slice.
func encodeInto(dst []byte, f Frame, payload []byte) []byte {
	n := HeaderSize + len(payload)
	dst = dst[:n]
	binary.LittleEndian.PutUint32(dst[0:], Magic)
	dst[4] = Version
	dst[5] = 0
	binary.LittleEndian.PutUint16(dst[6:], f.FragIndex)
	binary.LittleEndian.PutUint16(dst[8:], f.FragCount)
	binary.LittleEndian.PutUint16(dst[10:], uint16(len(payload)))
	binary.LittleEndian.PutUint32(dst[12:], f.SrcRank)
	binary.LittleEndian.PutUint32(dst[16:], f.MsgID)
	binary.LittleEndian.PutUint32(dst[20:], f.FragOff)
	binary.LittleEndian.PutUint32(dst[24:], f.TotalLen)
	binary.LittleEndian.PutUint64(dst[28:], f.Nonce)
	copy(dst[HeaderSize:], payload)
	binary.LittleEndian.PutUint32(dst[36:], frameHash(dst))
	return dst
}

// EncodeFrame renders one frame into a fresh buffer (tests and the fuzz
// round-trip; the send path encodes into a pooled scratch buffer instead).
func EncodeFrame(f Frame, payload []byte) []byte {
	return encodeInto(make([]byte, HeaderSize+len(payload)), f, payload)
}

// DecodeFrame validates one datagram structurally and returns the decoded
// frame. Every rejection wraps ErrMalformed. The returned Payload aliases
// data. Nonce checking is the PacketFilter's job: a structurally valid
// frame from another job decodes fine here.
func DecodeFrame(data []byte) (Frame, error) {
	if err := checkPreamble(data); err != nil {
		return Frame{}, err
	}
	return decodeBody(data)
}

// checkPreamble is the part of validation that decides whether the rest of
// the header may be read as a frame at all: length, magic, version.
func checkPreamble(data []byte) error {
	if len(data) < HeaderSize {
		return fmt.Errorf("%w: %d bytes, need at least %d", ErrMalformed, len(data), HeaderSize)
	}
	if m := binary.LittleEndian.Uint32(data[0:]); m != Magic {
		return fmt.Errorf("%w: bad magic %#x", ErrMalformed, m)
	}
	if v := data[4]; v != Version {
		return fmt.Errorf("%w: unsupported version %d", ErrMalformed, v)
	}
	return nil
}

// decodeBody checks flags and fragment geometry and, last, the hash — the
// one check whose cost grows with the payload.
func decodeBody(data []byte) (Frame, error) {
	if data[5] != 0 {
		return Frame{}, fmt.Errorf("%w: reserved flags %#x set", ErrMalformed, data[5])
	}
	f := Frame{
		FragIndex: binary.LittleEndian.Uint16(data[6:]),
		FragCount: binary.LittleEndian.Uint16(data[8:]),
		SrcRank:   binary.LittleEndian.Uint32(data[12:]),
		MsgID:     binary.LittleEndian.Uint32(data[16:]),
		FragOff:   binary.LittleEndian.Uint32(data[20:]),
		TotalLen:  binary.LittleEndian.Uint32(data[24:]),
		Nonce:     binary.LittleEndian.Uint64(data[28:]),
	}
	fragLen := binary.LittleEndian.Uint16(data[10:])
	if int(fragLen) != len(data)-HeaderSize {
		return Frame{}, fmt.Errorf("%w: fragLen %d but %d payload bytes on the wire", ErrMalformed, fragLen, len(data)-HeaderSize)
	}
	if f.FragCount == 0 {
		return Frame{}, fmt.Errorf("%w: zero fragment count", ErrMalformed)
	}
	if f.FragIndex >= f.FragCount {
		return Frame{}, fmt.Errorf("%w: fragment %d of %d", ErrMalformed, f.FragIndex, f.FragCount)
	}
	if f.TotalLen > MaxPacketSize {
		return Frame{}, fmt.Errorf("%w: packet claims %d bytes (max %d)", ErrMalformed, f.TotalLen, MaxPacketSize)
	}
	if uint64(f.FragOff)+uint64(fragLen) > uint64(f.TotalLen) {
		return Frame{}, fmt.Errorf("%w: fragment [%d:%d) outside packet of %d", ErrMalformed, f.FragOff, uint64(f.FragOff)+uint64(fragLen), f.TotalLen)
	}
	if f.FragCount == 1 && (f.FragOff != 0 || uint32(fragLen) != f.TotalLen) {
		return Frame{}, fmt.Errorf("%w: single-fragment frame with partial geometry", ErrMalformed)
	}
	if want := binary.LittleEndian.Uint32(data[36:]); want != frameHash(data) {
		return Frame{}, fmt.Errorf("%w: header hash mismatch", ErrMalformed)
	}
	f.Payload = data[HeaderSize:]
	return f, nil
}

// PacketFilter screens inbound datagrams before they can reach the PML: a
// datagram must decode as a well-formed frame and carry this job's nonce.
// Counters are atomic — Screen runs on the module's progress goroutine
// while stats snapshots read from application goroutines.
type PacketFilter struct {
	nonce     uint64
	malformed atomic.Uint64
	foreign   atomic.Uint64
}

// NewPacketFilter builds a filter admitting only frames stamped with nonce.
func NewPacketFilter(nonce uint64) *PacketFilter {
	return &PacketFilter{nonce: nonce}
}

// Screen validates one datagram. On rejection the returned error wraps
// ErrMalformed or is ErrForeign and the matching counter is bumped; the
// caller must drop the datagram without delivering anything. The nonce is
// compared as soon as the preamble says the bytes are a frame of this
// version, before geometry and hash: a datagram from another job is
// rejected with the bare ErrForeign sentinel whatever else is wrong with
// it, so a foreign flood costs a few compares per datagram and allocates
// nothing.
func (pf *PacketFilter) Screen(datagram []byte) (Frame, error) {
	if err := checkPreamble(datagram); err != nil {
		pf.malformed.Add(1)
		return Frame{}, err
	}
	if binary.LittleEndian.Uint64(datagram[28:]) != pf.nonce {
		pf.foreign.Add(1)
		return Frame{}, ErrForeign
	}
	f, err := decodeBody(datagram)
	if err != nil {
		pf.malformed.Add(1)
		return Frame{}, err
	}
	return f, nil
}

// FilterStats is the drop breakdown of one PacketFilter.
type FilterStats struct {
	Malformed uint64 // not a frame of this version, or this job's frame failing geometry or the hash
	Foreign   uint64 // frame of this version stamped with another job's nonce
}

// Stats snapshots the filter's drop counters.
func (pf *PacketFilter) Stats() FilterStats {
	return FilterStats{Malformed: pf.malformed.Load(), Foreign: pf.foreign.Load()}
}
