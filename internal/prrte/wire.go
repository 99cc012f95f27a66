package prrte

import (
	"time"

	"gompi/internal/opal"
)

// The boot stream's messages, in the opal control-plane codec. Each travels
// as one frame (Codec.AppendFrame): its length as a uvarint, then the
// encoding. The codecs are exported so the codec's round-trip, golden-byte
// and fuzz tests (internal/opal) cover every message kind.

// maxBootFrame bounds one boot-stream frame. A peer announcing a longer one
// is misbehaving, and its connection is closed before the body is read.
const maxBootFrame = 64 << 20

// BootMsgCodec packs a child-to-parent request.
var BootMsgCodec = opal.Codec[bootMsg]{
	Pack: func(e *opal.Encoder, m bootMsg) {
		e.Uint(m.ID)
		e.Str(m.Kind)
		e.Int(m.Node)
		e.Str(m.Key)
		e.Bytes(m.Val)
		opal.EncodeMap(e, m.KV, (*opal.Encoder).Str, (*opal.Encoder).Bytes)
		e.Ints(m.Participants)
		e.Int64(int64(m.Timeout))
		packRMReq(e, m.RM)
	},
	Unpack: func(d *opal.Decoder) bootMsg {
		return bootMsg{
			ID:           d.Uint(),
			Kind:         d.Str(),
			Node:         d.Int(),
			Key:          d.Str(),
			Val:          d.Bytes(),
			KV:           opal.DecodeMap(d, (*opal.Decoder).Str, (*opal.Decoder).Bytes),
			Participants: d.Ints(),
			Timeout:      time.Duration(d.Int64()),
			RM:           unpackRMReq(d),
		}
	},
}

// BootReplyCodec packs a parent-to-child reply or event push.
var BootReplyCodec = opal.Codec[bootReply]{
	Pack: func(e *opal.Encoder, r bootReply) {
		e.Uint(r.ID)
		e.Str(r.Err)
		e.Bool(r.Dead)
		packRMResp(e, r.Res)
		opal.EncodeMap(e, r.Map, (*opal.Encoder).Int, (*opal.Encoder).Bytes)
		e.Bytes(r.Event)
	},
	Unpack: func(d *opal.Decoder) bootReply {
		return bootReply{
			ID:    d.Uint(),
			Err:   d.Str(),
			Dead:  d.Bool(),
			Res:   unpackRMResp(d),
			Map:   opal.DecodeMap(d, (*opal.Decoder).Int, (*opal.Decoder).Bytes),
			Event: d.Bytes(),
		}
	},
}

func packRMReq(e *opal.Encoder, r rmReq) {
	e.Int(int(r.Op))
	e.Str(r.Name)
	e.Ints(r.Members)
	e.Str(r.Key)
	e.Bytes(r.Val)
	e.Int(r.Rank)
	e.Bool(r.Wait)
	e.Int64(int64(r.Timeout))
}

func unpackRMReq(d *opal.Decoder) rmReq {
	return rmReq{
		Op:      rmOp(d.Int()),
		Name:    d.Str(),
		Members: d.Ints(),
		Key:     d.Str(),
		Val:     d.Bytes(),
		Rank:    d.Int(),
		Wait:    d.Bool(),
		Timeout: time.Duration(d.Int64()),
	}
}

func packRMResp(e *opal.Encoder, r rmResp) {
	e.Uint(r.N)
	e.Bool(r.OK)
	e.Bytes(r.Val)
	opal.EncodeMap(e, r.Psets, (*opal.Encoder).Str, (*opal.Encoder).Ints)
}

func unpackRMResp(d *opal.Decoder) rmResp {
	return rmResp{
		N:     d.Uint(),
		OK:    d.Bool(),
		Val:   d.Bytes(),
		Psets: opal.DecodeMap(d, (*opal.Decoder).Str, (*opal.Decoder).Ints),
	}
}
