package pmix

import "gompi/internal/opal"

// The PMIx control-plane messages, in the opal codec. The codecs are
// exported so the codec's round-trip, golden-byte and fuzz tests
// (internal/opal) cover every message kind.

// EventCodec packs an Event for BroadcastEvent and NotifyNode.
var EventCodec = opal.Codec[Event]{
	Pack: func(e *opal.Encoder, ev Event) {
		e.Int(int(ev.Code))
		packProc(e, ev.Source)
		packProc(e, ev.Target)
		e.Str(ev.Group)
		e.Uint(ev.PGCID)
		e.Bool(ev.Accept)
		e.Ints(ev.Members)
		e.Bytes(ev.Payload)
	},
	Unpack: func(d *opal.Decoder) Event {
		return Event{
			Code:    EventCode(d.Int()),
			Source:  unpackProc(d),
			Target:  unpackProc(d),
			Group:   d.Str(),
			PGCID:   d.Uint(),
			Accept:  d.Bool(),
			Members: d.Ints(),
			Payload: d.Bytes(),
		}
	},
}

func packProc(e *opal.Encoder, p Proc) {
	e.Str(p.Nspace)
	e.Int(p.Rank)
}

func unpackProc(d *opal.Decoder) Proc { return Proc{Nspace: d.Str(), Rank: d.Int()} }

// nodeBlob is the per-node contribution to an inter-server exchange.
type nodeBlob struct {
	PGCID uint64
	Data  map[int][]byte // rank -> contribution
}

// NodeBlobCodec packs a node's contribution to a collective's exchange.
var NodeBlobCodec = opal.Codec[nodeBlob]{
	Pack: func(e *opal.Encoder, nb nodeBlob) {
		e.Uint(nb.PGCID)
		opal.EncodeMap(e, nb.Data, (*opal.Encoder).Int, (*opal.Encoder).Bytes)
	},
	Unpack: func(d *opal.Decoder) nodeBlob {
		return nodeBlob{PGCID: d.Uint(), Data: opal.DecodeMap(d, (*opal.Decoder).Int, (*opal.Decoder).Bytes)}
	},
}

// ModexCodec packs one rank's committed modex set, its fence contribution.
var ModexCodec = opal.Codec[map[string][]byte]{
	Pack: func(e *opal.Encoder, kv map[string][]byte) {
		opal.EncodeMap(e, kv, (*opal.Encoder).Str, (*opal.Encoder).Bytes)
	},
	Unpack: func(d *opal.Decoder) map[string][]byte {
		return opal.DecodeMap(d, (*opal.Decoder).Str, (*opal.Decoder).Bytes)
	},
}
