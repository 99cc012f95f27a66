package mpi

import (
	"encoding/binary"
	"fmt"
	"sync"

	"gompi/internal/opal"
)

// The request service behind RMA windows and files (DESIGN.md §5f): one
// goroutine per window member and per file host, on the object's private
// communicator. Requests arrive on svcTagReq, replies leave on svcTagReply,
// both as one svcRecord; an unlock is the one request with no reply.

// The fixed internal tags of windows and files: a region of their own,
// below the one-shot collective windows and above the persistent ones
// (DESIGN.md, tag-reservation discipline).
const (
	svcTagReq      = -(1 << 25)
	svcTagReply    = svcTagReq - 1
	winTagPost     = svcTagReq - 2
	winTagComplete = svcTagReq - 3
)

// Service operations: a request record's kind.
const (
	svcStop = iota
	svcPut
	svcGet
	svcAcc
	svcLock
	svcUnlock
	svcRead
	svcWrite
	svcSize
)

var svcOpNames = [...]string{"stop", "put", "get", "accumulate", "lock", "unlock", "read", "write", "size"}

// svcRecord is the service's one message record, in both directions. A
// request names an operation (kind), a region (offset, and in length the
// bytes a get or read wants), a small argument (an accumulate's Op, a lock
// type) and a payload. A reply carries the outcome's ErrorClass in kind, a
// count in length (a file's size) and a payload (the bytes read).
type svcRecord struct {
	kind, offset, length, arg int
	payload                   []byte
}

var svcCodec = opal.Codec[svcRecord]{
	Pack: func(e *opal.Encoder, r svcRecord) {
		e.Int(r.kind)
		e.Int(r.offset)
		e.Int(r.length)
		e.Int(r.arg)
		e.Bytes(r.payload)
	},
	Unpack: func(d *opal.Decoder) svcRecord {
		return svcRecord{kind: d.Int(), offset: d.Int(), length: d.Int(), arg: d.Int(), payload: d.Bytes()}
	},
}

// svcHeaderMax bounds a record's encoding beyond its payload: five varints.
const svcHeaderMax = 5 * binary.MaxVarintLen64

// failed is a reply carrying error class c.
func failed(c ErrorClass) svcRecord { return svcRecord{kind: int(c)} }

// status turns the ErrorClass a reply reports for request r at target into
// the error the origin returns. The local path reports through it too, so
// both paths fail alike.
func (rep svcRecord) status(r svcRecord, target int) error {
	switch ErrorClass(rep.kind) {
	case ErrSuccess:
		return nil
	case ErrClassBuffer:
		return fmt.Errorf("%w: %s at offset %d, length %d, is outside rank %d's region",
			ErrBuffer, svcOpNames[r.kind], r.offset, max(r.length, len(r.payload)), target)
	}
	return fmt.Errorf("mpi: rank %d rejected a malformed %s request", target, svcOpNames[r.kind])
}

// service is one running request service.
type service struct {
	comm *Comm
	done chan struct{}
}

// serve starts a service on comm. handle runs on the service goroutine and
// answers through s.reply, at once or later; the payload of r aliases the
// receive buffer and must be copied if kept.
func serve(comm *Comm, handle func(s *service, src int, r svcRecord)) *service {
	s := &service{comm: comm, done: make(chan struct{})}
	go s.run(handle)
	return s
}

// run receives each request at its real size (probe, then a receive of
// exactly that many bytes), so none is truncated. A request it cannot
// decode gets an error reply and the loop goes on; only a stop record from
// this process ends it.
func (s *service) run(handle func(s *service, src int, r svcRecord)) {
	defer close(s.done)
	var buf []byte
	for {
		st, err := s.comm.ch.Probe(AnySource, svcTagReq)
		if err != nil {
			return
		}
		if cap(buf) < st.Count {
			buf = make([]byte, st.Count)
		}
		if st, err = s.comm.ch.Recv(st.Source, svcTagReq, buf[:st.Count]); err != nil {
			return
		}
		r, err := svcCodec.Decode(buf[:st.Count])
		switch {
		case err != nil:
			s.reply(st.Source, failed(ErrClassOther))
		case r.kind == svcStop && st.Source == s.comm.Rank():
			return
		default:
			handle(s, st.Source, r)
		}
	}
}

// reply sends one reply record to dst. A failed send means dst is gone or
// the channel is, and the origin's receive fails on its own.
func (s *service) reply(dst int, r svcRecord) {
	_ = s.comm.ch.Send(dst, svcTagReply, svcCodec.Encode(r))
}

// close stops the service, frees its communicator, and returns once the
// goroutine has exited. The stop record ends the loop; if the channel
// refuses the record (a revoked communicator), removing the channel ends
// the probe instead.
func (s *service) close() error {
	if s.comm.ch.Send(s.comm.Rank(), svcTagReq, svcCodec.Encode(svcRecord{kind: svcStop})) == nil {
		<-s.done
	}
	err := s.comm.Free()
	<-s.done
	return err
}

// request runs r at target and returns the reply: through local when
// target is this process and local is set, through target's service
// otherwise.
func request(c *Comm, target int, r svcRecord, local func(svcRecord) svcRecord) (svcRecord, error) {
	if local != nil && target == c.Rank() {
		rep := local(r)
		return rep, rep.status(r, target)
	}
	if err := c.ch.Send(target, svcTagReq, svcCodec.Encode(r)); err != nil {
		return svcRecord{}, err
	}
	buf := make([]byte, svcHeaderMax+max(r.length, 0))
	st, err := c.ch.Recv(target, svcTagReply, buf)
	if err != nil {
		return svcRecord{}, err
	}
	rep, err := svcCodec.Decode(buf[:st.Count])
	if err != nil {
		return svcRecord{}, fmt.Errorf("mpi: reply from rank %d: %w", target, err)
	}
	return rep, rep.status(r, target)
}

// throughIntermediate opens a window or file from group the way the
// prototype does (§III-B6): open runs on an intermediate communicator built
// from the group, which is freed afterwards.
func throughIntermediate[T any](s *Session, group *Group, tag string, open func(*Comm) (T, error)) (T, error) {
	var zero T
	inter, err := s.CommCreateFromGroup(group, tag, nil, nil)
	if err != nil {
		return zero, err
	}
	v, err := open(inter)
	if ferr := inter.Free(); err == nil {
		err = ferr
	}
	if err != nil {
		return zero, s.errh.invoke(err)
	}
	return v, nil
}

// released reads a window's freed or a file's closed flag under mu and
// returns err once it is set; with mark it also sets the flag, so exactly
// one release gets nil.
func released(mu *sync.Mutex, flag *bool, mark bool, err error) error {
	mu.Lock()
	defer mu.Unlock()
	if *flag {
		return err
	}
	*flag = mark
	return nil
}
