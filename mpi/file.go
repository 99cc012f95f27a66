package mpi

import (
	"errors"
	"sync"
)

// MPI file support. Files created from a group (MPI_File_open_from_group in
// the Sessions proposal) follow the prototype's pattern (§III-B6): build an
// intermediate communicator from the group, open with that parent, free the
// intermediate. The "file system" is simulated: the communicator's rank 0
// hosts the bytes and serves the other members' reads and writes through
// its request service (service.go), standing in for a shared parallel file
// system visible to all members.

// fileHost is the communicator rank that holds a file's bytes.
const fileHost = 0

// ErrFileClosed is returned when using a closed file.
var ErrFileClosed = errors.New("mpi: file has been closed")

// File is a simulated shared file opened collectively (MPI_File).
type File struct {
	comm *Comm
	name string
	svc  *service // the host's service; nil on the other members

	mu     sync.Mutex // guards closed and, on the host, data
	closed bool
	data   []byte
}

// FileOpenFromGroup opens a shared file collectively over a group, per the
// Sessions proposal. Collective over the group's members.
func (s *Session) FileOpenFromGroup(group *Group, tag, name string) (*File, error) {
	return throughIntermediate(s, group, "file/"+tag, func(inter *Comm) (*File, error) {
		return FileOpen(inter, name)
	})
}

// FileOpen opens a shared file over an existing communicator
// (MPI_File_open). Collective. File contents persist in the runtime's
// global name service across close/re-open — the simulated analogue of a
// parallel file system — so checkpoint/restart patterns work across
// independent opens.
func FileOpen(comm *Comm, name string) (*File, error) {
	priv, err := comm.Dup()
	if err != nil {
		return nil, err
	}
	f := &File{comm: priv, name: name}
	if priv.Rank() == fileHost {
		// Restore any persisted contents before serving.
		if data, err := comm.p.inst.Client().Lookup(fileStoreKey(name), 0); err == nil {
			f.data = append([]byte(nil), data...)
		}
		f.svc = serve(priv, func(s *service, src int, r svcRecord) { s.reply(src, f.apply(r)) })
	}
	if err := priv.Barrier(); err != nil {
		_ = f.release()
		return nil, err
	}
	return f, nil
}

func fileStoreKey(name string) string { return "mpi.file/" + name }

// FileDelete removes a persisted file from the simulated file system
// (MPI_File_delete). Local operation.
func FileDelete(p *Process, name string) error {
	client := p.inst.Client()
	if client == nil {
		return ErrNotInitialized
	}
	return client.Unpublish(fileStoreKey(name))
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// apply runs a read, write or size request on the host's bytes. The host's
// own calls and its service share it; the reply's kind is the outcome's
// ErrorClass.
func (f *File) apply(r svcRecord) svcRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	end := r.offset + len(r.payload)
	if r.offset < 0 || r.length < 0 || end < r.offset {
		return failed(ErrClassBuffer)
	}
	switch r.kind {
	case svcWrite:
		if end > len(f.data) {
			f.data = append(f.data, make([]byte, end-len(f.data))...)
		}
		copy(f.data[r.offset:], r.payload)
	case svcRead:
		tail := f.data[min(r.offset, len(f.data)):]
		return svcRecord{payload: append([]byte(nil), tail[:min(r.length, len(tail))]...)}
	case svcSize:
		return svcRecord{length: len(f.data)}
	default:
		return failed(ErrClassOther)
	}
	return svcRecord{}
}

func (f *File) checkOpen() error { return released(&f.mu, &f.closed, false, ErrFileClosed) }

// do runs one request at the host.
func (f *File) do(r svcRecord) (svcRecord, error) {
	if err := f.checkOpen(); err != nil {
		return svcRecord{}, err
	}
	return request(f.comm, fileHost, r, f.apply)
}

// WriteAt writes data at the given offset (MPI_File_write_at).
func (f *File) WriteAt(offset int, data []byte) error {
	_, err := f.do(svcRecord{kind: svcWrite, offset: offset, payload: data})
	return err
}

// ReadAt reads up to len(buf) bytes at offset, returning the count read
// (MPI_File_read_at).
func (f *File) ReadAt(offset int, buf []byte) (int, error) {
	rep, err := f.do(svcRecord{kind: svcRead, offset: offset, length: len(buf)})
	return copy(buf, rep.payload), err
}

// Size returns the current file size (MPI_File_get_size).
func (f *File) Size() (int, error) {
	rep, err := f.do(svcRecord{kind: svcSize})
	return rep.length, err
}

// Sync is a barrier ensuring all members' preceding writes are applied
// (MPI_File_sync): writes are synchronous requests, so a barrier suffices.
func (f *File) Sync() error {
	if err := f.checkOpen(); err != nil {
		return err
	}
	return f.comm.Barrier()
}

// Close closes the file collectively (MPI_File_close), persisting its
// contents to the simulated file system.
func (f *File) Close() error {
	if err := released(&f.mu, &f.closed, true, ErrFileClosed); err != nil {
		return err
	}
	err := f.comm.Barrier()
	if rerr := f.release(); err == nil {
		err = rerr
	}
	if f.svc == nil || err != nil {
		return err
	}
	// The service has exited and the file is closed: data is no longer shared.
	return f.comm.p.inst.Client().Publish(fileStoreKey(f.name), f.data)
}

// release stops the host's service and frees the file's communicator.
func (f *File) release() error {
	if f.svc != nil {
		return f.svc.close()
	}
	return f.comm.Free()
}
