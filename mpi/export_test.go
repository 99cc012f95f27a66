package mpi

// Test-only views of the request service (service.go) for the external
// tests in package mpi_test.

// ServiceTags are the fixed internal tags of windows and files.
var ServiceTags = []int{svcTagReq, svcTagReply, winTagPost, winTagComplete}

// OneShotCollTagFloor is the lowest tag a one-shot collective can use: the
// last 16-tag window nextCollTag hands out before its sequence wraps.
func OneShotCollTagFloor() int {
	c := &Comm{collSeq: 1<<20 - 2}
	return c.nextCollTag() - 15
}

// RawServiceRequest sends raw as a request to target's window service and
// returns the ErrorClass its reply reports.
func RawServiceRequest(w *Win, target int, raw []byte) (ErrorClass, error) {
	if err := w.comm.ch.Send(target, svcTagReq, raw); err != nil {
		return 0, err
	}
	buf := make([]byte, svcHeaderMax)
	st, err := w.comm.ch.Recv(target, svcTagReply, buf)
	if err != nil {
		return 0, err
	}
	rep, err := svcCodec.Decode(buf[:st.Count])
	return ErrorClass(rep.kind), err
}
