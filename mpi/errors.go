package mpi

import (
	"errors"

	"gompi/internal/btl"
	"gompi/internal/pmix"
	"gompi/internal/pml"
	"gompi/internal/prrte"
	"gompi/internal/simnet"
)

// MPI error classes (MPI_ERR_*). ErrorClass maps any error produced by
// this library onto the closest MPI class, for applications porting
// MPI_Error_class-driven handling.
type ErrorClass int

const (
	ErrSuccess ErrorClass = iota
	ErrClassComm
	ErrClassGroup
	ErrClassRank
	ErrClassTag
	ErrClassTruncate
	ErrClassBuffer
	ErrClassSession
	ErrClassUnsupported
	ErrClassTimedOut
	ErrClassProcFailed
	ErrClassRevoked
	ErrClassOther
)

// ErrBuffer is wrapped by errors that reject a buffer description before
// any communication: a negative element count, or a vector-collective
// block (count at displacement) that is negative or falls outside the
// buffer. Its class is MPI_ERR_BUFFER.
var ErrBuffer = errors.New("mpi: invalid buffer argument")

// String returns the MPI-style name of the class.
func (c ErrorClass) String() string {
	switch c {
	case ErrSuccess:
		return "MPI_SUCCESS"
	case ErrClassComm:
		return "MPI_ERR_COMM"
	case ErrClassGroup:
		return "MPI_ERR_GROUP"
	case ErrClassRank:
		return "MPI_ERR_RANK"
	case ErrClassTag:
		return "MPI_ERR_TAG"
	case ErrClassTruncate:
		return "MPI_ERR_TRUNCATE"
	case ErrClassBuffer:
		return "MPI_ERR_BUFFER"
	case ErrClassSession:
		return "MPI_ERR_SESSION"
	case ErrClassUnsupported:
		return "MPI_ERR_UNSUPPORTED_OPERATION"
	case ErrClassTimedOut:
		return "MPI_ERR_PENDING" // closest standard class for a timeout
	case ErrClassProcFailed:
		return "MPI_ERR_PROC_FAILED"
	case ErrClassRevoked:
		return "MPI_ERR_REVOKED"
	}
	return "MPI_ERR_OTHER"
}

// ErrorClassOf classifies an error (MPI_Error_class).
func ErrorClassOf(err error) ErrorClass {
	switch {
	case err == nil:
		return ErrSuccess
	case errors.Is(err, pml.ErrTruncate):
		return ErrClassTruncate
	// Proc-failure outranks the transport classes: an error raised by a
	// peer's death usually also chains a closed-endpoint error, and the
	// failure is the part fault-tolerant callers dispatch on. It also
	// outranks the timeout class — a control-plane operation cut short
	// because a participant died is a death, not a deadline.
	case errors.Is(err, pmix.ErrTerminated), errors.Is(err, pml.ErrPeerFailed),
		errors.Is(err, prrte.ErrDeadParticipant):
		return ErrClassProcFailed
	// Revocation is the failure-recovery protocol's own signal (a member
	// revoked the communicator after observing a death), so like
	// proc-failure it outranks the transport classes.
	case errors.Is(err, pml.ErrRevoked):
		return ErrClassRevoked
	case errors.Is(err, ErrCommFreed), errors.Is(err, pml.ErrClosed),
		errors.Is(err, btl.ErrClosed), errors.Is(err, simnet.ErrClosed),
		errors.Is(err, btl.ErrUnreachable), errors.Is(err, prrte.ErrShutdown):
		return ErrClassComm
	case errors.Is(err, ErrSessionFinalized), errors.Is(err, ErrAlreadyInitialized),
		errors.Is(err, ErrNotInitialized), errors.Is(err, ErrFinalized):
		return ErrClassSession
	case errors.Is(err, ErrUnsupported):
		return ErrClassUnsupported
	case errors.Is(err, ErrBuffer):
		return ErrClassBuffer
	case errors.Is(err, pmix.ErrTimeout), errors.Is(err, prrte.ErrTimeout),
		errors.Is(err, simnet.ErrTimeout):
		return ErrClassTimedOut
	}
	return ErrClassOther
}

// ErrorString renders an error the way MPI_Error_string would: the class
// name followed by the detailed message.
func ErrorString(err error) string {
	if err == nil {
		return ErrSuccess.String()
	}
	return ErrorClassOf(err).String() + ": " + err.Error()
}
