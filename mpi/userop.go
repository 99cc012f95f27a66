package mpi

import (
	"fmt"

	"gompi/internal/coll"
)

// User-defined reduction operations (MPI_Op_create). A UserOp combines
// elements with an application-supplied function; as in MPI, the function
// must be associative, and the implementation may apply it in any
// associative bracketing. With root 0 the operands combine in ascending
// rank order (left to right); other roots rotate that order, so
// non-commutative combiners should reduce to root 0.
type UserOp struct {
	name string
	fn   func(inout, in []byte, count int, dt Datatype) error
}

// OpCreate builds a user-defined reduction operation. fn must implement
// inout[i] = fn(inout[i], in[i]) element-wise for count elements of dt.
func OpCreate(name string, fn func(inout, in []byte, count int, dt Datatype) error) *UserOp {
	return &UserOp{name: name, fn: fn}
}

// Name returns the operation's name.
func (o *UserOp) Name() string { return o.name }

// userReducer binds a user operation and datatype into the framework's
// element-wise combiner shape: inout = op(inout, in).
func userReducer(op *UserOp, dt Datatype) coll.ReduceFunc {
	return func(inout, in []byte, count int) error {
		return op.fn(inout, in, count, dt)
	}
}

// ReduceUser is MPI_Reduce with a user-defined operation.
func (c *Comm) ReduceUser(sendBuf, recvBuf []byte, count int, dt Datatype, op *UserOp, root int) error {
	if err := c.checkLive(); err != nil {
		return c.errh.invoke(err)
	}
	if op == nil {
		return c.errh.invoke(fmt.Errorf("mpi: nil user operation"))
	}
	if root < 0 || root >= c.Size() {
		return c.errh.invoke(fmt.Errorf("mpi: reduce root %d out of range", root))
	}
	if err := checkCount("reduce", count); err != nil {
		return c.errh.invoke(err)
	}
	nbytes := count * dt.Size()
	if len(sendBuf) < nbytes {
		return c.errh.invoke(fmt.Errorf("mpi: reduce send buffer %d < %d bytes", len(sendBuf), nbytes))
	}
	if c.Rank() == root && len(recvBuf) < nbytes {
		return c.errh.invoke(fmt.Errorf("mpi: reduce recv buffer %d < %d bytes", len(recvBuf), nbytes))
	}
	m, err := c.collModule()
	if err != nil {
		return c.errh.invoke(err)
	}
	tag := c.nextCollTag()
	// User operations are treated as non-commutative: the framework only
	// runs order-preserving shapes (operands fold in ascending vrank order).
	return c.errh.invoke(m.Reduce(sendBuf, recvBuf, count, dt.Size(), userReducer(op, dt), false, root, tag))
}

// AllreduceUser is MPI_Allreduce with a user-defined operation.
func (c *Comm) AllreduceUser(sendBuf, recvBuf []byte, count int, dt Datatype, op *UserOp) error {
	if err := c.checkLive(); err != nil {
		return c.errh.invoke(err)
	}
	if op == nil {
		return c.errh.invoke(fmt.Errorf("mpi: nil user operation"))
	}
	if err := checkCount("allreduce", count); err != nil {
		return c.errh.invoke(err)
	}
	nbytes := count * dt.Size()
	if len(sendBuf) < nbytes || len(recvBuf) < nbytes {
		return c.errh.invoke(fmt.Errorf("mpi: allreduce buffers too small for %d x %s", count, dt))
	}
	m, err := c.collModule()
	if err != nil {
		return c.errh.invoke(err)
	}
	tag := c.nextCollTag()
	// Non-commutative dispatch keeps the framework off the reordering
	// algorithms (ring, hier); recursive doubling and reduce+bcast both
	// preserve the ascending-rank bracketing.
	return c.errh.invoke(m.Allreduce(sendBuf, recvBuf, count, dt.Size(), userReducer(op, dt), false, tag))
}
