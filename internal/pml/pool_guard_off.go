//go:build !debug

package pml

// Release builds compile the arena guard away entirely; see
// pool_guard.go for the debug (-tags debug) implementation.

func guardCheckout(p any) {}

func guardRecycle(p any, b []byte) {}

func guardRecvPark(r *Request) {}

func guardRecvTake(r *Request) {}

func guardComplete(r *Request) {}
