package opal

// Hook is a completion callback record: Fn(Arg) runs once when the
// operation it is installed on completes. Whoever installs it owns the
// record, so installing is one pointer store, and a plain function with a
// pointer argument runs without allocating.
type Hook struct {
	Fn  func(any)
	Arg any
}
