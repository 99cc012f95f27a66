package coll

// runDirect is the reference executor: it walks the steps in emission order
// with blocking transport calls. Emission order is a valid sequential
// execution (deps always point backwards), so it needs none of the engine's
// dependency tracking — which is what makes it an independent oracle for
// the engine's output (TestScheduleEquivalence and every per-algorithm test
// in coll_test.go run under both).
func runDirect(t Transport, s *Schedule, bind *binding) error {
	for i := range s.steps {
		st := &s.steps[i]
		switch st.kind {
		case stepSend:
			if err := t.Send(bind.resolve(st.a), st.peer, bind.baseTag-st.tagOff); err != nil {
				return err
			}
		case stepRecv:
			if err := t.Recv(bind.resolve(st.a), st.peer, bind.baseTag-st.tagOff); err != nil {
				return err
			}
		case stepSendrecv:
			if err := t.Sendrecv(bind.resolve(st.a), st.peer, bind.resolve(st.b), st.peer2, bind.baseTag-st.tagOff); err != nil {
				return err
			}
		case stepReduce:
			if err := bind.rf(bind.resolve(st.a), bind.resolve(st.b), st.count); err != nil {
				return err
			}
		case stepCopy:
			copy(bind.resolve(st.a), bind.resolve(st.b))
		}
	}
	return nil
}
