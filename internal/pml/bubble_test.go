//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package pml

import (
	"testing"
	"testing/synctest"
	"time"
)

// TestRecvModelTimeInBubble runs a blocking Recv inside a synctest bubble
// (GOEXPERIMENT=synctest), twice, with the same traffic outside any bubble
// in between. The sender sleeps one second of model time first, so the
// clock can only get there if the parked Recv is durably blocked: parked
// on a wake channel made inside its own bubble. A wake channel that
// outlived its job — cached process-wide and handed to the next one — would
// leave the second bubble's Recv blocked on a foreign channel and the
// clock stuck.
func TestRecvModelTimeInBubble(t *testing.T) {
	pingPong := func(t *testing.T, sleep time.Duration) time.Duration {
		tn := buildMixedNet(1, 2, Config{})
		defer tn.close()
		chs := tn.worldChannels(t, 0)
		start := time.Now()
		for i := 0; i < 2; i++ { // the second Recv reuses the spare request and wake
			go func() {
				time.Sleep(sleep)
				if err := chs[0].Send(1, 1, []byte("m")); err != nil {
					t.Error(err)
				}
			}()
			if st, err := chs[1].Recv(0, 1, make([]byte, 1)); err != nil || st.Count != 1 {
				t.Errorf("Recv = %+v, %v", st, err)
			}
		}
		return time.Since(start)
	}
	inBubble := func(t *testing.T) {
		var took time.Duration
		synctest.Run(func() { took = pingPong(t, time.Second) })
		if took != 2*time.Second {
			t.Errorf("two Recvs behind one-second sends took %v of model time, want exactly 2s", took)
		}
	}
	t.Run("bubble", inBubble)
	t.Run("wall clock", func(t *testing.T) { pingPong(t, time.Millisecond) })
	t.Run("bubble again", inBubble)
}
