package udp

import (
	"syscall"
	"testing"
	"time"
)

// burstSurvivors sends burst 64 KiB packets at a receiver that is not
// draining its socket yet, then activates it and counts the packets that
// come out whole. It skips the test when the kernel clamped the receive
// buffer below 1 MiB, where either geometry loses nearly everything.
func burstSurvivors(t *testing.T, sender Config, burst int) int {
	t.Helper()
	sender.Nonce = testNonce
	m0, err := New(sender)
	if err != nil {
		t.Fatal(err)
	}
	defer m0.Close()
	m1, err := New(Config{Rank: 1, Nonce: testNonce})
	if err != nil {
		t.Fatal(err)
	}
	defer m1.Close()

	rc, err := m1.conn.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var rcvbuf int
	var sockErr error
	if err := rc.Control(func(fd uintptr) {
		rcvbuf, sockErr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	}); err != nil || sockErr != nil {
		t.Fatalf("SO_RCVBUF: %v, %v", err, sockErr)
	}
	if rcvbuf < 1<<20 {
		t.Skipf("SO_RCVBUF clamped to %d bytes on this host", rcvbuf)
	}

	m0.resolve = func(int) (string, error) { return m1.Card(), nil }
	ep, err := m0.AddProc(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < burst; i++ {
		if err := ep.Send(make([]byte, rndvPacket)); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}

	rx := make(chan []byte, burst)
	m1.Activate(func(pkt []byte) { rx <- pkt })
	survivors := 0
	for {
		select {
		case <-rx:
			survivors++
		case <-time.After(200 * time.Millisecond):
			// Loopback delivered (or dropped) every datagram inside sendto;
			// what is left is a memcpy-speed drain, long done by now.
			return survivors
		}
	}
}

// UDP has no flow control, so what an undrained receiver keeps of a burst is
// decided by how the kernel charges its SO_RCVBUF — per datagram, not only
// per byte. Cutting packets to the path budget therefore must not lose more
// of a burst than cutting them to DefaultMTU did; measured, it keeps about
// two thirds more (EXPERIMENTS.md).
func TestBurstSurvivalAtPathBudget(t *testing.T) {
	const burst = 160 // 10 MiB at a 4 MiB buffer: both geometries overflow
	atFloor := burstSurvivors(t, Config{MTU: DefaultMTU}, burst)
	atPath := burstSurvivors(t, Config{}, burst)
	t.Logf("of %d undrained 64 KiB packets: %d survive at MTU %d, %d at the path budget", burst, atFloor, DefaultMTU, atPath)
	if atPath < atFloor {
		t.Errorf("path-budget datagrams lost more of the burst: %d of %d survive, %d at MTU %d", atPath, burst, atFloor, DefaultMTU)
	}
}
