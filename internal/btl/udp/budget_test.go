package udp

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// rndvPacket is a 64 KiB rendezvous DATA packet as the PML builds it with
// its longest header in front (pml's arenaHeaderRoom covers 52 bytes).
const rndvPacket = 64<<10 + 52

func patterned(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}

func TestDatagramBudget(t *testing.T) {
	v4 := net.IPv4(127, 0, 0, 1)
	v6 := net.ParseIP("fe80::1")
	for _, tc := range []struct {
		name    string
		linkMTU int
		ip      net.IP
		want    int
	}{
		{"loopback", 65536, v4, 65507}, // 65536-28 is one over the UDP maximum
		{"ethernet", 1500, v4, 1472},
		{"jumbo", 9000, v4, 8972},
		{"unknown link", 0, v4, DefaultMTU},
		{"below the floor", 576, v4, DefaultMTU},
		{"wildcard", 0, net.IPv4zero, DefaultMTU},
		{"ipv6 ethernet", 1500, v6, 1452},
		{"ipv6 jumbo", 9000, v6, 8952},
		{"ipv6 loopback", 65536, net.IPv6loopback, 65488},
		{"ipv6 beyond the length field", 1 << 20, v6, 65527},
		{"ipv6 wildcard", 0, net.IPv6unspecified, DefaultMTU},
	} {
		if got := datagramBudget(tc.linkMTU, tc.ip); got != tc.want {
			t.Errorf("%s: datagramBudget(%d, %v) = %d, want %d", tc.name, tc.linkMTU, tc.ip, got, tc.want)
		}
	}
	// The kernel's side of the table: a wildcard owns no interface, the
	// loopback address owns one.
	if mtu := interfaceMTU(net.IPv4zero); mtu != 0 {
		t.Errorf("interfaceMTU(0.0.0.0) = %d, want 0", mtu)
	}
	if mtu := interfaceMTU(net.IPv4(127, 0, 0, 1)); mtu <= 0 {
		t.Errorf("interfaceMTU(127.0.0.1) = %d, want the loopback MTU", mtu)
	}
}

// The interface lookup costs more than the rest of New put together, so it
// must stay off the init path and the small-message path entirely, and run
// once however many goroutines send oversize packets first.
func TestPathLookupLazyAndOnce(t *testing.T) {
	var calls atomic.Int32
	real := linkMTU
	linkMTU = func(ip net.IP) int {
		calls.Add(1)
		return real(ip)
	}
	t.Cleanup(func() { linkMTU = real })

	m0, _, _, rx1 := pair(t, Config{}, Config{})
	ep, err := m0.AddProc(1)
	if err != nil {
		t.Fatalf("AddProc: %v", err)
	}
	for i := 0; i < 100; i++ {
		if err := ep.Send(make([]byte, 8)); err != nil {
			t.Fatalf("Send: %v", err)
		}
		recvOne(t, rx1)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("%d interface lookups after New + Activate + 100 small sends, want 0", n)
	}

	const perSender = 8
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := ep.Send(make([]byte, 2*DefaultMTU)); err != nil {
					t.Errorf("Send: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < 2*perSender; i++ {
		recvOne(t, rx1)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("%d interface lookups after %d oversize sends from two goroutines, want exactly 1", n, 2*perSender)
	}
}

// A default-config pair cuts packets to what loopback carries: the frames
// on the wire say so, and the packets arrive whole.
func TestPathBudgetGeometry(t *testing.T) {
	if interfaceMTU(net.IPv4(127, 0, 0, 1)) < 65535 {
		t.Skip("loopback MTU is below the UDP maximum on this host")
	}
	m0, m1, _, rx1 := pair(t, Config{}, Config{})

	// A bare socket standing in for rank 2 shows the datagrams themselves.
	tap, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer tap.Close()
	_ = tap.SetReadBuffer(DefaultRecvBuf) // the default holds three 64 KiB datagrams, not five
	peers := m0.resolve
	m0.resolve = func(rank int) (string, error) {
		if rank == 2 {
			return tap.LocalAddr().String(), nil
		}
		return peers(rank)
	}
	ep1, err := m0.AddProc(1)
	if err != nil {
		t.Fatalf("AddProc(1): %v", err)
	}
	epTap, err := m0.AddProc(2)
	if err != nil {
		t.Fatalf("AddProc(2): %v", err)
	}

	datagram := make([]byte, maxDatagram)
	for _, tc := range []struct{ size, datagrams int }{
		{DefaultMTU - HeaderSize, 1},
		{rndvPacket, 2},
		{256 << 10, 5},
	} {
		msg := patterned(tc.size)
		if err := epTap.Send(bytes.Clone(msg)); err != nil {
			t.Fatalf("%d bytes to the tap: %v", tc.size, err)
		}
		for i := 0; i < tc.datagrams; i++ {
			tap.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, err := tap.Read(datagram)
			if err != nil {
				t.Fatalf("%d bytes: datagram %d of %d: %v", tc.size, i, tc.datagrams, err)
			}
			f, err := DecodeFrame(datagram[:n])
			if err != nil {
				t.Fatalf("%d bytes: datagram %d: %v", tc.size, i, err)
			}
			if int(f.FragCount) != tc.datagrams || int(f.FragIndex) != i {
				t.Fatalf("%d bytes: got fragment %d of %d, want %d of %d", tc.size, f.FragIndex, f.FragCount, i, tc.datagrams)
			}
		}

		if err := ep1.Send(bytes.Clone(msg)); err != nil {
			t.Fatalf("%d bytes to rank 1: %v", tc.size, err)
		}
		if got := recvOne(t, rx1); !bytes.Equal(got, msg) {
			t.Fatalf("%d-byte packet corrupted in flight (%d bytes arrived)", tc.size, len(got))
		}
	}
	// Nothing more reached the tap than the datagrams counted above.
	tap.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if n, err := tap.Read(datagram); err == nil {
		t.Fatalf("a stray %d-byte datagram followed the expected ones", n)
	}
	if st := m1.Stats(); st.RecvMsgs != 3 || st.Drops != 0 {
		t.Fatalf("receiver stats = %+v, want 3 packets and no drops", st)
	}
}

// Regression: New clamped Config.MTU to maxDatagram, a read-buffer bound that
// is larger than any datagram the kernel will send, so a module built with
// an oversize MTU failed every multi-fragment Send with EMSGSIZE.
func TestOversizeMTUClampedToUDPMaximum(t *testing.T) {
	m0, _, _, rx1 := pair(t, Config{MTU: 1 << 20}, Config{})
	if m0.mtu != maxUDPPayload4 {
		t.Fatalf("MTU clamped to %d, want %d", m0.mtu, maxUDPPayload4)
	}
	ep, err := m0.AddProc(1)
	if err != nil {
		t.Fatalf("AddProc: %v", err)
	}
	msg := patterned(rndvPacket)
	if err := ep.Send(bytes.Clone(msg)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if got := recvOne(t, rx1); !bytes.Equal(got, msg) {
		t.Fatalf("packet corrupted in flight (%d bytes arrived)", len(got))
	}
}
