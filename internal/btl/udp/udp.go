package udp

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"gompi/internal/btl"
)

// DefaultEagerLimit matches the net module's eager/rendezvous switch point:
// real-wire transports want small eager packets, not sm's 64KiB.
const DefaultEagerLimit = 4096

// DefaultRecvBuf is the socket receive buffer requested from the kernel.
// UDP has no flow control, so a burst of packets nobody is draining yet (a
// window of rendezvous payloads, every rank's first message to a slow
// starter) must fit in the socket buffer or the kernel silently drops the
// overflow; v1 has no retransmission to recover it. The kernel charges the
// buffer per datagram (skb bookkeeping on top of the bytes), so a burst cut
// into fewer, larger datagrams fits more of it, not less
// (TestBurstSurvivalAtPathBudget).
const DefaultRecvBuf = 4 << 20

// maxDatagram bounds a single read: fragLen is a uint16 so no well-formed
// frame exceeds HeaderSize + 64KiB.
const maxDatagram = HeaderSize + 65535

// The largest UDP payload the kernel accepts in one sendto: the 16-bit IP
// length field less the IP (v4 only; the v6 field excludes its own header)
// and UDP headers. Anything larger fails with EMSGSIZE.
const (
	maxUDPPayload4 = 65535 - 20 - 8
	maxUDPPayload6 = 65535 - 8
)

// Config parameterizes one udp module.
type Config struct {
	// Rank is this process's global rank, stamped into every frame.
	Rank int

	// Listen is the UDP listen address ("127.0.0.1:0" when empty; port 0
	// lets the kernel pick, and Card() reports the bound address).
	Listen string

	// Nonce is the job identity every frame must carry. The launcher
	// generates it once per job so stray datagrams from other jobs (or
	// earlier runs on a recycled port) are filtered, not delivered.
	Nonce uint64

	// MTU forces the maximum datagram size, header included; payloads above
	// MTU-HeaderSize are fragmented. When <= 0 the module sizes datagrams to
	// the path instead (Module.budget). Tests set it to force small
	// fragments.
	MTU int

	// Eager is the eager/rendezvous switch point (DefaultEagerLimit when
	// <= 0).
	Eager int

	// Resolve maps a global rank to the peer's business card (the string
	// its Card() returned, published through pmix). Consulted lazily, on
	// first send to the peer; a resolution failure is reported as
	// btl.ErrUnreachable so the PML can fall through to another module.
	Resolve func(globalRank int) (string, error)

	// Alloc/Free tie reassembly to the PML's packet arena: buffers the
	// module materializes for inbound packets come from Alloc and the
	// receiving engine recycles them with the arena's put, so both sides
	// must be the same pool (pml.ArenaGet / pml.ArenaPut). Nil defaults
	// to plain make / drop-on-floor, which tests use.
	Alloc func(n int) []byte
	Free  func(b []byte)

	// RecvBuf is the requested socket receive buffer (DefaultRecvBuf when
	// <= 0). Best effort: the kernel may clamp it.
	RecvBuf int
}

// msgIDCounter is process-global so two modules in one process (tests) never
// reuse (srcRank, msgID) pairs even across module restarts.
var msgIDCounter atomic.Uint32

// Module is the UDP transport for one process. Its data path takes no
// locks: the socket is safe for concurrent use, the reassembler is touched
// only by the progress goroutine, per-peer endpoints are created under the
// PML's route lock, all counters are atomic, and the one-time path lookup
// sits behind a sync.Once.
type Module struct {
	rank  uint32
	nonce uint64
	eager int

	// mtu is Config.MTU when the caller forced one, else 0: the datagram
	// budget is then DefaultMTU for packets that fit it and pathBudget for
	// the rest, resolved by pathOnce on the first packet that needs it.
	mtu        int
	pathOnce   sync.Once
	pathBudget int

	conn   *net.UDPConn
	filter *PacketFilter
	reasm  *reassembler

	resolve func(int) (string, error)
	alloc   func(int) []byte
	free    func([]byte)

	deliver btl.DeliverFunc
	started bool
	done    chan struct{}

	// recvScratch is the datagram receive buffer, owned exclusively by the
	// progress goroutine. Allocated once here so the receive loop itself
	// stays allocation-free.
	recvScratch []byte

	msgs      atomic.Uint64
	bytes     atomic.Uint64
	recvMsgs  atomic.Uint64
	recvBytes atomic.Uint64
	drops     atomic.Uint64
}

// New binds the UDP socket and builds the module. The socket is live (and
// Card() valid) immediately so the business card can be published before
// Activate installs the delivery path.
func New(cfg Config) (*Module, error) {
	listen := cfg.Listen
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	laddr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, fmt.Errorf("udp: listen address %q: %w", listen, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("udp: bind %q: %w", listen, err)
	}
	recvBuf := cfg.RecvBuf
	if recvBuf <= 0 {
		recvBuf = DefaultRecvBuf
	}
	// Best effort — the kernel clamps to net.core.rmem_max and a smaller
	// buffer only raises the burst-loss odds, it doesn't break correctness.
	_ = conn.SetReadBuffer(recvBuf)

	// A forced MTU is validated here; the path's own is looked up on first
	// need (budget), because asking the kernel costs more than the rest of
	// New put together and most processes never send an oversize packet.
	mtu := 0
	if cfg.MTU > 0 {
		if cfg.MTU <= HeaderSize {
			conn.Close()
			return nil, fmt.Errorf("udp: MTU %d leaves no payload room (header is %d bytes)", cfg.MTU, HeaderSize)
		}
		mtu = min(cfg.MTU, maxUDPPayload(conn.LocalAddr().(*net.UDPAddr).IP))
	}
	eager := cfg.Eager
	if eager <= 0 {
		eager = DefaultEagerLimit
	}
	alloc := cfg.Alloc
	if alloc == nil {
		alloc = func(n int) []byte { return make([]byte, n) }
	}
	free := cfg.Free
	if free == nil {
		free = func([]byte) {}
	}
	return &Module{
		rank:        uint32(cfg.Rank),
		nonce:       cfg.Nonce,
		mtu:         mtu,
		eager:       eager,
		conn:        conn,
		filter:      NewPacketFilter(cfg.Nonce),
		reasm:       newReassembler(alloc, free),
		resolve:     cfg.Resolve,
		alloc:       alloc,
		free:        free,
		done:        make(chan struct{}),
		recvScratch: make([]byte, maxDatagram),
	}, nil
}

// budget is the datagram size, header included, that a packet of pktLen
// bytes is cut to. A packet that fits one DefaultMTU datagram never needs
// more, so the common small-message send pays one compare; the first packet
// that does not fit resolves the path's budget, once for the module's
// lifetime.
func (m *Module) budget(pktLen int) int {
	if m.mtu > 0 {
		return m.mtu
	}
	if pktLen <= DefaultMTU-HeaderSize {
		return DefaultMTU
	}
	m.pathOnce.Do(func() {
		ip := m.conn.LocalAddr().(*net.UDPAddr).IP
		m.pathBudget = datagramBudget(linkMTU(ip), ip)
	})
	return m.pathBudget
}

// linkMTU reports the MTU of the interface that owns ip, 0 when none does
// (a wildcard bind, an address the host lost). A variable so tests can count
// the calls: the lookup walks every interface over netlink, ~130 µs in a
// fresh process, and must stay off the init path and the per-send path.
var linkMTU = interfaceMTU

func interfaceMTU(ip net.IP) int {
	ifaces, err := net.Interfaces()
	if err != nil {
		return 0
	}
	for _, ifc := range ifaces {
		// All of 127/8 routes through the loopback interface, whichever of
		// its addresses is configured on it.
		if ip.IsLoopback() && ifc.Flags&net.FlagLoopback != 0 {
			return ifc.MTU
		}
		addrs, err := ifc.Addrs()
		if err != nil {
			continue
		}
		for _, a := range addrs {
			if ipn, ok := a.(*net.IPNet); ok && ipn.IP.Equal(ip) {
				return ifc.MTU
			}
		}
	}
	return 0
}

// datagramBudget turns a link MTU into the largest frame (header + payload)
// that leaves a socket bound to ip as one IP packet: the link MTU less the
// IP and UDP headers, capped at the UDP maximum, and never below DefaultMTU
// — the floor an unknown link (0) gets too. An over-estimate is harmless:
// the kernel IP-fragments a datagram larger than the link carries, which
// costs speed on that path but is never an error.
func datagramBudget(mtu int, ip net.IP) int {
	ipHeader := 40
	if ip.To4() != nil {
		ipHeader = 20
	}
	return max(DefaultMTU, min(mtu-ipHeader-8, maxUDPPayload(ip)))
}

// maxUDPPayload is the sendto size limit for a socket bound to ip. A
// wildcard bind is a dual-stack socket that may face IPv4 peers, so it takes
// the smaller IPv4 limit.
func maxUDPPayload(ip net.IP) int {
	if ip.To4() != nil || ip.IsUnspecified() {
		return maxUDPPayload4
	}
	return maxUDPPayload6
}

// Card returns this module's business card — the bound UDP address peers
// dial. It is what the instance publishes through pmix and what Resolve
// returns on the other side.
func (m *Module) Card() string { return m.conn.LocalAddr().String() }

// Name implements btl.Module.
func (m *Module) Name() string { return "udp" }

// EagerLimit implements btl.Module.
func (m *Module) EagerLimit() int { return m.eager }

// Activate starts the progress goroutine draining the socket.
func (m *Module) Activate(deliver btl.DeliverFunc) {
	m.deliver = deliver
	m.started = true
	go m.progress()
}

// progress is the single receive loop: read a datagram, screen it, fold it
// into the reassembler, deliver completed packets. Everything the filter or
// reassembler rejects is counted in Drops and never reaches the PML. The
// steady-state path allocates nothing, single- or multi-fragment (the
// datagram buffer is preallocated in New, packet buffers come from the arena
// via m.alloc, the reassembler recycles its partial records);
// TestUDPReceivePathAllocs corroborates the annotation at runtime.
//
//gompilint:noalloc
func (m *Module) progress() {
	defer close(m.done)
	buf := m.recvScratch
	for {
		// ReadFromUDPAddrPort, not ReadFromUDP: the latter allocates a
		// *net.UDPAddr per datagram and the source address is unused (frames
		// self-identify via srcRank + nonce).
		n, _, err := m.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			// Socket closed (or a transient error on a dying socket);
			// either way the module is shutting down.
			m.reasm.close()
			return
		}
		f, err := m.filter.Screen(buf[:n])
		if err != nil {
			m.drops.Add(1)
			continue
		}
		pkt, dropped, evicted := m.reasm.accept(f)
		m.drops.Add(uint64(evicted))
		if dropped {
			m.drops.Add(1)
			continue
		}
		if pkt == nil {
			continue // fragment accepted, packet not yet complete
		}
		m.recvMsgs.Add(1)
		m.recvBytes.Add(uint64(len(pkt)))
		m.deliver(pkt)
	}
}

// AddProc resolves the peer's business card. Resolution failure means the
// peer never published a udp card (e.g. it only has simulator transports),
// which this module reports as ErrUnreachable so mixed configurations fall
// through to the next module in priority order.
func (m *Module) AddProc(globalRank int) (btl.Endpoint, error) {
	card, err := m.resolve(globalRank)
	if err != nil {
		return nil, fmt.Errorf("%w: rank %d has no udp card: %v", btl.ErrUnreachable, globalRank, err)
	}
	raddr, err := net.ResolveUDPAddr("udp", card)
	if err != nil {
		return nil, fmt.Errorf("%w: rank %d card %q: %v", btl.ErrUnreachable, globalRank, card, err)
	}
	return &endpoint{mod: m, raddr: raddr}, nil
}

// Stats implements btl.Module. Drops counts every datagram or partial packet
// discarded on the receive path (malformed, foreign, reassembly conflicts,
// evictions); FilterStats has the malformed/foreign breakdown.
func (m *Module) Stats() btl.Stats {
	return btl.Stats{
		Msgs:      m.msgs.Load(),
		Bytes:     m.bytes.Load(),
		RecvMsgs:  m.recvMsgs.Load(),
		RecvBytes: m.recvBytes.Load(),
		Drops:     m.drops.Load(),
	}
}

// FilterStats exposes the packet filter's drop breakdown for tests and
// diagnostics.
func (m *Module) FilterStats() FilterStats { return m.filter.Stats() }

// Close shuts the socket and blocks until the progress goroutine has exited,
// so no delivery upcall runs after Close returns.
func (m *Module) Close() {
	m.conn.Close()
	if m.started {
		<-m.done
	}
}

// send fragments one packet into frames and writes them to raddr. The packet
// is owned by this call per the BTL contract: it is recycled into the arena
// before returning.
func (m *Module) send(raddr *net.UDPAddr, pkt []byte) error {
	n := uint64(len(pkt))
	msgID := msgIDCounter.Add(1)
	budget := m.budget(len(pkt))
	maxPayload := budget - HeaderSize
	fragCount := (len(pkt) + maxPayload - 1) / maxPayload
	if fragCount == 0 {
		fragCount = 1 // zero-length packet still needs one frame
	}
	if fragCount > 65535 {
		return fmt.Errorf("udp: packet of %d bytes needs %d fragments (max 65535)", len(pkt), fragCount)
	}

	// One frame's worth, not the whole budget: a packet well under the
	// path's 64 KiB must not borrow the arena's largest class.
	scratch := m.alloc(min(budget, HeaderSize+len(pkt)))
	var sendErr error
	for i := 0; i < fragCount; i++ {
		off := i * maxPayload
		end := off + maxPayload
		if end > len(pkt) {
			end = len(pkt)
		}
		frame := encodeInto(scratch[:0], Frame{
			SrcRank:   m.rank,
			MsgID:     msgID,
			FragIndex: uint16(i),
			FragCount: uint16(fragCount),
			FragOff:   uint32(off),
			TotalLen:  uint32(len(pkt)),
			Nonce:     m.nonce,
		}, pkt[off:end])
		if _, err := m.conn.WriteToUDP(frame, raddr); err != nil {
			sendErr = err
			break
		}
	}
	m.free(scratch)
	m.free(pkt) // ownership transferred to us by Send; recycle into the arena
	if sendErr != nil {
		return sendErr
	}
	m.msgs.Add(1)
	m.bytes.Add(n)
	return nil
}

type endpoint struct {
	mod   *Module
	raddr *net.UDPAddr
}

func (e *endpoint) Send(pkt []byte) error {
	return e.mod.send(e.raddr, pkt)
}
