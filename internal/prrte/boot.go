package prrte

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gompi/internal/topo"
)

// Process-mode bootstrap: when prun launches real OS processes (-transport
// udp), there is no in-process DVM to carry out-of-band traffic. Instead the
// parent runs a BootServer — a rendezvous service on loopback TCP, speaking
// length-prefixed frames of the opal control-plane codec (wire.go) — and
// each child connects a BootClient, which implements the same
// pmix.Runtime surface as an in-process Daemon. The parent holds the same
// resource manager as the DVM's master (rm.go), reached over TCP instead of
// simnet, and centralizes what the simulated DVM distributes: modex data
// pushed by children, collective exchanges, and event fan-out.
//
// Correctness leans on TCP ordering plus serial per-connection processing at
// the parent: a child's modex push is handled before any request the same
// child sends later (e.g. its fence contribution), and cross-child races are
// absorbed by parent-side waiters — a Fetch for a key that has not arrived
// yet parks until the owning child's push lands or the deadline passes.

// defaultBootTimeout bounds replied operations whose caller passed no
// deadline; loopback rendezvous traffic that takes this long is wedged.
const defaultBootTimeout = 60 * time.Second

// bootMsg is one child-to-parent request.
type bootMsg struct {
	ID   uint64 // correlation ID; 0 = fire-and-forget
	Kind string

	Node         int
	Key          string
	Val          []byte
	KV           map[string][]byte
	Participants []int
	Timeout      time.Duration // the caller's deadline, for parked requests
	RM           rmReq         // Kind bootRM
}

// bootReply is one parent-to-child message: a correlated reply (ID != 0) or
// an unsolicited event push (ID == 0, Event set).
type bootReply struct {
	ID    uint64
	Err   string
	Dead  bool   // a fetch of a terminated rank's modex data
	Res   rmResp // RM replies; fetches answer in OK and Val
	Map   map[int][]byte
	Event []byte
}

// Request kinds.
const (
	bootHello    = "hello"
	bootExchange = "exchange"
	bootFetch    = "fetch"
	bootRM       = "rm"
	bootBcast    = "bcast"
	bootNotify   = "notify"
	bootModex    = "modex"
)

// bootConn is the parent's handle on one child connection.
type bootConn struct {
	conn net.Conn
	wmu  sync.Mutex //gompilint:lockorder rank=19
	node int
}

func (c *bootConn) send(r bootReply) error {
	frame := BootReplyCodec.AppendFrame(nil, r)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_, err := c.conn.Write(frame)
	return err
}

// bootOp is one in-flight collective exchange at the parent.
type bootOp struct {
	contribs map[int][]byte // by participant node
	waiters  []bootWaiter
}

// bootWaiter names one correlated call: an exchange waiter, and the
// requester a parked fetch or lookup is keyed by.
type bootWaiter struct {
	conn *bootConn
	id   uint64
}

// BootServer is the launcher-side rendezvous service.
type BootServer struct {
	ln net.Listener
	rm *resourceManager

	mu      sync.Mutex //gompilint:lockorder rank=13
	conns   map[int]*bootConn
	modex   map[string][]byte // "modex/<rank>/<key>" -> value
	ops     map[string]*bootOp
	fetches keyWaiters[bootReply]

	closeOnce sync.Once
}

// NewBootServer starts the rendezvous service on addr ("127.0.0.1:0" picks a
// free port; Addr reports the bound address for the children's environment).
func NewBootServer(addr string) (*BootServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("prrte: boot listen %q: %w", addr, err)
	}
	s := &BootServer{
		ln:    ln,
		rm:    newResourceManager(),
		conns: make(map[int]*bootConn),
		modex: make(map[string][]byte),
		ops:   make(map[string]*bootOp),
	}
	s.fetches = newKeyWaiters[bootReply](&s.mu)
	go s.accept()
	return s, nil
}

// Addr returns the listen address children must dial (GOMPI_BOOT).
func (s *BootServer) Addr() string { return s.ln.Addr().String() }

// RegisterPset seeds a launch-time pset (mpi://WORLD etc.) before children
// connect, mirroring DVM.RegisterPset.
func (s *BootServer) RegisterPset(name string, members []int) { s.rm.register(name, members) }

// Close shuts the listener and every child connection.
func (s *BootServer) Close() {
	s.closeOnce.Do(func() {
		s.ln.Close()
		for _, c := range s.children() {
			c.conn.Close()
		}
	})
}

// children snapshots the registered child connections.
func (s *BootServer) children() []*bootConn {
	s.mu.Lock()
	defer s.mu.Unlock()
	conns := make([]*bootConn, 0, len(s.conns))
	for _, c := range s.conns {
		conns = append(conns, c)
	}
	return conns
}

func (s *BootServer) accept() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		go s.serve(conn)
	}
}

// serve processes one child's requests serially — the ordering guarantee the
// fire-and-forget kinds rely on. Kinds that must wait for other children
// never block this loop; they park a waiter and are answered later. A frame
// that is oversized or does not decode closes the connection.
func (s *BootServer) serve(conn net.Conn) {
	bc := &bootConn{conn: conn, node: -1}
	r := bufio.NewReader(conn)
	for {
		msg, err := BootMsgCodec.ReadFrame(r, maxBootFrame)
		if err != nil {
			s.dropConn(bc)
			return
		}
		s.handle(bc, msg)
	}
}

func (s *BootServer) dropConn(bc *bootConn) {
	bc.conn.Close()
	s.mu.Lock()
	if bc.node >= 0 && s.conns[bc.node] == bc {
		delete(s.conns, bc.node)
	}
	s.mu.Unlock()
}

func (s *BootServer) handle(bc *bootConn, msg bootMsg) {
	switch msg.Kind {
	case bootHello:
		s.mu.Lock()
		bc.node = msg.Node
		s.conns[msg.Node] = bc
		s.mu.Unlock()
		_ = bc.send(bootReply{ID: msg.ID})

	case bootRM:
		req := msg.RM
		req.Timeout = msg.Timeout
		s.rm.serve(req, bootWaiter{conn: bc, id: msg.ID}, func(r rmResp) {
			_ = bc.send(bootReply{ID: msg.ID, Res: r})
		})
		if req.Op == rmNoteDead {
			s.failFetches(req.Rank)
		}

	case bootModex:
		// Store rank-committed modex data and wake any parked fetches.
		s.mu.Lock()
		var woken []func()
		for k, v := range msg.KV {
			full := fmt.Sprintf("modex/%d/%s", msg.Node, k)
			s.modex[full] = v
			for _, reply := range s.fetches.takeLocked(func(k string) bool { return k == full }) {
				woken = append(woken, func() { reply(bootReply{Res: rmResp{OK: true, Val: v}}) })
			}
		}
		s.mu.Unlock()
		for _, wake := range woken {
			wake()
		}

	case bootFetch:
		// The same rule as Daemon.Fetch: a terminated rank's data is
		// hopeless, found or not. Checked under s.mu, so a fetch either
		// sees the note here or is parked before failFetches runs.
		rank, _, isModex := ParseModexKey(msg.Key)
		s.mu.Lock()
		if isModex && s.rm.isDead(rank) {
			s.mu.Unlock()
			_ = bc.send(bootReply{ID: msg.ID, Dead: true})
			return
		}
		if v, ok := s.modex[msg.Key]; ok {
			s.mu.Unlock()
			_ = bc.send(bootReply{ID: msg.ID, Res: rmResp{OK: true, Val: v}})
			return
		}
		s.fetches.parkLocked(msg.Key, bootWaiter{conn: bc, id: msg.ID}, msg.Timeout, func(r bootReply) {
			r.ID = msg.ID
			_ = bc.send(r)
		})
		s.mu.Unlock()

	case bootExchange:
		s.mu.Lock()
		op := s.ops[msg.Key]
		if op == nil {
			op = &bootOp{contribs: make(map[int][]byte)}
			s.ops[msg.Key] = op
		}
		op.contribs[msg.Node] = msg.Val
		op.waiters = append(op.waiters, bootWaiter{conn: bc, id: msg.ID})
		if len(op.contribs) < len(msg.Participants) {
			s.mu.Unlock()
			return
		}
		delete(s.ops, msg.Key)
		waiters := op.waiters
		result := op.contribs
		s.mu.Unlock()
		for _, w := range waiters {
			_ = w.conn.send(bootReply{ID: w.id, Map: result})
		}

	case bootBcast:
		// Fan the event out to every connected child, the sender included
		// (the Daemon delivers broadcast events to its own handler too).
		for _, c := range s.children() {
			_ = c.send(bootReply{Event: msg.Val})
		}

	case bootNotify:
		s.mu.Lock()
		c := s.conns[msg.Node]
		s.mu.Unlock()
		if c != nil {
			_ = c.send(bootReply{Event: msg.Val})
		}
	}
}

// failFetches answers every fetch parked on rank's modex data with
// ErrDeadParticipant: that data can no longer arrive.
func (s *BootServer) failFetches(rank int) {
	s.mu.Lock()
	woken := s.fetches.takeLocked(func(k string) bool {
		r, _, ok := ParseModexKey(k)
		return ok && r == rank
	})
	s.mu.Unlock()
	for _, reply := range woken {
		reply(bootReply{Dead: true})
	}
}

// BootClient is a child process's connection to the BootServer. It
// implements pmix.Runtime, so a pmix.Server runs on it unchanged.
type BootClient struct {
	rmClient // the resource-manager calls, over call/post below

	conn net.Conn
	node int

	handler   ServerHandler
	handlerMu sync.RWMutex //gompilint:lockorder rank=15

	mu      sync.Mutex //gompilint:lockorder rank=16
	pending map[uint64]chan bootReply
	dead    error

	writeMu sync.Mutex //gompilint:lockorder rank=18

	nextID atomic.Uint64
}

// DialBoot connects to the parent's rendezvous service and registers this
// process as node (with PPN=1, node == rank) of an np-rank job.
func DialBoot(addr string, node, np int) (*BootClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("prrte: boot dial %q: %w", addr, err)
	}
	c := &BootClient{
		conn:    conn,
		node:    node,
		pending: make(map[uint64]chan bootReply),
	}
	c.rmClient = rmClient{c}
	go c.read()
	// The hello reply doubles as the registration barrier: once it returns,
	// broadcasts and notifies reach this process.
	if _, err := c.roundTrip(bootMsg{Kind: bootHello, Node: node}, defaultBootTimeout); err != nil {
		conn.Close()
		return nil, fmt.Errorf("prrte: boot hello: %w", err)
	}
	return c, nil
}

// Close tears down the connection; outstanding calls fail.
func (c *BootClient) Close() { c.conn.Close() }

// read is the single receiver: correlated replies route to their waiters,
// ID-0 pushes are events for the attached server.
func (c *BootClient) read() {
	br := bufio.NewReader(c.conn)
	for {
		r, err := BootReplyCodec.ReadFrame(br, maxBootFrame)
		if err != nil {
			c.fail(fmt.Errorf("prrte: boot connection lost: %w", err))
			return
		}
		if r.ID == 0 {
			c.handlerMu.RLock()
			h := c.handler
			c.handlerMu.RUnlock()
			if h != nil && r.Event != nil {
				h.HandleEvent(r.Event)
			}
			continue
		}
		c.mu.Lock()
		ch := c.pending[r.ID]
		delete(c.pending, r.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- r
		}
	}
}

// fail poisons the client: every outstanding and future call errors.
func (c *BootClient) fail(err error) {
	c.mu.Lock()
	if c.dead == nil {
		c.dead = err
	}
	pending := c.pending
	c.pending = make(map[uint64]chan bootReply)
	c.mu.Unlock()
	for _, ch := range pending {
		ch <- bootReply{Err: err.Error()}
	}
}

// push sends a fire-and-forget message.
func (c *BootClient) push(msg bootMsg) error {
	c.mu.Lock()
	dead := c.dead
	c.mu.Unlock()
	if dead != nil {
		return dead
	}
	frame := BootMsgCodec.AppendFrame(nil, msg)
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	_, err := c.conn.Write(frame)
	return err
}

// roundTrip sends a correlated request and waits for its reply.
func (c *BootClient) roundTrip(msg bootMsg, timeout time.Duration) (bootReply, error) {
	if timeout <= 0 {
		timeout = defaultBootTimeout
	}
	msg.ID = c.nextID.Add(1)
	msg.Timeout = timeout
	ch := make(chan bootReply, 1)
	c.mu.Lock()
	c.pending[msg.ID] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.pending, msg.ID)
		c.mu.Unlock()
	}()
	if err := c.push(msg); err != nil {
		return bootReply{}, err
	}

	// The parent enforces the deadline for parked operations; this local
	// timer (with slack) only guards against a wedged parent.
	timer := time.NewTimer(timeout + 5*time.Second)
	defer timer.Stop()
	select {
	case r := <-ch:
		if r.Err != "" {
			return bootReply{}, errors.New(r.Err)
		}
		return r, nil
	case <-timer.C:
		return bootReply{}, fmt.Errorf("%w: boot %s", ErrTimeout, msg.Kind)
	}
}

// call is the client's replied RM transport: one correlated boot frame.
func (c *BootClient) call(req rmReq, timeout time.Duration) (rmResp, error) {
	r, err := c.roundTrip(bootMsg{Kind: bootRM, RM: req}, timeout)
	return r.Res, err
}

// post is the client's fire-and-forget RM transport.
func (c *BootClient) post(req rmReq) error { return c.push(bootMsg{Kind: bootRM, RM: req}) }

// --- pmix.Runtime ---

// Node returns this process's node index (== rank in process mode).
func (c *BootClient) Node() int { return c.node }

// AttachServer installs the PMIx server for event pushes.
func (c *BootClient) AttachServer(h ServerHandler) {
	c.handlerMu.Lock()
	c.handler = h
	c.handlerMu.Unlock()
}

// RPCDelay is a no-op: in process mode the real wire is the cost.
func (c *BootClient) RPCDelay() {}

// Profile returns a zero-delay profile — process mode measures real time,
// it does not model it.
func (c *BootClient) Profile() topo.Profile { return topo.Loopback(1) }

// Fetch performs a direct-modex read via the parent. Unlike the simulated
// daemon, the parent parks unresolved fetches until the owning child's
// modex push arrives, absorbing cross-child publish/fetch races; a fetch of
// a rank the RM knows is dead fails with ErrDeadParticipant, parked or not.
func (c *BootClient) Fetch(node int, key string, timeout time.Duration) ([]byte, bool, error) {
	r, err := c.roundTrip(bootMsg{Kind: bootFetch, Key: key}, timeout)
	if err != nil {
		return nil, false, err
	}
	if r.Dead {
		return nil, false, fmt.Errorf("prrte: fetch %q: %w", key, ErrDeadParticipant)
	}
	return r.Res.Val, r.Res.OK, nil
}

// Exchange contributes to a collective and blocks until every participant
// node has arrived. The abort channel is ignored in process mode: the
// launcher-side exchange relies on its timeout, and respawn re-admission is
// a simulator-mode feature for now.
func (c *BootClient) Exchange(opKey string, participants []int, local []byte, timeout time.Duration, abort <-chan struct{}) (map[int][]byte, error) {
	r, err := c.roundTrip(bootMsg{Kind: bootExchange, Node: c.node, Key: opKey, Val: local, Participants: participants}, timeout)
	if err != nil {
		return nil, err
	}
	return r.Map, nil
}

// BroadcastEvent delivers an event to every process, this one included.
func (c *BootClient) BroadcastEvent(data []byte) {
	_ = c.push(bootMsg{Kind: bootBcast, Val: data})
}

// NotifyNode delivers an event to one process.
func (c *BootClient) NotifyNode(node int, data []byte) error {
	return c.push(bootMsg{Kind: bootNotify, Node: node, Val: data})
}

// PublishModex pushes a rank's committed modex data to the parent, where
// other processes' fetches are answered. TCP ordering plus the parent's
// serial per-connection processing guarantee the push is visible before any
// collective contribution this process sends afterwards.
func (c *BootClient) PublishModex(rank int, kv map[string][]byte) {
	if len(kv) == 0 {
		return
	}
	_ = c.push(bootMsg{Kind: bootModex, Node: rank, KV: kv})
}
