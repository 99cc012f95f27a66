package pmix

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"time"

	"gompi/internal/prrte"
	"gompi/internal/simnet"
	"gompi/internal/topo"
)

// Server is the PMIx server for one node. In simulator mode it is hosted on
// the node's PRRTE daemon; in process mode on a BootClient relaying to the
// launcher. Either way it services the clients of all local ranks.
type Server struct {
	daemon Runtime
	job    prrte.JobMap
	nspace string

	mu          sync.Mutex //gompilint:lockorder rank=22
	clients     map[int]*Client
	published   map[int]map[string][]byte // committed per local rank
	remoteCache map[string][]byte         // "modex/<rank>/<key>" -> value
	colls       map[string]*collOp
	executing   map[string]*collOp // ops whose executor is in the inter-server exchange
	seqs        map[string]uint64
	terminated  map[int]bool
	pendingEvs  map[int][]Event // targeted events for not-yet-connected ranks

	evq    chan Event
	closed chan struct{}

	// workMu serializes modeled server-side processing: real PMIx servers
	// handle local client requests one at a time, which is why collective
	// runtime operations scale with the number of local participants.
	workMu sync.Mutex //gompilint:lockorder rank=20
}

// work charges d of serialized server processing time.
func (s *Server) work(d time.Duration) {
	if d <= 0 {
		return
	}
	s.workMu.Lock()
	simnet.Delay(d)
	s.workMu.Unlock()
}

func (s *Server) profile() topo.Profile {
	return s.daemon.Profile()
}

// collOp is the local rendezvous state for one collective instance.
type collOp struct {
	need     int
	ranks    []int // all participants (across nodes)
	contribs map[int][]byte
	executed bool
	done     chan struct{}
	// abort is closed when a participant rank is reported dead while the
	// executor is blocked in the inter-server exchange, cancelling it in
	// event-delivery time instead of after the full timeout; aborted guards
	// the close.
	abort   chan struct{}
	aborted bool
	result  map[int][]byte // per-rank data from all participants
	pgcid   uint64
	err     error
}

func (op *collOp) expects(rank int) bool {
	for _, r := range op.ranks {
		if r == rank {
			return true
		}
	}
	return false
}

// NewServer creates the PMIx server for the runtime's node and attaches it
// as the runtime's handler for inbound fetches and events.
func NewServer(daemon Runtime, job prrte.JobMap, nspace string) *Server {
	s := &Server{
		daemon:      daemon,
		job:         job,
		nspace:      nspace,
		clients:     make(map[int]*Client),
		published:   make(map[int]map[string][]byte),
		remoteCache: make(map[string][]byte),
		colls:       make(map[string]*collOp),
		executing:   make(map[string]*collOp),
		seqs:        make(map[string]uint64),
		terminated:  make(map[int]bool),
		pendingEvs:  make(map[int][]Event),
		evq:         make(chan Event, 1024),
		closed:      make(chan struct{}),
	}
	daemon.AttachServer(s)
	go s.dispatchEvents()
	return s
}

// Node returns the node this server manages.
func (s *Server) Node() int { return s.daemon.Node() }

// Job returns the job map.
func (s *Server) Job() prrte.JobMap { return s.job }

// Close stops the server's event dispatcher.
func (s *Server) Close() {
	select {
	case <-s.closed:
	default:
		close(s.closed)
	}
}

// Connect registers a client for a local rank and returns it. Connecting a
// rank that is not mapped to this node is a wiring bug and panics.
//
// Reconnecting a rank the server had recorded as terminated is the respawn
// path: the rank is re-admitted (it reappears in gompi://alive), stale
// modex cache entries for its old incarnation are dropped, and an
// EventProcRestarted broadcast tells every other node to do the same.
func (s *Server) Connect(rank int) *Client {
	if s.job.NodeOf(rank) != s.Node() {
		panic(fmt.Sprintf("pmix: rank %d is mapped to node %d, not node %d", rank, s.job.NodeOf(rank), s.Node()))
	}
	s.work(s.profile().ClientConnectWork)
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.clients[rank]; ok {
		return c
	}
	c := &Client{
		server: s,
		proc:   Proc{Nspace: s.nspace, Rank: rank},
		staged: make(map[string][]byte),
	}
	s.clients[rank] = c
	revived := s.terminated[rank]
	delete(s.terminated, rank)
	if revived {
		s.dropRemoteCacheLocked(rank)
	}
	pending := s.pendingEvs[rank]
	delete(s.pendingEvs, rank)
	s.mu.Unlock()
	if revived {
		s.daemon.NoteRevivedRank(rank)
		s.daemon.BroadcastEvent(encodeEvent(Event{
			Code:   EventProcRestarted,
			Source: Proc{Nspace: s.nspace, Rank: rank},
		}))
	}
	// Replay targeted events (e.g. group invitations) that arrived before
	// the process connected.
	for _, ev := range pending {
		c.deliverEvent(ev)
	}
	s.mu.Lock()
	return c
}

// HandleFetch implements prrte.ServerHandler: it serves direct-modex
// requests for data published by local ranks.
func (s *Server) HandleFetch(key string) ([]byte, bool) {
	var rank int
	var sub string
	if _, err := fmt.Sscanf(key, "modex/%d/%s", &rank, &sub); err != nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if kv, ok := s.published[rank]; ok {
		if v, ok := kv[sub]; ok {
			return v, true
		}
	}
	return nil, false
}

// HandleEvent implements prrte.ServerHandler: broadcast events are queued
// for asynchronous dispatch to local clients' handlers.
func (s *Server) HandleEvent(data []byte) {
	ev, err := decodeEvent(data)
	if err != nil {
		return
	}
	select {
	case s.evq <- ev:
	case <-s.closed:
	}
}

func (s *Server) dispatchEvents() {
	for {
		select {
		case ev := <-s.evq:
			s.mu.Lock()
			// A rank's own server is the authority on its liveness: abort
			// and Connect already updated this server's state, and the
			// runtime's, when they raised the event. Applying it again here
			// would let a termination notice still in the queue re-mark a
			// rank that has reconnected in the meantime. The broadcast is
			// for every other node.
			remote := s.job.NodeOf(ev.Source.Rank) != s.Node()
			if remote && ev.Code == EventProcTerminated {
				s.terminated[ev.Source.Rank] = true
				// Fail pending collectives that expect the dead rank on THIS
				// node too — before this pass only the dying rank's own
				// server failed them, and everyone else waited out the full
				// operation timeout.
				s.failCollsForLocked(ev.Source.Rank)
			}
			if remote && ev.Code == EventProcRestarted {
				delete(s.terminated, ev.Source.Rank)
				s.dropRemoteCacheLocked(ev.Source.Rank)
			}
			// A targeted event for a local rank that has not connected yet
			// is held until it does (it may still be initializing).
			if t := ev.Target; t != (Proc{}) && s.job.NodeOf(t.Rank) == s.Node() {
				if _, connected := s.clients[t.Rank]; !connected && !s.terminated[t.Rank] {
					s.pendingEvs[t.Rank] = append(s.pendingEvs[t.Rank], ev)
					s.mu.Unlock()
					continue
				}
			}
			clients := make([]*Client, 0, len(s.clients))
			for _, c := range s.clients {
				clients = append(clients, c)
			}
			s.mu.Unlock()
			if remote {
				switch ev.Code {
				case EventProcTerminated:
					s.daemon.NoteDeadRank(ev.Source.Rank)
				case EventProcRestarted:
					s.daemon.NoteRevivedRank(ev.Source.Rank)
				}
			}
			for _, c := range clients {
				c.deliverEvent(ev)
			}
		case <-s.closed:
			return
		}
	}
}

// seqKeyFor composes the per-rank collective counter key; collective takes
// it alongside opKey so an aborted operation can return its number.
func seqKeyFor(rank int, kind, set string) string {
	return fmt.Sprintf("%d|%s|%s", rank, kind, set)
}

// nextSeqFor hands out rank-scoped collective sequence numbers; see
// Client.nextSeq for the consistency argument.
func (s *Server) nextSeqFor(rank int, kind, set string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := seqKeyFor(rank, kind, set)
	s.seqs[k]++
	return s.seqs[k]
}

// publish commits a client's staged data, mirroring it into the runtime
// (outside s.mu — PublishModex may block on a socket).
func (s *Server) publish(rank int, kv map[string][]byte) {
	s.mu.Lock()
	dst := s.published[rank]
	if dst == nil {
		dst = make(map[string][]byte)
		s.published[rank] = dst
	}
	for k, v := range kv {
		dst[k] = v
	}
	s.mu.Unlock()
	s.daemon.PublishModex(rank, kv)
}

// get resolves a key for a proc: local published data first, then the
// remote cache, then a direct fetch from the proc's node (charged on the
// fabric). This mirrors Open MPI's on-demand add_procs behaviour (§III-B1):
// remote processes are discovered on first communication.
func (s *Server) get(rank int, key string, timeout time.Duration) ([]byte, error) {
	node := s.job.NodeOf(rank)
	cacheKey := fmt.Sprintf("modex/%d/%s", rank, key)
	s.mu.Lock()
	if node == s.Node() {
		if kv, ok := s.published[rank]; ok {
			if v, ok := kv[key]; ok {
				s.mu.Unlock()
				return v, nil
			}
		}
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s for rank %d", ErrKeyNotFound, key, rank)
	}
	if v, ok := s.remoteCache[cacheKey]; ok {
		s.mu.Unlock()
		return v, nil
	}
	s.mu.Unlock()

	data, ok, err := s.daemon.Fetch(node, cacheKey, timeout)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s for rank %d", ErrKeyNotFound, key, rank)
	}
	s.mu.Lock()
	s.remoteCache[cacheKey] = data
	s.mu.Unlock()
	return data, nil
}

// collective runs the three-stage hierarchical pattern for one local
// participant (rank) of the operation identified by opKey:
//
//	stage 1: local participants rendezvous at their server;
//	stage 2: the last local arriver drives the inter-server all-to-all
//	         (and, if leaderAlloc is set and this node is the leader,
//	         obtains a PGCID from the resource manager first);
//	stage 3: all local participants are released with the merged result.
//
// contrib is this rank's contribution; the returned map holds every
// participant rank's contribution. ranks lists all participants.
// clientWork is the modeled serialized server cost per local arrival;
// nodeWork per remote node contribution processed by the executor.
//
// seqKey is the rank's counter key from seqKeyFor ("" = no counter). When
// the rank times out at stage 3 before anyone executed the operation, its
// contribution is withdrawn and the sequence number returned: the op never
// consumed either, and keeping them would poison the next collective over
// the same set — the retrying rank would wait under a fresh opKey while the
// stale contribution completes the old one for everyone else.
func (s *Server) collective(opKey, seqKey string, rank int, ranks []int, contrib []byte, leaderAlloc string, clientWork, nodeWork time.Duration, timeout time.Duration) (map[int][]byte, uint64, error) {
	s.work(clientWork)
	nodes := participantNodes(ranks, s.job.NodeOf)
	needLocal := 0
	for _, r := range ranks {
		if s.job.NodeOf(r) == s.Node() {
			needLocal++
		}
	}
	if needLocal == 0 {
		return nil, 0, fmt.Errorf("%w: rank %d not hosted on node %d", ErrBadArgument, rank, s.Node())
	}

	s.mu.Lock()
	// Fail fast when a participant is already known dead: waiting for its
	// contribution could only end in a timeout. The sequence number is
	// returned like the timeout-withdrawal path — the op never consumed it —
	// and callers recover by rebuilding over a survivor set (which has a
	// different set key, hence its own counter).
	for _, r := range ranks {
		if s.terminated[r] {
			if seqKey != "" && s.seqs[seqKey] > 0 {
				s.seqs[seqKey]--
			}
			s.mu.Unlock()
			return nil, 0, fmt.Errorf("pmix: collective %q: rank %d: %w", opKey, r, ErrTerminated)
		}
	}
	op := s.colls[opKey]
	if op == nil {
		op = &collOp{need: needLocal, ranks: ranks, contribs: make(map[int][]byte), done: make(chan struct{}), abort: make(chan struct{})}
		s.colls[opKey] = op
	}
	if _, dup := op.contribs[rank]; dup {
		s.mu.Unlock()
		return nil, 0, fmt.Errorf("%w: rank %d joined %q twice", ErrBadArgument, rank, opKey)
	}
	op.contribs[rank] = contrib
	isExecutor := len(op.contribs) == op.need && !op.executed
	if isExecutor {
		op.executed = true
	}
	s.mu.Unlock()

	if isExecutor {
		s.executeCollective(opKey, op, nodes, leaderAlloc, ranks, nodeWork, timeout)
	}

	// Stage 3: wait for completion.
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		select {
		case <-op.done:
		case <-timer.C:
			s.mu.Lock()
			if s.colls[opKey] == op && !op.executed {
				delete(op.contribs, rank)
				if len(op.contribs) == 0 {
					delete(s.colls, opKey)
				}
				if seqKey != "" && s.seqs[seqKey] > 0 {
					s.seqs[seqKey]--
				}
			}
			s.mu.Unlock()
			return nil, 0, fmt.Errorf("pmix: collective %q: %w", opKey, ErrTimeout)
		}
	} else {
		<-op.done
	}
	if op.err != nil {
		return nil, 0, op.err
	}
	return op.result, op.pgcid, nil
}

// executeCollective runs stage 2 on behalf of all local participants.
func (s *Server) executeCollective(opKey string, op *collOp, nodes []int, leaderAlloc string, ranks []int, nodeWork, timeout time.Duration) {
	defer close(op.done)

	// Leader obtains the PGCID from the resource manager before the
	// exchange so it can ride along with the leader's contribution.
	var pgcid uint64
	if leaderAlloc != "" && nodes[0] == s.Node() {
		id, err := s.daemon.AllocPGCID(leaderAlloc, ranks, timeout)
		if err != nil {
			op.err = err
			return
		}
		pgcid = id
	}

	s.mu.Lock()
	local := nodeBlob{PGCID: pgcid, Data: make(map[int][]byte, len(op.contribs))}
	for r, c := range op.contribs {
		local.Data[r] = c
	}
	delete(s.colls, opKey)
	// Track the in-flight exchange so a death notification can cancel it
	// (failCollsForLocked closes op.abort).
	s.executing[opKey] = op
	s.mu.Unlock()

	contribution := encodeNodeBlob(local)
	results, err := s.daemon.Exchange(opKey, nodes, contribution, timeout, op.abort)
	s.mu.Lock()
	delete(s.executing, opKey)
	s.mu.Unlock()
	if err != nil {
		// Normalize runtime-level errors so callers check one error class;
		// the prrte chain stays inspectable.
		if errors.Is(err, prrte.ErrTimeout) {
			err = fmt.Errorf("pmix: collective %q: %w (%w)", opKey, ErrTimeout, err)
		} else if errors.Is(err, prrte.ErrDeadParticipant) {
			err = fmt.Errorf("pmix: collective %q: %w (%w)", opKey, ErrTerminated, err)
		}
		op.err = err
		return
	}
	// Process each remote node's contribution (modeled serialized cost).
	s.work(nodeWork * time.Duration(len(nodes)-1))
	merged := make(map[int][]byte)
	var gotPGCID uint64
	for _, blob := range results {
		nb, err := decodeNodeBlob(blob)
		if err != nil {
			op.err = fmt.Errorf("pmix: collective %q: corrupt contribution: %w", opKey, err)
			return
		}
		if nb.PGCID != 0 {
			gotPGCID = nb.PGCID
		}
		for r, c := range nb.Data {
			merged[r] = c
		}
	}
	op.result = merged
	op.pgcid = gotPGCID
}

// nodeBlob is the per-node contribution to an inter-server exchange.
type nodeBlob struct {
	PGCID uint64
	Data  map[int][]byte
}

func encodeNodeBlob(nb nodeBlob) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(nb); err != nil {
		panic(fmt.Sprintf("pmix: node blob encode: %v", err))
	}
	return buf.Bytes()
}

func decodeNodeBlob(data []byte) (nodeBlob, error) {
	var nb nodeBlob
	err := gob.NewDecoder(bytes.NewReader(data)).Decode(&nb)
	return nb, err
}

// fence implements PMIx_Fence for one local participant. With collect set,
// every participant's committed data is exchanged and cached so later Gets
// are local.
func (s *Server) fence(rank int, ranks []int, opKey, seqKey string, collect bool, timeout time.Duration) error {
	var contrib []byte
	if collect {
		s.mu.Lock()
		kv := s.published[rank]
		cp := make(map[string][]byte, len(kv))
		for k, v := range kv {
			cp[k] = v
		}
		s.mu.Unlock()
		contrib = encodeKV(cp)
	}
	prof := s.profile()
	result, _, err := s.collective(opKey, seqKey, rank, ranks, contrib, "", prof.FenceClientWork, prof.FenceNodeWork, timeout)
	if err != nil {
		return err
	}
	if collect {
		s.mu.Lock()
		for r, blob := range result {
			if len(blob) == 0 || s.job.NodeOf(r) == s.Node() {
				continue
			}
			kv, err := decodeKV(blob)
			if err != nil {
				continue
			}
			for k, v := range kv {
				s.remoteCache[fmt.Sprintf("modex/%d/%s", r, k)] = v
			}
		}
		s.mu.Unlock()
	}
	return nil
}

func encodeKV(kv map[string][]byte) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(kv); err != nil {
		panic(fmt.Sprintf("pmix: kv encode: %v", err))
	}
	return buf.Bytes()
}

func decodeKV(data []byte) (map[string][]byte, error) {
	var kv map[string][]byte
	err := gob.NewDecoder(bytes.NewReader(data)).Decode(&kv)
	return kv, err
}

// failCollsForLocked fails every pending collective that expects a rank now
// known dead. Ops still gathering local contributions complete immediately
// with ErrTerminated; an op whose executor is already blocked in the
// inter-server exchange has its abort channel closed so the exchange
// returns in event-delivery time rather than after the full timeout.
// Caller holds s.mu.
func (s *Server) failCollsForLocked(rank int) {
	for key, op := range s.colls {
		if op.executed || !op.expects(rank) {
			continue
		}
		op.err = fmt.Errorf("%w: rank %d", ErrTerminated, rank)
		op.executed = true
		close(op.done)
		delete(s.colls, key)
	}
	for _, op := range s.executing {
		if !op.expects(rank) || op.aborted {
			continue
		}
		op.aborted = true
		close(op.abort)
	}
}

// dropRemoteCacheLocked forgets cached modex data for one rank, used when
// the rank is respawned: the new incarnation publishes fresh endpoints and
// the old entries would route traffic to a dead mailbox. Caller holds s.mu.
func (s *Server) dropRemoteCacheLocked(rank int) {
	prefix := fmt.Sprintf("modex/%d/", rank)
	for k := range s.remoteCache {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			delete(s.remoteCache, k)
		}
	}
}

// abort marks a local rank terminated and broadcasts the failure to every
// node. Pending local collectives that expected the rank fail immediately;
// remote participants learn through the broadcast, whose handler runs the
// same failure pass on their server (dispatchEvents), so no one is left to
// ride a timeout out.
func (s *Server) abort(rank int) {
	s.mu.Lock()
	s.terminated[rank] = true
	delete(s.clients, rank)
	s.failCollsForLocked(rank)
	s.mu.Unlock()
	s.daemon.NoteDeadRank(rank)
	s.daemon.BroadcastEvent(encodeEvent(Event{
		Code:   EventProcTerminated,
		Source: Proc{Nspace: s.nspace, Rank: rank},
	}))
}

// queryPsets returns the runtime's pset registry.
func (s *Server) queryPsets() (map[string][]int, error) {
	return s.daemon.QueryPsets(0)
}
