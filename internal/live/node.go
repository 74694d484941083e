package live

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"p2pmss/internal/content"
	"p2pmss/internal/disco"
	"p2pmss/internal/engine"
	"p2pmss/internal/span"
	"p2pmss/internal/transport"
)

// NodeConfig configures a session-multiplexing live node.
type NodeConfig struct {
	// Store is the node's content catalog: it serves any session
	// requesting a content it holds.
	Store *content.Store
	// Roster lists every node's address (including this one). It may be
	// empty when Discover resolves the membership dynamically.
	Roster []string
	// Discover makes the node build its own gossip-backed directory
	// (internal/disco): it announces the Store's catalog over the node's
	// endpoint and resolves session rosters from the swarm, so Roster
	// can stay empty. Sessions it serves then stamp their roster on the
	// wire, so a node that has never seen one can number its members.
	Discover bool
	// Bootstrap lists initial announcement contacts for Discover.
	Bootstrap []string
	// AnnounceInterval is the discovery announcement period (default
	// 500 ms); DirectoryTTL is how long an un-refreshed directory entry
	// lives (default 6×AnnounceInterval).
	AnnounceInterval time.Duration
	DirectoryTTL     time.Duration
	// DirectorySeed seeds the discovery gossip and signs announcements —
	// it is the swarm's shared secret, so every node must use the same
	// value (unlike Seed, which is perturbed per node). Zero falls back
	// to Seed.
	DirectorySeed int64
	// MaxSessions bounds the sessions (serving peers plus leaves) the
	// node admits concurrently; 0 is unlimited. Past the budget, inbound
	// session-opening traffic is dropped (the requesting leaf fails over
	// to another peer) and local Opens error.
	MaxSessions int
	// ReapAfter is how long a finished serving peer may sit idle before
	// its session state is reaped. Zero defaults to 5 s; negative
	// disables serving-peer reaping. Completed leaf sessions are always
	// reaped promptly (their results stay readable via the returned
	// LeafSession).
	ReapAfter time.Duration
	// H is the selection fanout; Interval the parity interval h.
	H, Interval int
	// Delta is the assumed one-way latency for marking (default 10 ms).
	Delta time.Duration
	// Protocol selects TCoP (default) or DCoP for sessions this node
	// serves.
	Protocol Protocol
	// HandshakeTimeout bounds each TCoP confirmation round of a serving
	// peer; children silent past the deadline are presumed crashed and
	// replaced. Zero means 4·Delta + 50 ms.
	HandshakeTimeout time.Duration
	// Retries bounds how many alternate peers a serving peer contacts
	// when a selected child refuses, is unreachable, or times out. Zero
	// means H; negative disables retries.
	Retries int
	// Seed seeds per-session randomness deterministically; 0 uses the
	// clock. A session's members draw from SessionSeed(Seed, session id),
	// each at its roster index (the leaf at LeafID), so nodes sharing a
	// Seed draw what the simulator draws at that session seed.
	Seed int64
	// Obs bundles the node's observers in the struct shared with the
	// simulation: Metrics instruments the node and all its sessions,
	// Spans collects every session's causal spans (each session gets its
	// own trace, derived from the session id so all nodes agree), and
	// Flight records every serving peer's engine event/effect stream into
	// per-(session, peer) rings — all nodes of a population share one
	// set. Obs.SpanTrace is ignored.
	Obs engine.Observability
}

// sessionShards fixes the width of the node's session table. Power of
// two so the shard index is a mask of the session-id hash.
const sessionShards = 32

// sessionShard is one slice of a node's session table: its own lock,
// its own maps. Demultiplexing a thousand concurrent sessions through
// one node mutex made every data packet of every session contend on
// the same cache line; hashing the SessionID over fixed shards keeps
// unrelated sessions on unrelated locks.
type sessionShard struct {
	mu      sync.Mutex
	closed  bool
	serving map[SessionID]*Peer
	leaves  map[SessionID]*Leaf
}

// shardIndex hashes a session id (inline FNV-1a, no allocation) onto a
// shard slot.
func shardIndex(sid SessionID) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(sid); i++ {
		h ^= uint32(sid[i])
		h *= 16777619
	}
	return h & (sessionShards - 1)
}

// nodeRuntime is the node state assembled during construction and
// published with a single atomic store: a handler that races the
// constructor (datagram transports dispatch the moment open binds)
// either sees all of it or none of it.
type nodeRuntime struct {
	ep      transport.Endpoint
	met     nodeMetrics
	dir     disco.Directory
	catalog *disco.Catalog // non-nil only when this node runs discovery
}

// Node hosts a content store on one transport endpoint and participates
// in many concurrent streaming sessions — serving some as a contents
// peer and consuming others as a leaf. Inbound traffic is demultiplexed
// by the SessionID carried in every message onto a sharded session
// table; a request, control, or commit for an unknown session lazily
// creates the serving-peer state for it.
type Node struct {
	cfg NodeConfig
	// engine is the serving peers' engine config, N left to each
	// session's roster.
	engine engine.Config
	rt     atomic.Pointer[nodeRuntime]

	closed   atomic.Bool
	sessions atomic.Int64 // admitted sessions, serving + leaf
	shards   [sessionShards]sessionShard
	carry    bool // Discover: sessions stamp their roster on the wire

	mu     sync.Mutex // guards nextID
	nextID int

	reapStop  chan struct{}
	reapDone  chan struct{}
	closeOnce sync.Once
}

// NewNode creates a node on the given transport, validating and
// resolving every default the sessions it hosts read.
func NewNode(cfg NodeConfig, tr Transport) (*Node, error) {
	if tr == nil {
		return nil, fmt.Errorf("live: node needs a transport")
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("live: node needs a store")
	}
	if cfg.Delta == 0 {
		cfg.Delta = 10 * time.Millisecond
	}
	if cfg.ReapAfter == 0 {
		cfg.ReapAfter = 5 * time.Second
	}
	switch cfg.Protocol {
	case "":
		cfg.Protocol = engine.TCoP
	case engine.TCoP, engine.DCoP:
	default:
		return nil, fmt.Errorf("live: unknown protocol %q", cfg.Protocol)
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 4*cfg.Delta + 50*time.Millisecond
	}
	if cfg.Retries == 0 {
		cfg.Retries = cfg.H
	}
	if cfg.DirectorySeed == 0 {
		cfg.DirectorySeed = cfg.Seed
	}
	if cfg.Seed == 0 {
		cfg.Seed = time.Now().UnixNano()
	}
	ecfg := engine.Config{
		N:                1,
		H:                cfg.H,
		Interval:         cfg.Interval,
		MarkDelta:        (2 * cfg.Delta).Seconds(),
		HandshakeTimeout: cfg.HandshakeTimeout.Seconds(),
		CommitRelease:    (4 * cfg.HandshakeTimeout).Seconds(),
		Retries:          cfg.Retries,
		DCoP:             cfg.Protocol == engine.DCoP,
	}
	if err := ecfg.Normalize(); err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	n := &Node{
		cfg:      cfg,
		engine:   ecfg,
		carry:    cfg.Discover,
		reapStop: make(chan struct{}),
		reapDone: make(chan struct{}),
	}
	for i := range n.shards {
		n.shards[i].serving = make(map[SessionID]*Peer)
		n.shards[i].leaves = make(map[SessionID]*Leaf)
	}
	ep, err := tr.open(n.handle)
	if err != nil {
		return nil, err
	}
	rt := &nodeRuntime{ep: ep, met: newNodeMetrics(cfg.Obs.Metrics, ep.Name())}
	if cfg.Discover {
		cat, err := disco.NewCatalog(disco.CatalogConfig{
			Self:      ep.Name(),
			Contents:  cfg.Store.IDs,
			Bootstrap: cfg.Bootstrap,
			Send: func(to string, payload []byte) {
				ep.Send(to, transport.Msg{Type: typeAnnounce, From: ep.Name(), Payload: payload}) //nolint:errcheck // gossip redundancy is the retry
			},
			Interval: cfg.AnnounceInterval,
			TTL:      cfg.DirectoryTTL,
			Seed:     cfg.DirectorySeed,
			Metrics:  cfg.Obs.Metrics,
		})
		if err != nil {
			ep.Close()
			return nil, err
		}
		rt.catalog = cat
		rt.dir = cat
	} else {
		rt.dir = disco.NewStatic(cfg.Roster)
	}
	// Messages that beat this store are dropped, like any datagram
	// arriving while a process is still booting.
	n.rt.Store(rt)
	go n.reaper()
	return n, nil
}

// runtime returns the node's published runtime (never nil after NewNode
// returns).
func (n *Node) runtime() *nodeRuntime { return n.rt.Load() }

// Addr returns the node's transport address.
func (n *Node) Addr() string { return n.runtime().ep.Name() }

// Directory returns the directory this node resolves session rosters
// from (a static roster wrapper unless discovery is configured).
func (n *Node) Directory() disco.Directory { return n.runtime().dir }

// handle demultiplexes inbound traffic by session: data goes to the
// session's leaf; coordination goes to the session's serving peer,
// lazily created when a request, control, or commit opens a session this
// node has not seen. Session-less announce traffic feeds the discovery
// catalog.
func (n *Node) handle(m transport.Msg) {
	rt := n.rt.Load()
	if rt == nil || n.closed.Load() {
		// The message beat the constructor (or the node is going down);
		// drop it like any datagram for a process still booting.
		return
	}
	sid := SessionID(m.Session)
	if sid == "" {
		if m.Type == typeAnnounce && rt.catalog != nil {
			rt.catalog.Deliver(m.From, m.Payload)
		}
		return // all other node traffic is session-scoped
	}
	sh := &n.shards[shardIndex(sid)]
	if m.Type == typeData {
		sh.mu.Lock()
		l := sh.leaves[sid]
		sh.mu.Unlock()
		if l != nil {
			l.handle(m)
		}
		return
	}
	sh.mu.Lock()
	p := sh.serving[sid]
	sh.mu.Unlock()
	if p == nil {
		switch m.Type {
		case typeRequest, typeControl, typeCommit:
			if roster := n.sessionRosterFrom(m); roster != nil {
				p = n.servingPeer(rt, sid, roster)
			}
			// Confirm, repair, and join only make sense for sessions the
			// node already participates in.
		}
	}
	if p != nil {
		p.handle(m)
	}
}

// sessionRosterFrom resolves the roster a session-opening message runs
// under: the roster carried on the wire when present (dynamically
// discovered sessions), else the node's static roster. Returns nil when
// neither exists — the session has no derivable peer numbering and the
// message must be dropped.
func (n *Node) sessionRosterFrom(m transport.Msg) []string {
	if n.carry {
		if roster, err := peekRoster(m.Payload); err == nil && len(roster) > 0 {
			return roster
		}
	}
	if len(n.cfg.Roster) > 0 {
		return n.cfg.Roster
	}
	return nil
}

// servingPeer returns the node's serving peer of session sid, creating
// it under roster when there is none yet; nil when the node is closing
// or its session budget is spent.
func (n *Node) servingPeer(rt *nodeRuntime, sid SessionID, roster []string) *Peer {
	sh := &n.shards[shardIndex(sid)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if p := sh.serving[sid]; p != nil || sh.closed || !n.admit(rt) {
		return p
	}
	p := newPeer(n, rt.ep, sid, roster)
	sh.serving[sid] = p
	rt.met.servingSessions.Add(1)
	return p
}

// admit claims one slot of the session budget, or rejects.
func (n *Node) admit(rt *nodeRuntime) bool {
	if n.cfg.MaxSessions > 0 && n.sessions.Add(1) > int64(n.cfg.MaxSessions) {
		n.sessions.Add(-1)
		rt.met.admissionRejected.Inc()
		return false
	}
	if n.cfg.MaxSessions <= 0 {
		n.sessions.Add(1)
	}
	return true
}

// sessionSeed is the base seed of session sid's members on this node.
func (n *Node) sessionSeed(sid SessionID) int64 {
	return engine.SessionSeed(n.cfg.Seed, string(sid))
}

// sessionObs is the node's observers as one session's members use them:
// each derives the session's span trace from its id, so every member
// agrees on it without coordination.
func (n *Node) sessionObs(sid SessionID) engine.Observability {
	o := n.cfg.Obs
	if o.Spans != nil {
		o.SpanTrace = span.DeriveTrace("live/session=" + string(sid))
	}
	return o
}

// SessionConfig describes one leaf session a node opens.
type SessionConfig struct {
	// ID names the session; empty generates a unique one.
	ID SessionID
	// ContentID names the content to stream.
	ContentID string
	// ContentSize and PacketSize describe the expected content.
	ContentSize, PacketSize int
	// Rate is the content rate in packets per second.
	Rate float64
	// H and Interval override the node defaults when positive.
	H, Interval int
	// RepairAfter enables repair (zero disables it). A missing packet
	// parity provably cannot recover is requested as soon as an arrival
	// shows it; RepairAfter is how long a silent sender still holds that
	// gap rule back, and how long the leaf waits without progress before
	// its backstop round asks for everything still missing (four times
	// as long before the first packet). Stalls are checked for every
	// RepairAfter/2, until 20 RepairAfter periods pass without progress.
	// Open rejects a period not shorter than the node's ReapAfter:
	// serving peers would be reaped before the stall round reached them.
	RepairAfter time.Duration
	// RequestRetry re-sends the session's content requests whose delivery
	// was never confirmed by data, once per interval, at most five times,
	// for datagram transports that lose a request without a send error;
	// zero disables re-sends.
	RequestRetry time.Duration
	// Seed overrides the node-derived session seed when non-zero: the
	// leaf draws from PeerSeed(Seed, LeafID).
	Seed int64
}

// LeafSession is a leaf session hosted on a node.
type LeafSession struct {
	ID SessionID
	*Leaf
}

// Open starts a leaf session on the node: the serving peers are
// resolved from the node's directory (which peers announce the
// content), the content is requested from them, and reassembled here.
// Many sessions may be open concurrently on one node.
func (n *Node) Open(sc SessionConfig) (*LeafSession, error) {
	if n.closed.Load() {
		return nil, fmt.Errorf("live: node closed")
	}
	if sc.RepairAfter > 0 && n.cfg.ReapAfter > 0 && sc.RepairAfter >= n.cfg.ReapAfter {
		// A serving peer reaped before the leaf's stall round drops the
		// repair request for good: the session would end a few packets
		// short with nothing to say why.
		return nil, fmt.Errorf("live: RepairAfter %v must be shorter than the node's ReapAfter %v", sc.RepairAfter, n.cfg.ReapAfter)
	}
	if sc.Rate <= 0 {
		return nil, fmt.Errorf("live: rate %v must be positive", sc.Rate)
	}
	rt := n.runtime()
	if sc.ID == "" {
		n.mu.Lock()
		n.nextID++
		sc.ID = makeSessionID(rt.ep.Name(), sc.ContentID, n.nextID)
		n.mu.Unlock()
	}
	if sc.H <= 0 {
		sc.H = n.cfg.H
	}
	if sc.Interval <= 0 {
		sc.Interval = n.cfg.Interval
	}
	if sc.Seed == 0 {
		sc.Seed = n.sessionSeed(sc.ID)
	}
	full := rt.dir.Lookup(sc.ContentID)
	roster := others(full, rt.ep.Name())
	if len(roster) == 0 {
		return nil, fmt.Errorf("live: no peers serve content %q", sc.ContentID)
	}
	if sc.H > len(roster) {
		return nil, fmt.Errorf("live: H=%d exceeds the %d peers serving content %q", sc.H, len(roster), sc.ContentID)
	}
	var carried []string
	if n.carry {
		carried = full
	}
	l := newLeaf(n, rt.ep, sc, roster, carried)
	sh := &n.shards[shardIndex(sc.ID)]
	var err error
	sh.mu.Lock()
	switch {
	case sh.closed:
		err = fmt.Errorf("live: node closed")
	case sh.leaves[sc.ID] != nil:
		err = fmt.Errorf("live: session %q already open", sc.ID)
	case !n.admit(rt):
		err = fmt.Errorf("live: session budget exhausted (%d of %d open)", n.sessions.Load(), n.cfg.MaxSessions)
	default:
		sh.leaves[sc.ID] = l
		rt.met.leafSessions.Add(1)
	}
	sh.mu.Unlock()
	if err == nil {
		err = l.start()
	}
	if err != nil {
		l.Close()
		return nil, err
	}
	return &LeafSession{ID: sc.ID, Leaf: l}, nil
}

// others returns addrs without self.
func others(addrs []string, self string) []string {
	var out []string
	for _, a := range addrs {
		if a != self {
			out = append(out, a)
		}
	}
	return out
}

// Join volunteers this node for an in-flight session: it asks the other
// nodes serving the content, round-robin, to hand over a slice of their
// remaining stream, and returns the node's serving peer once a member
// commits one. It errors when no member hands a slice before the
// timeout (e.g. the session already ended, or every member's stream is
// merged beyond slicing).
func (n *Node) Join(sid SessionID, contentID string, timeout time.Duration) (*Peer, error) {
	if sid == "" {
		return nil, fmt.Errorf("live: join needs a session id")
	}
	if n.closed.Load() {
		return nil, fmt.Errorf("live: node closed")
	}
	rt := n.runtime()
	full := rt.dir.Lookup(contentID)
	if len(full) == 0 {
		full = n.cfg.Roster
	}
	targets := others(full, rt.ep.Name())
	if len(targets) == 0 {
		return nil, fmt.Errorf("live: join %q: no peers serve content %q", sid, contentID)
	}
	p := n.servingPeer(rt, sid, full)
	if p == nil {
		return nil, fmt.Errorf("live: node closed or session budget exhausted")
	}
	expired := time.NewTimer(timeout)
	defer expired.Stop()
	for i := 0; ; i++ {
		select {
		case <-p.activated:
			return p, nil
		default:
		}
		sendBody(rt.ep, sid, targets[i%len(targets)], typeJoin, joinBody{ContentID: contentID, Joiner: rt.ep.Name()}, span.Context{}) //nolint:errcheck // crashed members are skipped; the next roster entry is tried
		// Give the member a handshake period to commit a slice.
		round := time.NewTimer(4*n.cfg.Delta + 20*time.Millisecond)
		select {
		case <-p.activated:
			round.Stop()
			return p, nil
		case <-expired.C:
			round.Stop()
			return nil, fmt.Errorf("live: join %q: no member handed a slice within %s", sid, timeout)
		case <-round.C:
		}
	}
}

// Serving returns a snapshot of the sessions this node serves as a
// contents peer.
func (n *Node) Serving() map[SessionID]*Peer {
	out := make(map[SessionID]*Peer)
	for i := range n.shards {
		sh := &n.shards[i]
		sh.mu.Lock()
		for sid, p := range sh.serving {
			out[sid] = p
		}
		sh.mu.Unlock()
	}
	return out
}

// Leaf returns the leaf for a session this node hosts, if any.
func (n *Node) Leaf(sid SessionID) (*Leaf, bool) {
	sh := &n.shards[shardIndex(sid)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	l, ok := sh.leaves[sid]
	return l, ok
}

// LeafCount returns how many leaf sessions the node hosts.
func (n *Node) LeafCount() int {
	count := 0
	for i := range n.shards {
		sh := &n.shards[i]
		sh.mu.Lock()
		count += len(sh.leaves)
		sh.mu.Unlock()
	}
	return count
}

// SessionCount returns the sessions currently admitted (serving plus
// leaf), the number the MaxSessions budget meters.
func (n *Node) SessionCount() int { return int(n.sessions.Load()) }

// reaper periodically tears down idle session state: leaves whose
// reassembly completed, and serving peers that finished their stream
// and have been quiet for ReapAfter. Without it a long-lived node
// accretes one Peer (goroutine, engine, maps) per session it ever
// served.
func (n *Node) reaper() {
	defer close(n.reapDone)
	grace := n.cfg.ReapAfter
	tick := 50 * time.Millisecond
	if grace > 0 && grace/4 < tick {
		tick = grace / 4
		if tick < 5*time.Millisecond {
			tick = 5 * time.Millisecond
		}
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-n.reapStop:
			return
		case <-t.C:
		}
		n.reap(time.Now())
	}
}

// reap sweeps every shard once, removing and closing idle sessions.
// Removal happens here, under the shard lock, so the Close calls (which
// detach through Node.detach) find the maps already clean and the
// gauges are decremented exactly once.
func (n *Node) reap(now time.Time) {
	rt := n.runtime()
	grace := n.cfg.ReapAfter
	for i := range n.shards {
		sh := &n.shards[i]
		var lvs []*Leaf
		var prs []*Peer
		sh.mu.Lock()
		for sid, l := range sh.leaves {
			select {
			case <-l.Done():
				delete(sh.leaves, sid)
				lvs = append(lvs, l)
			default:
			}
		}
		if grace > 0 {
			for sid, p := range sh.serving {
				if p.Quiesced(now, grace) {
					delete(sh.serving, sid)
					prs = append(prs, p)
				}
			}
		}
		sh.mu.Unlock()
		for _, l := range lvs {
			l.Close()
			rt.met.leafSessions.Add(-1)
			rt.met.leafReaped.Inc()
			n.sessions.Add(-1)
		}
		for _, p := range prs {
			p.Close()
			rt.met.servingSessions.Add(-1)
			rt.met.servingReaped.Inc()
			n.sessions.Add(-1)
		}
	}
}

// Close stops every session and the node's endpoint. It is idempotent
// and safe to call concurrently or after individual sessions closed.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		n.closed.Store(true)
		close(n.reapStop)
		<-n.reapDone
		rt := n.runtime()
		var peers []*Peer
		var leaves []*Leaf
		for i := range n.shards {
			sh := &n.shards[i]
			sh.mu.Lock()
			sh.closed = true
			for _, p := range sh.serving {
				peers = append(peers, p)
			}
			for _, l := range sh.leaves {
				leaves = append(leaves, l)
			}
			sh.mu.Unlock()
		}
		for _, p := range peers {
			p.Close()
		}
		for _, l := range leaves {
			l.Close()
		}
		rt.dir.Close()
		rt.ep.Close()
	})
	return nil
}

// detach removes a closed participant — serving peer p or leaf l — from
// sid's table entry if it is still the one there, releasing its gauge
// and its admission slot. The reaper removes what it closes itself, so
// detach then finds nothing.
func (n *Node) detach(sid SessionID, p *Peer, l *Leaf) {
	rt := n.runtime()
	sh := &n.shards[shardIndex(sid)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	switch {
	case p != nil && sh.serving[sid] == p:
		delete(sh.serving, sid)
		rt.met.servingSessions.Add(-1)
	case l != nil && sh.leaves[sid] == l:
		delete(sh.leaves, sid)
		rt.met.leafSessions.Add(-1)
	default:
		return
	}
	n.sessions.Add(-1)
}

// ---- node cluster ---------------------------------------------------------

// NodesConfig wires a population of nodes sharing a catalog, over the
// in-memory fabric, TCP loopback, or UDP loopback.
type NodesConfig struct {
	// Nodes is the population size.
	Nodes int
	// Store is the catalog every node holds (per the MSS model, every
	// contents peer has the content). Ignored when Stores is set.
	Store *content.Store
	// Stores, when non-nil, gives each node its own catalog (len must
	// equal Nodes) — with Discover, nodes then announce genuinely
	// different contents and sessions resolve only the serving subset.
	Stores []*content.Store
	// Discover replaces the static roster wiring with gossip discovery:
	// every node runs its own directory catalog, bootstrapped off the
	// first node, and NodeConfig.Roster stays empty. Wait for
	// WaitDiscovery before opening sessions.
	Discover bool
	// AnnounceInterval and DirectoryTTL tune discovery (see NodeConfig).
	AnnounceInterval time.Duration
	DirectoryTTL     time.Duration
	// MaxSessions bounds each node's admitted sessions; 0 is unlimited.
	MaxSessions int
	// ReapAfter tunes idle serving-peer reaping (see NodeConfig).
	ReapAfter time.Duration
	// H, Interval, Protocol, Delta, HandshakeTimeout, Retries: see
	// NodeConfig.
	H, Interval      int
	Protocol         Protocol
	Delta            time.Duration
	HandshakeTimeout time.Duration
	Retries          int
	// UseTCP runs every node on its own TCP loopback socket.
	UseTCP bool
	// UseUDP runs every node on its own UDP loopback socket (real
	// datagram semantics; mutually exclusive with UseTCP).
	UseUDP bool
	// Impair injects seeded loss/duplication/reordering into every send
	// on the in-memory fabric or the UDP sockets; see transport.Impairment.
	Impair transport.Impairment
	// QueueCap bounds the in-memory fabric's pending queue (default
	// 4096; negative leaves it unbounded) and QueuePolicy picks whether
	// a full queue blocks senders (default) or drops the newest message.
	// Ignored under TCP/UDP, where the kernel's socket buffers bound the
	// queue instead.
	QueueCap    int
	QueuePolicy transport.QueuePolicy
	// Seed seeds all nodes deterministically; 0 uses the clock.
	Seed int64
	// Obs bundles the population's observers — shared by every node, its
	// sessions and the transport — in the struct shared with the
	// simulation (see NodeConfig.Obs). Flight is served on /debug/flight
	// via DebugHandlers.
	Obs engine.Observability
}

// NodeCluster is a running node population.
type NodeCluster struct {
	Nodes []*Node
	obs   engine.Observability
	// eps are the pre-bound socket listeners. The nodes own them once
	// started; Close closes them again (idempotently) so a StartNodes
	// that fails half-way leaks none.
	eps []transport.Endpoint
	// datagram records that sends can be lost without an error (UDP, or
	// impairment on the fabric), which Open's RequestRetry default needs.
	datagram bool

	closeOnce sync.Once
}

// StartNodes builds a node population ready to open sessions.
func StartNodes(cfg NodesConfig) (*NodeCluster, error) {
	if cfg.Store == nil && cfg.Stores == nil {
		return nil, fmt.Errorf("live: nodes need a store")
	}
	if cfg.Stores != nil && len(cfg.Stores) != cfg.Nodes {
		return nil, fmt.Errorf("live: %d stores for %d nodes", len(cfg.Stores), cfg.Nodes)
	}
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("live: need at least one node")
	}
	if cfg.UseTCP && cfg.UseUDP {
		return nil, fmt.Errorf("live: UseTCP and UseUDP are mutually exclusive")
	}
	if cfg.UseTCP && cfg.Impair.Enabled() {
		return nil, fmt.Errorf("live: impairment needs a datagram transport (in-memory fabric or UDP), not TCP")
	}
	nc := &NodeCluster{obs: cfg.Obs, datagram: cfg.UseUDP || cfg.Impair.Enabled()}
	roster, trs, err := nc.listen(cfg)
	if err != nil {
		nc.Close()
		return nil, err
	}
	for i := 0; i < cfg.Nodes; i++ {
		seed := cfg.Seed
		if seed != 0 {
			seed += int64(i) + 1
		}
		store := cfg.Store
		if cfg.Stores != nil {
			store = cfg.Stores[i]
		}
		ncfg := NodeConfig{
			Store:            store,
			H:                cfg.H,
			Interval:         cfg.Interval,
			Delta:            cfg.Delta,
			Protocol:         cfg.Protocol,
			HandshakeTimeout: cfg.HandshakeTimeout,
			Retries:          cfg.Retries,
			MaxSessions:      cfg.MaxSessions,
			ReapAfter:        cfg.ReapAfter,
			Seed:             seed,
			Obs:              cfg.Obs,
		}
		if cfg.Discover {
			// No static roster: each node announces its own catalog and
			// resolves sessions from the swarm, bootstrapped off node 0.
			ncfg.Discover = true
			ncfg.Bootstrap = []string{roster[0]}
			ncfg.AnnounceInterval = cfg.AnnounceInterval
			ncfg.DirectoryTTL = cfg.DirectoryTTL
			// The announcement signature is a swarm-wide shared secret:
			// use the unperturbed population seed, not the per-node one.
			ncfg.DirectorySeed = cfg.Seed
		} else {
			ncfg.Roster = roster
		}
		nd, err := NewNode(ncfg, trs[i])
		if err != nil {
			nc.Close()
			return nil, err
		}
		nc.Nodes = append(nc.Nodes, nd)
	}
	return nc, nil
}

// listen binds every node's endpoint before any node exists — the roster
// (and the discovery bootstrap contact) must be known up front — and
// returns each node's address and transport.
func (nc *NodeCluster) listen(cfg NodesConfig) (roster []string, trs []Transport, err error) {
	if !cfg.UseTCP && !cfg.UseUDP {
		queueCap := cfg.QueueCap
		if queueCap == 0 {
			queueCap = 4096
		}
		// A bounded queue: a runaway sender waits (or, with
		// QueueDropNewest, loses its sends) instead of growing it.
		fabric := transport.NewBoundedQueuedFabric(queueCap, cfg.QueuePolicy)
		fabric.Instrument(cfg.Obs.Metrics)
		fabric.SetImpairment(cfg.Impair)
		for i := 0; i < cfg.Nodes; i++ {
			name := fmt.Sprintf("node%d", i)
			roster = append(roster, name)
			trs = append(trs, WithFabric(fabric, name))
		}
		return roster, trs, nil
	}
	imp := cfg.Impair
	if imp.Enabled() && imp.MaxHold == 0 {
		// A held (reordered) datagram on a link that goes quiet would
		// never be released; real sockets get a wall-clock bound of a few
		// one-way latencies.
		delta := cfg.Delta
		if delta == 0 {
			delta = 10 * time.Millisecond
		}
		imp.MaxHold = 5 * delta
	}
	for i := 0; i < cfg.Nodes; i++ {
		lb := &lateBinder{}
		if cfg.UseUDP {
			ep, err := transport.ListenUDP("127.0.0.1:0", lb.dispatch)
			if err != nil {
				return nil, nil, err
			}
			ep.Instrument(cfg.Obs.Metrics)
			ep.SetImpairment(imp)
			lb.ep = ep
		} else {
			ep, err := transport.ListenTCP("127.0.0.1:0", lb.dispatch)
			if err != nil {
				return nil, nil, err
			}
			ep.Instrument(cfg.Obs.Metrics)
			lb.ep = ep
		}
		nc.eps = append(nc.eps, lb.ep)
		roster = append(roster, lb.ep.Name())
		trs = append(trs, lb)
	}
	return roster, trs, nil
}

// lateBinder is the Transport of a listener (TCP or UDP) started before
// its node exists: frames arriving before the node opens it are dropped,
// as a real socket would drop traffic for a process still booting.
type lateBinder struct {
	ep transport.Endpoint

	mu sync.Mutex
	h  transport.Handler
}

func (l *lateBinder) open(h transport.Handler) (transport.Endpoint, error) {
	l.mu.Lock()
	l.h = h
	l.mu.Unlock()
	return l.ep, nil
}

func (l *lateBinder) dispatch(m transport.Msg) {
	l.mu.Lock()
	h := l.h
	l.mu.Unlock()
	if h != nil {
		h(m)
	}
}

// Open starts a leaf session on node i. On a datagram transport (UDP, or
// impairment enabled) a zero sc.RequestRetry defaults to half of
// RepairAfter: a request can be lost there without a send error, which
// the fabric's and TCP's failover would otherwise have caught. A Wait
// that times out on the returned session appends the overlay health line
// and dumps the topology snapshot and flight log to temp files.
func (nc *NodeCluster) Open(i int, sc SessionConfig) (*LeafSession, error) {
	if i < 0 || i >= len(nc.Nodes) {
		return nil, fmt.Errorf("live: node %d out of range", i)
	}
	if sc.RequestRetry == 0 && nc.datagram {
		sc.RequestRetry = sc.RepairAfter / 2
	}
	ls, err := nc.Nodes[i].Open(sc)
	if err != nil {
		return nil, err
	}
	ls.mu.Lock()
	ls.introspect = func() string { return nc.introspect(ls.ID) }
	ls.mu.Unlock()
	return ls, nil
}

// WaitDiscovery blocks until every node's discovery directory has
// converged on the full population, or errors at the timeout. A no-op
// (nil) for statically wired clusters.
func (nc *NodeCluster) WaitDiscovery(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for i, nd := range nc.Nodes {
		cat := nd.runtime().catalog
		if cat == nil {
			continue
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			remaining = time.Millisecond
		}
		if err := cat.WaitRoster(len(nc.Nodes), remaining); err != nil {
			return fmt.Errorf("live: node %d (%s): %w", i, nd.Addr(), err)
		}
	}
	return nil
}

// CrashServing crash-stops up to k nodes that are actively serving at
// least one session as a contents peer while hosting no leaf session
// (so the injected churn hits servers, not consumers), and returns how
// many were stopped.
func (nc *NodeCluster) CrashServing(k int) int {
	killed := 0
	for _, nd := range nc.Nodes {
		if killed >= k {
			break
		}
		if nd.LeafCount() > 0 {
			continue
		}
		active := false
		for _, p := range nd.Serving() {
			if p.Active() {
				active = true
				break
			}
		}
		if active {
			nd.Close()
			killed++
		}
	}
	return killed
}

// Close stops every node. Idempotent.
func (nc *NodeCluster) Close() {
	nc.closeOnce.Do(func() {
		for _, nd := range nc.Nodes {
			nd.Close()
		}
		for _, ep := range nc.eps {
			ep.Close()
		}
	})
}
