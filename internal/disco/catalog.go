package disco

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"sync"
	"time"

	"p2pmss/internal/gossip"
	"p2pmss/internal/metrics"
)

// Record is one directory entry: a node's announcement of what it
// serves. Version is the announcer's monotonic announcement counter;
// newer versions replace older ones everywhere, so a node's latest
// catalog wins and a crashed node's last record ages out by TTL.
type Record struct {
	Addr     string    `json:"addr"`
	Contents []string  `json:"contents,omitempty"`
	Version  uint64    `json:"version"`
	Expires  time.Time `json:"expires"`
}

// wireRecord is a record on the wire. TTLMs is the remaining lifetime at
// the forwarder — it decays hop by hop, so a record that stops being
// refreshed by its owner expires everywhere within one TTL. Sig
// authenticates the owner-controlled fields under the population's
// shared seed; TTL is excluded (it legitimately changes per hop) and a
// receiver caps it at its own configured TTL, so a forged TTL cannot
// pin a record forever.
type wireRecord struct {
	Addr     string   `json:"addr"`
	Contents []string `json:"contents,omitempty"`
	Version  uint64   `json:"version"`
	TTLMs    int64    `json:"ttl_ms"`
	Sig      uint64   `json:"sig"`
}

// announceBody is the gossip payload: a full-state batch of every
// non-expired record the sender holds (anti-entropy push).
type announceBody struct {
	Records []wireRecord `json:"records"`
}

// CatalogConfig parameterizes a gossip-backed directory node.
type CatalogConfig struct {
	// Self is this node's address (the Addr of its announcements).
	Self string
	// Contents returns the content IDs this node currently serves; nil
	// (or an empty return) announces nothing — the node still relays
	// other nodes' records and can look contents up (a pure consumer).
	Contents func() []string
	// Bootstrap lists initial contact addresses; a new node pushes its
	// first announcements there and is welcomed back with the full
	// directory state.
	Bootstrap []string
	// Send delivers one announcement payload to a peer (required). It
	// must not block indefinitely; delivery failures are acceptable —
	// gossip's redundancy is the retry.
	Send func(to string, payload []byte)
	// Interval is the announcement round period (default 500 ms).
	Interval time.Duration
	// TTL is how long a record lives without a refresh from its owner
	// (default 6×Interval). It also caps the TTL accepted from the wire.
	TTL time.Duration
	// Seed is the population's shared secret: announcements are signed
	// by it (signed-by-seed), and each node's gossip target selection
	// derives a deterministic per-node stream from it. 0 signs with the
	// zero key and selects from the clock.
	Seed int64
	// Metrics, when non-nil, registers the disco_* series labeled by
	// this node's address.
	Metrics *metrics.Registry
}

// entry is a remote record plus its local expiry.
type entry struct {
	rec Record
	sig uint64
}

// Catalog is the gossip-backed Directory: it accumulates signed
// announcements into a local view of who serves what, refreshes its own
// announcement every round, and expires records whose owner went silent.
type Catalog struct {
	cfg CatalogConfig
	met catalogMetrics

	mu      sync.Mutex
	own     Record // Addr == cfg.Self; Version 0 until first announcement
	ownSig  uint64
	entries map[string]*entry // remote records by address
	closed  bool
	// changed is closed, and replaced, whenever a record is added or its
	// owner's announcement changes: WaitRoster and WaitContent block on it.
	changed chan struct{}

	loop *gossip.Live
}

// NewCatalog starts a catalog node: its announcement loop begins
// immediately (with one prompt round so bootstrap contacts learn about
// it without waiting a full interval).
func NewCatalog(cfg CatalogConfig) (*Catalog, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("disco: catalog needs a self address")
	}
	if cfg.Send == nil {
		return nil, fmt.Errorf("disco: catalog needs a send function")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 6 * cfg.Interval
	}
	c := &Catalog{
		cfg:     cfg,
		met:     newCatalogMetrics(cfg.Metrics, cfg.Self),
		entries: make(map[string]*entry),
		own:     Record{Addr: cfg.Self},
		changed: make(chan struct{}),
	}
	// Sign the initial announcement synchronously so the directory is
	// self-aware (Lookup finds our own contents) before the first round.
	c.payload(false)
	loop, err := gossip.StartLive(gossip.LiveConfig{
		Self:     cfg.Self,
		Peers:    c.candidates,
		Payload:  func() []byte { return c.payload(true) },
		Send:     c.send,
		Fanout:   3,
		Interval: cfg.Interval,
		Seed:     gossipSeed(cfg.Seed, cfg.Self),
	})
	if err != nil {
		return nil, err
	}
	c.loop = loop
	loop.Poke()
	return c, nil
}

// gossipSeed derives a deterministic per-node selection stream from the
// shared seed, so discovery outcomes reproduce run to run.
func gossipSeed(seed int64, self string) int64 {
	if seed == 0 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(self))
	return seed + int64(h.Sum64()&0x7fffffff)
}

// sign authenticates a record's owner-controlled fields under the
// population's shared seed (FNV-1a; a stand-in for a real MAC with the
// same wire shape).
func sign(seed int64, addr string, contents []string, version uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(addr))
	h.Write([]byte{0})
	for _, cid := range contents {
		h.Write([]byte(cid))
		h.Write([]byte{0})
	}
	binary.LittleEndian.PutUint64(b[:], version)
	h.Write(b[:])
	return h.Sum64()
}

// candidates is the gossip loop's membership view: everyone we hold a
// live record for, plus the bootstrap contacts.
func (c *Catalog) candidates() []string {
	now := time.Now()
	c.mu.Lock()
	seen := make(map[string]bool, len(c.entries)+len(c.cfg.Bootstrap))
	out := make([]string, 0, len(c.entries)+len(c.cfg.Bootstrap))
	for addr, e := range c.entries {
		if e.rec.Expires.After(now) {
			seen[addr] = true
			out = append(out, addr)
		}
	}
	c.mu.Unlock()
	for _, a := range c.cfg.Bootstrap {
		if !seen[a] && a != c.cfg.Self {
			out = append(out, a)
		}
	}
	sort.Strings(out) // deterministic base order for the seeded shuffle
	return out
}

// send delivers one payload, counting it.
func (c *Catalog) send(to string, payload []byte) {
	c.met.sent.Inc()
	c.cfg.Send(to, payload)
}

// payload snapshots the full directory state for one push. When refresh
// is set (the periodic rounds) the node re-announces itself under a new
// version; the welcome path reuses the current version so it cannot race
// ahead of the owner's own refresh cadence.
func (c *Catalog) payload(refresh bool) []byte {
	now := time.Now()
	c.mu.Lock()
	c.sweepLocked(now)
	if refresh || c.own.Version == 0 {
		var contents []string
		if c.cfg.Contents != nil {
			contents = append([]string(nil), c.cfg.Contents()...)
			sort.Strings(contents)
		}
		if len(contents) > 0 {
			if c.own.Version == 0 || !slices.Equal(contents, c.own.Contents) {
				c.signalLocked()
			}
			c.own.Version++
			c.own.Contents = contents
			c.ownSig = sign(c.cfg.Seed, c.own.Addr, contents, c.own.Version)
		}
	}
	body := announceBody{Records: make([]wireRecord, 0, len(c.entries)+1)}
	if c.own.Version > 0 {
		body.Records = append(body.Records, wireRecord{
			Addr: c.own.Addr, Contents: c.own.Contents,
			Version: c.own.Version, TTLMs: c.cfg.TTL.Milliseconds(), Sig: c.ownSig,
		})
	}
	for _, e := range c.entries {
		ttl := time.Until(e.rec.Expires).Milliseconds()
		if ttl <= 0 {
			continue
		}
		body.Records = append(body.Records, wireRecord{
			Addr: e.rec.Addr, Contents: e.rec.Contents,
			Version: e.rec.Version, TTLMs: ttl, Sig: e.sig,
		})
	}
	c.met.records.Set(float64(c.recordsLocked()))
	c.mu.Unlock()
	if len(body.Records) == 0 {
		return nil
	}
	b, err := json.Marshal(body)
	if err != nil {
		return nil
	}
	return b
}

// signalLocked wakes every waiter on the directory. Callers hold c.mu.
func (c *Catalog) signalLocked() {
	close(c.changed)
	c.changed = make(chan struct{})
}

// sweepLocked drops expired remote records. Callers hold c.mu.
func (c *Catalog) sweepLocked(now time.Time) {
	for addr, e := range c.entries {
		if !e.rec.Expires.After(now) {
			delete(c.entries, addr)
			c.met.expired.Inc()
		}
	}
}

// recordsLocked counts live records including our own announcement.
func (c *Catalog) recordsLocked() int {
	n := len(c.entries)
	if c.own.Version > 0 {
		n++
	}
	return n
}

// Deliver ingests one announcement payload received from the transport.
// from is the sender's address (used to welcome newly-seen nodes with a
// direct full-state push, which is what lets a late joiner converge in
// one round instead of waiting to be randomly selected).
func (c *Catalog) Deliver(from string, payload []byte) {
	var body announceBody
	if json.Unmarshal(payload, &body) != nil {
		c.met.rejected.Inc()
		return
	}
	c.met.received.Inc()
	now := time.Now()
	maxExpiry := now.Add(c.cfg.TTL)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	_, knewSender := c.entries[from]
	changed := false
	for _, wr := range body.Records {
		if wr.Addr == c.cfg.Self || wr.TTLMs <= 0 {
			continue
		}
		if sign(c.cfg.Seed, wr.Addr, wr.Contents, wr.Version) != wr.Sig {
			c.met.rejected.Inc()
			continue
		}
		expires := now.Add(time.Duration(wr.TTLMs) * time.Millisecond)
		if expires.After(maxExpiry) {
			expires = maxExpiry
		}
		e := c.entries[wr.Addr]
		switch {
		case e == nil:
			c.entries[wr.Addr] = &entry{rec: Record{
				Addr: wr.Addr, Contents: wr.Contents, Version: wr.Version, Expires: expires,
			}, sig: wr.Sig}
			changed = true
		case wr.Version > e.rec.Version:
			e.rec = Record{
				Addr: wr.Addr, Contents: wr.Contents, Version: wr.Version, Expires: expires,
			}
			e.sig = wr.Sig
			changed = true
		case wr.Version == e.rec.Version && expires.After(e.rec.Expires):
			e.rec.Expires = expires
		}
	}
	_, knowSender := c.entries[from]
	if changed {
		c.signalLocked()
	}
	c.met.records.Set(float64(c.recordsLocked()))
	c.mu.Unlock()
	if from != "" && from != c.cfg.Self && !knewSender && knowSender {
		// A node we had never heard from announced itself: push it our
		// full state so it does not have to wait to be sampled.
		if b := c.payload(false); b != nil {
			c.send(from, b)
		}
	}
}

// Lookup returns the addresses currently announcing contentID, sorted.
func (c *Catalog) Lookup(contentID string) []string {
	c.met.lookups.Inc()
	now := time.Now()
	var out []string
	c.mu.Lock()
	c.sweepLocked(now)
	if c.own.Version > 0 && containsContent(c.own.Contents, contentID) {
		out = append(out, c.own.Addr)
	}
	for addr, e := range c.entries {
		if containsContent(e.rec.Contents, contentID) {
			out = append(out, addr)
		}
	}
	c.mu.Unlock()
	sort.Strings(out)
	return out
}

func containsContent(contents []string, id string) bool {
	for _, cid := range contents {
		if cid == id {
			return true
		}
	}
	return false
}

// Roster returns every address with a live announcement, sorted.
func (c *Catalog) Roster() []string {
	now := time.Now()
	var out []string
	c.mu.Lock()
	c.sweepLocked(now)
	if c.own.Version > 0 {
		out = append(out, c.own.Addr)
	}
	for addr := range c.entries {
		out = append(out, addr)
	}
	c.mu.Unlock()
	sort.Strings(out)
	return out
}

// Records snapshots the directory (own announcement included), sorted
// by address — the /debug/directory surface.
func (c *Catalog) Records() []Record {
	now := time.Now()
	var out []Record
	c.mu.Lock()
	c.sweepLocked(now)
	if c.own.Version > 0 {
		own := c.own
		own.Contents = append([]string(nil), c.own.Contents...)
		own.Expires = now.Add(c.cfg.TTL)
		out = append(out, own)
	}
	for _, e := range c.entries {
		rec := e.rec
		rec.Contents = append([]string(nil), e.rec.Contents...)
		out = append(out, rec)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// WaitRoster blocks until the directory knows at least n serving
// addresses, or errors at the timeout.
func (c *Catalog) WaitRoster(n int, timeout time.Duration) error {
	return c.waitFor(timeout, func() (int, bool) {
		got := len(c.Roster())
		return got, got >= n
	}, fmt.Sprintf("%d roster entries", n))
}

// WaitContent blocks until at least n peers announce contentID, or
// errors at the timeout.
func (c *Catalog) WaitContent(contentID string, n int, timeout time.Duration) error {
	return c.waitFor(timeout, func() (int, bool) {
		got := len(c.Lookup(contentID))
		return got, got >= n
	}, fmt.Sprintf("%d peers for content %q", n, contentID))
}

// waitFor blocks until cond holds, checking it again whenever the
// directory changes, or errors once timeout has passed.
func (c *Catalog) waitFor(timeout time.Duration, cond func() (int, bool), what string) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		// The channel is taken before cond reads the directory, so a change
		// made after that read closes the very channel waited on.
		c.mu.Lock()
		changed := c.changed
		c.mu.Unlock()
		got, ok := cond()
		if ok {
			return nil
		}
		select {
		case <-changed:
		case <-deadline.C:
			if got, ok = cond(); ok {
				return nil
			}
			return fmt.Errorf("disco: %s not reached within %s (have %d)", what, timeout, got)
		}
	}
}

// Close stops the announcement loop. The directory stays readable
// (lookups keep answering from the last view) but no longer refreshes,
// so its own record ages out of the swarm within one TTL — exactly what
// a crash looks like to everyone else.
func (c *Catalog) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	return c.loop.Close()
}
