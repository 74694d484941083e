package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"p2pmss/internal/transport"
)

// span is one timed crossing of a layer boundary, recorded by the
// benchmark around a call into the program. Spans of one session (or
// one Simulate job) share Op.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"` // the span that caused it
	Name   string `json:"name"`
	Op     int32  `json:"op"`   // session or sim-job index, -1 if none
	Node   int32  `json:"node"` // node the boundary belongs to, -1 if none
	Peer   int32  `json:"peer"` // counterpart node (sender or destination), -1 if none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// Span names. Send and handle spans carry the message type so layers
// can be split by it without re-reading payloads.
const (
	spanSimulate = "p2pmss.simulate"
	spanOpen     = "live.node.open"
	spanSession  = "session"
	sendPrefix   = "transport.send."
	handlePrefix = "transport.handler."
	dataType     = "data"
)

// msgTypes are the live runtime's message types; their span names are
// built once so the wrappers do not allocate a name per message.
var msgTypes = []string{"request", "control", "confirm", "commit", dataType, "repair", "join", "announce", "probe"}

var sendNames, handleNames = prefixed(sendPrefix), prefixed(handlePrefix)

func prefixed(prefix string) map[string]string {
	m := make(map[string]string, len(msgTypes))
	for _, t := range msgTypes {
		m[t] = prefix + t
	}
	return m
}

func spanName(names map[string]string, prefix, typ string) string {
	if n, ok := names[typ]; ok {
		return n
	}
	return prefix + typ
}

// recorder keeps spans in memory, sharded so the wrappers of different
// nodes do not serialise on one lock; nothing is written until the run
// is over. A nil recorder, or one switched off, records nothing.
type recorder struct {
	epoch  time.Time
	on     atomic.Bool
	nextID atomic.Uint64
	shards []spanShard
	// inHandler maps a goroutine id to the non-data handler span running
	// on it, so the control sends that handler issues are recorded as
	// its children. Data handlers never send and data sends come from
	// the pacing goroutines, so the hot path never looks here.
	inHandler sync.Map
}

type spanShard struct {
	mu    sync.Mutex
	spans []span
}

func newRecorder(shards int) *recorder {
	return &recorder{epoch: time.Now(), shards: make([]spanShard, shards+1)}
}

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) newID() uint64 { return r.nextID.Add(1) }

// add files a finished span under the shard of its node (the last shard
// takes spans that belong to no node).
func (r *recorder) add(s span) {
	i := len(r.shards) - 1
	if s.Node >= 0 && int(s.Node) < i {
		i = int(s.Node)
	}
	sh := &r.shards[i]
	sh.mu.Lock()
	sh.spans = append(sh.spans, s)
	sh.mu.Unlock()
}

// all returns every span, ordered by start time.
func (r *recorder) all() []span {
	var out []span
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		out = append(out, sh.spans...)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// goid parses the running goroutine's id from its stack header. About a
// microsecond, so only control-plane wrappers call it.
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// opOf recovers the session index from the session ids the generator
// hands out ("s" + decimal index); anything else is -1.
func opOf(session string) int32 {
	if len(session) < 2 || session[0] != 's' {
		return -1
	}
	n, err := strconv.Atoi(session[1:])
	if err != nil {
		return -1
	}
	return int32(n)
}

func sessionName(op int) string { return "s" + strconv.Itoa(op) }

// nodeTrace is the tracing state of one node: its index, the name→index
// table of the population, and its send-side counters.
type nodeTrace struct {
	rec   *recorder
	node  int32
	index map[string]int32 // read-only once the cluster is built

	sendErrors atomic.Int64
	dataBytes  atomic.Int64
	// firstData keeps one data message for the codec probes.
	firstData atomic.Pointer[transport.Msg]
}

func (t *nodeTrace) peerIndex(name string) int32 {
	if i, ok := t.index[name]; ok {
		return i
	}
	return -1
}

// tracedEndpoint wraps a node's real endpoint: every Send becomes a
// span; the message and the error pass through untouched.
type tracedEndpoint struct {
	transport.Endpoint
	t *nodeTrace
}

func (e *tracedEndpoint) Send(to string, m transport.Msg) error {
	t := e.t
	if !t.rec.enabled() {
		return e.Endpoint.Send(to, m)
	}
	var parent uint64
	if m.Type != dataType {
		if p, ok := t.rec.inHandler.Load(goid()); ok {
			parent = p.(uint64)
		}
	} else {
		t.dataBytes.Add(int64(len(m.Payload)))
		if t.firstData.Load() == nil {
			c := m
			t.firstData.CompareAndSwap(nil, &c)
		}
	}
	id := t.rec.newID()
	start := t.rec.now()
	err := e.Endpoint.Send(to, m)
	end := t.rec.now()
	if err != nil {
		t.sendErrors.Add(1)
	}
	t.rec.add(span{ID: id, Parent: parent, Name: spanName(sendNames, sendPrefix, m.Type), Op: opOf(m.Session),
		Node: t.node, Peer: t.peerIndex(to), Start: start, End: end})
	return err
}

// wrapHandler wraps a node's inbound handler: every delivery becomes a
// span around the unchanged call.
func (t *nodeTrace) wrapHandler(h transport.Handler) transport.Handler {
	return func(m transport.Msg) {
		if !t.rec.enabled() {
			h(m)
			return
		}
		id := t.rec.newID()
		start := t.rec.now()
		if m.Type != dataType {
			g := goid()
			t.rec.inHandler.Store(g, id)
			h(m)
			t.rec.inHandler.Delete(g)
		} else {
			h(m)
		}
		t.rec.add(span{ID: id, Name: spanName(handleNames, handlePrefix, m.Type), Op: opOf(m.Session),
			Node: t.node, Peer: t.peerIndex(m.From), Start: start, End: t.rec.now()})
	}
}

// selfTimes returns, per span id, the span's duration minus the part of
// it its child spans cover (children are clipped to the parent and
// overlapping children are counted once).
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// writeSpans writes the spans as JSON Lines under path, creating its
// directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
