// Package flight is the per-peer flight recorder: a bounded ring buffer
// of the coordination engine's event/effect vocabulary, written by the
// engine's driver-side Observer, which folds spans, flight records and
// the peer counters from one call per Handle. Where span tracing answers
// "how long did coordination take", the flight recorder answers "what
// exactly did this peer see and emit, in what order" — the raw material
// for topology forensics and for diffing a live run against its
// deterministic simulation (see FirstDivergence).
//
// A nil *Recorder (or a nil *Set) is the disabled state: Record returns
// immediately with zero allocations, so drivers keep the call sites
// unconditional exactly as they do for spans and metrics.
package flight

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Event is one recorded occurrence on a peer's flight track: an engine
// event the peer handled (Dir "ev"), an effect it emitted (Dir "eff"),
// or a driver note (DirDriver). The identity fields (Dir, Type, Other, Round, N) are
// driver-independent — a simulated and a live run of the same seed
// record the same identities in the same per-peer order — while Seq and
// T carry the recording driver's local ordering and clock (virtual time
// in the simulator, seconds since process start in the live runtime).
type Event struct {
	// Seq is the per-peer record sequence number (monotonic, counting
	// evicted records too).
	Seq uint64 `json:"seq"`
	// T is the driver time of the Handle call that produced the record.
	T float64 `json:"t"`
	// Session labels the streaming session on multi-session nodes
	// (empty for single-session drivers).
	Session string `json:"sess,omitempty"`
	// Peer is the recording peer's overlay id.
	Peer int `json:"peer"`
	// Dir is "ev" for handled events, "eff" for emitted effects,
	// DirDriver for driver notes.
	Dir string `json:"dir"`
	// Type names the event or effect kind (see engine.Observer).
	Type string `json:"type"`
	// Other is the counterpart peer: send target, control/commit parent,
	// confirming child, joiner, or timer subject. Leaf is -1; 0 means
	// peer 0 or "none" depending on Type (identity comparison treats it
	// uniformly either way).
	Other int `json:"other,omitempty"`
	// Round is the protocol round carried by the event or effect.
	Round int `json:"round,omitempty"`
	// N is the record's magnitude: assigned-sequence length, repair
	// index count, hand-off share count, or timer generation.
	N int `json:"n,omitempty"`
	// Note qualifies a driver note: the trigger of a repair request, "gap"
	// (parity provably cannot recover it), "tail" (past the end of every
	// sender's stream) or "stall" (the backstop).
	Note string `json:"note,omitempty"`
}

// DirDriver marks a record the driver wrote about its own environment
// rather than the engine's event/effect stream — a peer crash or rejoin,
// the leaf's repair request. FirstDivergence skips these, as it skips
// timer deliveries: the other driver has no counterpart to align with.
const DirDriver = "drv"

// Key is the driver-independent identity of an event — everything but
// the local sequence number, timestamp and session label.
func (e Event) Key() Key {
	return Key{Peer: e.Peer, Dir: e.Dir, Type: e.Type, Other: e.Other, Round: e.Round, N: e.N}
}

// Key identifies an event across drivers (comparable, map-friendly).
type Key struct {
	Peer  int
	Dir   string
	Type  string
	Other int
	Round int
	N     int
}

func (k Key) String() string {
	return fmt.Sprintf("peer=%d %s %s other=%d round=%d n=%d", k.Peer, k.Dir, k.Type, k.Other, k.Round, k.N)
}

// Recorder is one peer's bounded flight ring. When the ring is full the
// oldest record is evicted (and counted); Seq keeps numbering across
// evictions so a dump reveals the gap. All methods are safe for
// concurrent use, and all are no-ops on a nil receiver.
type Recorder struct {
	session string
	peer    int
	cap     int

	mu      sync.Mutex
	buf     []Event
	start   int
	n       int
	seq     uint64
	evicted uint64
}

// NewRecorder returns a flight ring for one peer holding up to capacity
// records (capacity <= 0 picks DefaultCapacity). Most callers obtain
// recorders from a Set instead.
func NewRecorder(session string, peer, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{session: session, peer: peer, cap: capacity}
}

// DefaultCapacity is the per-peer ring size when a Set or Recorder is
// built with a non-positive capacity: enough for every coordination
// event of a typical session plus a margin, small enough to bound a
// 100-peer cluster's footprint.
const DefaultCapacity = 512

// Peer returns the recorder's peer id.
func (r *Recorder) Peer() int {
	if r == nil {
		return 0
	}
	return r.peer
}

// Record appends one event, stamping its Seq, Session and Peer. The
// caller fills T, Dir, Type, Other, Round and N.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	e.Session = r.session
	e.Peer = r.peer
	r.mu.Lock()
	e.Seq = r.seq
	r.seq++
	if r.buf == nil {
		r.buf = make([]Event, r.cap)
	}
	if r.n < r.cap {
		r.buf[(r.start+r.n)%r.cap] = e
		r.n++
	} else {
		r.buf[r.start] = e
		r.start = (r.start + 1) % r.cap
		r.evicted++
	}
	r.mu.Unlock()
}

// Events returns the buffered records oldest-first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Event, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.start+i)%r.cap])
	}
	r.mu.Unlock()
	return out
}

// Evicted returns how many records the ring has dropped so far.
func (r *Recorder) Evicted() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evicted
}

// Set is a collection of per-peer recorders sharing one capacity. A nil
// Set hands out nil recorders, so wiring stays unconditional: the
// engine's Observability.Observer asks its (possibly nil) Set for a
// peer's recorder and keeps the (possibly nil) result.
type Set struct {
	capacity int

	mu   sync.Mutex
	recs map[setKey]*Recorder
	keys []setKey // insertion order, for deterministic iteration bases
}

type setKey struct {
	session string
	peer    int
}

// NewSet returns an empty recorder set whose rings hold perPeerCap
// records each (<= 0 picks DefaultCapacity).
func NewSet(perPeerCap int) *Set {
	if perPeerCap <= 0 {
		perPeerCap = DefaultCapacity
	}
	return &Set{capacity: perPeerCap, recs: make(map[setKey]*Recorder)}
}

// Recorder returns (creating on first use) the ring of the given
// session/peer pair. Single-session drivers pass session "". Returns
// nil on a nil Set.
func (s *Set) Recorder(session string, peer int) *Recorder {
	if s == nil {
		return nil
	}
	k := setKey{session: session, peer: peer}
	s.mu.Lock()
	r, ok := s.recs[k]
	if !ok {
		r = NewRecorder(session, peer, s.capacity)
		s.recs[k] = r
		s.keys = append(s.keys, k)
	}
	s.mu.Unlock()
	return r
}

// Events returns every buffered record across the set, sorted by
// (Session, Peer, Seq) — the deterministic per-peer ordering dumps and
// diffs rely on.
func (s *Set) Events() []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	recs := make([]*Recorder, 0, len(s.recs))
	for _, k := range s.keys {
		recs = append(recs, s.recs[k])
	}
	s.mu.Unlock()
	var out []Event
	for _, r := range recs {
		out = append(out, r.Events()...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Session != out[j].Session {
			return out[i].Session < out[j].Session
		}
		if out[i].Peer != out[j].Peer {
			return out[i].Peer < out[j].Peer
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Evicted sums the rings' eviction counters.
func (s *Set) Evicted() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	recs := make([]*Recorder, 0, len(s.recs))
	for _, r := range s.recs {
		recs = append(recs, r)
	}
	s.mu.Unlock()
	var total uint64
	for _, r := range recs {
		total += r.Evicted()
	}
	return total
}

// DumpJSONL writes the set's events as JSON Lines in (Session, Peer,
// Seq) order. A nil Set writes nothing.
func (s *Set) DumpJSONL(w io.Writer) error {
	return WriteJSONL(w, s.Events())
}

// WriteJSONL writes events to w as JSON Lines, one compact object per
// line, in the given order.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL reads a JSONL event stream written by WriteJSONL. Blank
// lines are skipped; a malformed line fails with its line number.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, fmt.Errorf("flight: line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Summary is one (peer, type) group's share of a flight log.
type Summary struct {
	Session     string
	Peer        int
	Dir         string
	Type        string
	Count       int
	First, Last float64 // timestamps of the group's first/last record
}

// Summarize groups events by (session, peer, dir, type) and counts
// them, in (session, peer, dir, type) order — the `msstrace flight`
// table.
func Summarize(events []Event) []Summary {
	type gkey struct {
		sess     string
		peer     int
		dir, typ string
	}
	groups := make(map[gkey]*Summary)
	var order []gkey
	for _, e := range events {
		k := gkey{sess: e.Session, peer: e.Peer, dir: e.Dir, typ: e.Type}
		g, ok := groups[k]
		if !ok {
			g = &Summary{Session: e.Session, Peer: e.Peer, Dir: e.Dir, Type: e.Type, First: e.T, Last: e.T}
			groups[k] = g
			order = append(order, k)
		}
		g.Count++
		if e.T < g.First {
			g.First = e.T
		}
		if e.T > g.Last {
			g.Last = e.T
		}
	}
	out := make([]Summary, 0, len(order))
	for _, k := range order {
		out = append(out, *groups[k])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Session != out[j].Session {
			return out[i].Session < out[j].Session
		}
		if out[i].Peer != out[j].Peer {
			return out[i].Peer < out[j].Peer
		}
		if out[i].Dir != out[j].Dir {
			return out[i].Dir < out[j].Dir
		}
		return out[i].Type < out[j].Type
	})
	return out
}
