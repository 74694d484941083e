// Package span is the runtime's causal tracing subsystem: every
// coordination unit the paper names — handshake rounds, confirmation
// retry waves, commit/absorb, hand-off, per-peer streaming, leaf
// recovery — can be recorded as a Span with a parent link, so a whole
// session unrolls into a tree ("which retry wave delayed this
// commit?") instead of a flat event log.
//
// The design mirrors internal/metrics:
//
//   - Disabled is free. A nil *Collector is the disabled collector:
//     NextID returns 0, Add does nothing, and every caller guards with
//     a single nil check — no allocation, no atomic, nothing on the
//     engine hot path.
//
//   - Reads are deterministic. Spans() returns spans sorted by
//     (Trace, ID, Peer); under the single-threaded DES driver span IDs
//     are allocated in event order, so a seeded simulation produces a
//     byte-identical trace at any experiment worker count (each run
//     gets its own collector, merged in grid order).
//
// Time is driver-defined: the simulator records virtual seconds, the
// live runtime wall-clock seconds since its process-wide epoch.
// Both export to the same two formats — span JSONL for tooling and
// Chrome trace-event JSON loadable in Perfetto (one track per peer).
package span

import (
	"sort"
	"sync"
	"sync/atomic"
)

// TraceID identifies one session (one coordination run): all spans of
// a run share it. Zero means "no trace".
type TraceID uint64

// SpanID identifies one span within its collector. Zero means "none":
// it is both the nil parent and the ID the nil collector hands out.
type SpanID uint64

// Context is the causal context carried alongside an event: the trace
// it belongs to and the span under which work triggered by the event
// should nest. It is a 16-byte value — embedding it in a message or
// passing it through a call chain never allocates.
type Context struct {
	Trace TraceID `json:"trace,omitempty"`
	Span  SpanID  `json:"span,omitempty"`
}

// Span is one recorded unit of work. Start and End are in the driver's
// clock domain (virtual seconds for the simulator, wall seconds since
// its process-wide epoch for the live runtime); instant spans have
// End == Start.
type Span struct {
	Trace  TraceID `json:"trace"`
	ID     SpanID  `json:"id"`
	Parent SpanID  `json:"parent,omitempty"`
	// Name is the unit kind: "session", "handshake", "confirm_wave",
	// "commit", "absorb", "handoff", "activate", "select", "adopt",
	// "stream", "repair_wave", "stall", ...
	Name string `json:"name"`
	// Peer is the track the span belongs to: a peer index, or -1 for
	// the leaf/driver track.
	Peer  int     `json:"peer"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Detail is optional free-form context ("wave 2", "child 7", ...).
	Detail string `json:"detail,omitempty"`
}

// Duration returns End-Start.
func (s Span) Duration() float64 { return s.End - s.Start }

// shardCount spreads concurrent Add calls (live runtime: many peer
// goroutines) over independent locks. Power of two for cheap masking.
const shardCount = 16

type shard struct {
	mu    sync.Mutex
	spans []Span
	_     [40]byte // keep shards on separate cache lines
}

// Collector accumulates spans in memory, lock-sharded so concurrent
// emitters rarely contend. A nil *Collector is the disabled collector;
// all methods are no-ops on it.
type Collector struct {
	ids    atomic.Uint64
	shards [shardCount]shard
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// NextID allocates a fresh span ID, or 0 on a nil collector. IDs are
// dense and start at 1, so a single-threaded driver allocates them in
// event order and the resulting trace is reproducible.
func (c *Collector) NextID() SpanID {
	if c == nil {
		return 0
	}
	return SpanID(c.ids.Add(1))
}

// Add records a finished span. No-op on a nil collector or a span
// without a trace.
func (c *Collector) Add(s Span) {
	if c == nil || s.Trace == 0 {
		return
	}
	sh := &c.shards[uint64(s.ID)&(shardCount-1)]
	sh.mu.Lock()
	sh.spans = append(sh.spans, s)
	sh.mu.Unlock()
}

// Len returns the number of collected spans.
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.spans)
		sh.mu.Unlock()
	}
	return n
}

// Spans returns a copy of every collected span, sorted by
// (Trace, ID, Peer) so equal collector states compare byte-equal.
func (c *Collector) Spans() []Span {
	if c == nil {
		return nil
	}
	var out []Span
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		out = append(out, sh.spans...)
		sh.mu.Unlock()
	}
	sortSpans(out)
	return out
}

// sortSpans orders spans by (Trace, ID, Peer). Insertion via shards is
// unordered, so exports always sort first.
func sortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		return a.Peer < b.Peer
	})
}

// DeriveTrace maps a stable run label (e.g. "tcop/H=10/seed=3" or a
// live session ID) to a non-zero TraceID via FNV-1a, so traces are
// reproducible without a global ID allocator.
func DeriveTrace(label string) TraceID {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime64
	}
	if h == 0 {
		h = offset64
	}
	return TraceID(h)
}
