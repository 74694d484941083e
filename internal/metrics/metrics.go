// Package metrics is the runtime's zero-dependency observability
// registry: named counters, gauges and fixed-bucket histograms with
// optional label pairs, safe for concurrent use and cheap enough for
// data-plane hot paths.
//
// Two properties shape the design:
//
//   - Disabled is free. A nil *Registry hands out nil instruments, and
//     every instrument method is a no-op on a nil receiver — a single
//     predictable branch, no allocation — so packet-per-packet code can
//     keep its metrics hooks unconditionally.
//
//   - Reads are deterministic. Snapshot (and the Prometheus text
//     rendering derived from it) lists instruments in sorted
//     (name, labels) order, so the snapshot of a seeded simulation run
//     is itself reproducible and can be asserted byte-for-byte in tests.
//
// Instruments are identified by name plus an optional flat list of
// label key/value pairs; registering the same identity twice returns
// the same instrument, so independent components may share a counter
// (e.g. every TCP endpoint of a process aggregates into one
// "transport_messages_sent_total"). Look instruments up once and keep
// the handle: the lookup takes the registry lock, the handle is a bare
// atomic.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key/value pair attached to an instrument.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Registry holds named instruments. The zero value is not usable; call
// New. A nil *Registry is the disabled registry: every lookup returns a
// nil instrument whose methods do nothing.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// identity builds the canonical map key for name plus label pairs, and
// the parsed label list. Labels must come in key/value pairs.
func identity(name string, labels []string) (string, []Label) {
	if name == "" {
		panic("metrics: empty instrument name")
	}
	if len(labels)%2 != 0 {
		// Spelled without fmt: a slice passed to it as an interface would
		// make every caller's variadic label list escape to the heap.
		panic("metrics: " + name + ": odd label list " + strconv.Quote(strings.Join(labels, " ")))
	}
	if len(labels) == 0 {
		return name, nil
	}
	ls := make([]Label, len(labels)/2)
	var b strings.Builder
	b.WriteString(name)
	for i := range ls {
		ls[i] = Label{Key: labels[2*i], Value: labels[2*i+1]}
		b.WriteByte(0xff)
		b.WriteString(ls[i].Key)
		b.WriteByte(0xfe)
		b.WriteString(ls[i].Value)
	}
	return b.String(), ls
}

// Counter returns (registering on first use) the monotonically
// increasing counter with the given name and label pairs. Returns nil
// on a nil registry.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	key, ls := identity(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[key]; ok {
		return c
	}
	c := &Counter{name: name, labels: ls}
	r.counters[key] = c
	return c
}

// Gauge returns (registering on first use) the gauge with the given
// name and label pairs. Returns nil on a nil registry.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	key, ls := identity(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[key]; ok {
		return g
	}
	g := &Gauge{name: name, labels: ls}
	r.gauges[key] = g
	return g
}

// Histogram returns (registering on first use) the histogram with the
// given name, bucket upper bounds (ascending; an implicit +Inf bucket is
// appended) and label pairs. Re-registering an existing identity returns
// the existing histogram and ignores the bounds. Returns nil on a nil
// registry.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: %s: bucket bound %g after %g, not ascending", name, bounds[i], bounds[i-1]))
		}
	}
	key, ls := identity(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[key]; ok {
		return h
	}
	h := &Histogram{
		name:   name,
		labels: ls,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	r.histograms[key] = h
	return h
}

// ---- instruments ---------------------------------------------------------

// Counter is a monotonically increasing int64. All methods are no-ops
// on a nil receiver.
type Counter struct {
	v      atomic.Int64
	name   string
	labels []Label
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n < 0 panics: counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("metrics: counter decrement")
	}
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 value. All methods are no-ops on a
// nil receiver.
type Gauge struct {
	bits   atomic.Uint64 // float64 bits
	name   string
	labels []Label
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta (atomically, via CAS).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets (cumulative on
// export, like Prometheus). All methods are no-ops on a nil receiver.
type Histogram struct {
	name   string
	labels []Label
	bounds []float64      // upper bounds, ascending
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// ---- snapshot ------------------------------------------------------------

// CounterValue is one counter's state in a Snapshot.
type CounterValue struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  int64   `json:"value"`
}

// GaugeValue is one gauge's state in a Snapshot.
type GaugeValue struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// Bucket is one cumulative histogram bucket: the count of observations
// ≤ UpperBound. It marshals the bound as a string ("+Inf" for the final
// bucket) because encoding/json rejects infinite floats.
type Bucket struct {
	UpperBound float64
	Count      int64
}

// MarshalJSON renders {"le":"<bound>","count":n} with the bound in
// Prometheus string form.
func (b Bucket) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf(`{"le":%q,"count":%d}`, formatBound(b.UpperBound), b.Count)), nil
}

// UnmarshalJSON parses the string-bound form written by MarshalJSON.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var raw struct {
		LE    string `json:"le"`
		Count int64  `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if raw.LE == "+Inf" {
		b.UpperBound = math.Inf(1)
	} else {
		v, err := strconv.ParseFloat(raw.LE, 64)
		if err != nil {
			return fmt.Errorf("metrics: bad bucket bound %q: %w", raw.LE, err)
		}
		b.UpperBound = v
	}
	b.Count = raw.Count
	return nil
}

// formatBound renders a bucket bound the way Prometheus does.
func formatBound(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// HistogramValue is one histogram's state in a Snapshot. Buckets are
// cumulative; the final bucket's bound is +Inf and its count equals
// Count.
type HistogramValue struct {
	Name    string   `json:"name"`
	Labels  []Label  `json:"labels,omitempty"`
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets"`
}

// Snapshot is a point-in-time copy of every instrument, sorted by
// (name, labels) so equal registry states produce equal snapshots.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters,omitempty"`
	Gauges     []GaugeValue     `json:"gauges,omitempty"`
	Histograms []HistogramValue `json:"histograms,omitempty"`
}

// labelsLess orders two label lists lexicographically.
func labelsLess(a, b []Label) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i].Key != b[i].Key {
			return a[i].Key < b[i].Key
		}
		if a[i].Value != b[i].Value {
			return a[i].Value < b[i].Value
		}
	}
	return len(a) < len(b)
}

// Snapshot copies the registry's current state. A nil registry yields a
// zero Snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.histograms))
	for _, h := range r.histograms {
		hists = append(hists, h)
	}
	r.mu.Unlock()

	for _, c := range counters {
		s.Counters = append(s.Counters, CounterValue{Name: c.name, Labels: c.labels, Value: c.Value()})
	}
	sort.Slice(s.Counters, func(i, j int) bool {
		if s.Counters[i].Name != s.Counters[j].Name {
			return s.Counters[i].Name < s.Counters[j].Name
		}
		return labelsLess(s.Counters[i].Labels, s.Counters[j].Labels)
	})
	for _, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: g.name, Labels: g.labels, Value: g.Value()})
	}
	sort.Slice(s.Gauges, func(i, j int) bool {
		if s.Gauges[i].Name != s.Gauges[j].Name {
			return s.Gauges[i].Name < s.Gauges[j].Name
		}
		return labelsLess(s.Gauges[i].Labels, s.Gauges[j].Labels)
	})
	for _, h := range hists {
		hv := HistogramValue{Name: h.name, Labels: h.labels, Count: h.Count(), Sum: h.Sum()}
		var cum int64
		for i := range h.counts {
			cum += h.counts[i].Load()
			bound := math.Inf(1)
			if i < len(h.bounds) {
				bound = h.bounds[i]
			}
			hv.Buckets = append(hv.Buckets, Bucket{UpperBound: bound, Count: cum})
		}
		s.Histograms = append(s.Histograms, hv)
	}
	sort.Slice(s.Histograms, func(i, j int) bool {
		if s.Histograms[i].Name != s.Histograms[j].Name {
			return s.Histograms[i].Name < s.Histograms[j].Name
		}
		return labelsLess(s.Histograms[i].Labels, s.Histograms[j].Labels)
	})
	return s
}
