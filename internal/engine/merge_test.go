package engine_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"p2pmss/internal/engine"
	"p2pmss/internal/parity"
	"p2pmss/internal/seq"
)

// refStream is the eager schedule the Stream is held to: every merge and
// switch unions the unsent remainder with seq.Union / seq.UnionExcept at
// once, so the sequence it sends from is always one slice.
type refStream struct {
	seq     seq.Sequence
	pos     int
	rate    float64
	planned bool
	keep    seq.Sequence
	given   []seq.Sequence
	oldRate float64
	newRate float64
	mark    float64
}

func (st *refStream) install(s seq.Sequence, rate float64) {
	st.seq, st.pos, st.rate = s, 0, rate
}

func (st *refStream) remainder() seq.Sequence {
	if st.pos < len(st.seq) {
		return st.seq[st.pos:]
	}
	return nil
}

func (st *refStream) merge(s seq.Sequence, rate float64) {
	if st.seq == nil && s == nil {
		st.rate += rate
		return
	}
	st.install(seq.Union(st.remainder(), s), st.rate+rate)
}

func (st *refStream) apply(eff engine.Effect) bool {
	switch e := eff.(type) {
	case *engine.Activate:
		st.install(e.Seq, e.Rate)
	case *engine.Merge:
		st.merge(e.Seq, e.Rate)
	case *engine.Handoff:
		mark := math.Inf(1)
		if e.Mark < len(st.seq) {
			mark = st.seq[e.Mark].Pos
		}
		replaced := st.switchNow()
		st.planned = true
		st.keep, st.given, st.oldRate, st.newRate, st.mark = e.Keep, e.Given, e.OldRate, e.NewRate, mark
		return replaced
	case *engine.Absorb:
		if st.planned {
			st.keep = seq.Union(st.keep, e.Seq)
			st.newRate += e.RateDelta
			return false
		}
		st.merge(e.Seq, e.RateDelta)
	default:
		return false
	}
	return true
}

func (st *refStream) switchNow() bool {
	if !st.planned {
		return false
	}
	st.planned = false
	st.rate = st.rate - st.oldRate + st.newRate
	if st.rate <= 0 {
		st.rate = st.newRate
	}
	if st.seq != nil {
		gone := make(map[string]bool)
		for _, g := range st.given {
			for _, p := range g {
				gone[p.Key()] = true
			}
		}
		drop := func(p *seq.Packet) bool { return gone[p.Key()] }
		st.seq, st.pos = seq.UnionExcept(st.remainder(), st.keep, drop), 0
	}
	return true
}

func (st *refStream) due() bool {
	return st.planned && (st.pos >= len(st.seq) || st.seq[st.pos].Pos >= st.mark)
}

func (st *refStream) next() (seq.Packet, bool) {
	if st.pos >= len(st.seq) {
		return seq.Packet{}, false
	}
	st.pos++
	return st.seq[st.pos-1], true
}

// samePacket reports whether got is want: identity, Pos bits and the
// very Payload bytes, so which operand's copy a merge kept.
func samePacket(got, want *seq.Packet) bool {
	return seq.SameIdentity(got, want) && math.Float64bits(got.Pos) == math.Float64bits(want.Pos) &&
		len(got.Payload) == len(want.Payload) && (len(got.Payload) == 0 || &got.Payload[0] == &want.Payload[0])
}

// tag gives every packet of s a one-byte payload of its own, so a
// merged stream shows which share each surviving packet came from.
func tag(s seq.Sequence) seq.Sequence {
	if s == nil {
		return nil
	}
	out := make(seq.Sequence, len(s))
	buf := make([]byte, len(s))
	for i, p := range s {
		p.Payload = buf[i : i+1 : i+1]
		out[i] = p
	}
	return out
}

// mergeScript runs one fuzzed script against a Stream and the
// reference. Its first bytes pick a Figure-12 shape — the content
// length, H and the parity interval — and the rest are operations.
type mergeScript struct {
	t        *testing.T
	b        []byte
	rng      *rand.Rand
	content  seq.Sequence
	enhanced seq.Sequence
	h, p     int
	st       engine.Stream
	ref      refStream
	given    []seq.Sequence // the last hand-off's children's shares
	step     int
}

func (m *mergeScript) byte() int {
	if len(m.b) == 0 {
		return 0
	}
	v := m.b[0]
	m.b = m.b[1:]
	return int(v)
}

// share draws a share another parent could send: its own enhancement
// of the content divided among its children, a share with parities
// that recur at another position, with an adjacent duplicate, empty,
// or not sorted at all (only a malformed remote peer sends that).
func (m *mergeScript) share(kind int) seq.Sequence {
	k := 2 + m.byte()%40
	part := seq.Div(parity.Enhance(m.content, 1+m.byte()%30), k, m.byte()%k)
	switch kind % 8 {
	case 0, 1, 2:
		return tag(part)
	case 3: // the peer's own parities, recurring at other positions
		var s seq.Sequence
		for _, q := range m.enhanced {
			if !q.IsData() && m.rng.Intn(3) == 0 {
				q.Pos = float64(1+m.rng.Intn(len(m.content))) + 0.5*m.rng.Float64()
				s = append(s, q)
			}
		}
		s = append(s, part...)
		s.Sort()
		return tag(s)
	case 4: // adjacent duplicates
		if len(part) == 0 {
			return tag(part)
		}
		s := append(seq.Sequence(nil), part...)
		for n := 1 + m.rng.Intn(3); n > 0; n-- {
			i := m.rng.Intn(len(s))
			s = append(s[:i+1], s[i:]...)
		}
		return tag(s)
	case 5:
		return nil
	case 6:
		return seq.Sequence{}
	default: // not sorted
		s := tag(part)
		m.rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		return s
	}
}

// check holds the Stream to the reference on everything a driver or
// the engine reads without folding the runs.
func (m *mergeScript) check(op string) {
	m.t.Helper()
	snap := m.st.Snapshot()
	if snap.Offset != m.ref.pos || snap.Rate != m.ref.rate || snap.Pending != m.ref.planned {
		m.t.Fatalf("step %d (%s): offset %d rate %v pending %v, want %d %v %v",
			m.step, op, snap.Offset, snap.Rate, snap.Pending, m.ref.pos, m.ref.rate, m.ref.planned)
	}
	if got, want := m.st.Due(), m.ref.due(); got != want {
		m.t.Fatalf("step %d (%s): Due %v, want %v", m.step, op, got, want)
	}
	if got, want := m.st.More(), m.ref.pos < len(m.ref.seq); got != want {
		m.t.Fatalf("step %d (%s): More %v, want %v", m.step, op, got, want)
	}
}

// checkStream holds the whole materialized stream to the reference's.
func (m *mergeScript) checkStream() {
	m.t.Helper()
	got, want := m.st.Snapshot().Seq(), m.ref.seq
	if (got == nil) != (want == nil) || len(got) != len(want) {
		m.t.Fatalf("step %d: stream of %d packets (nil %v), want %d (nil %v)", m.step, len(got), got == nil, len(want), want == nil)
	}
	for i := range got {
		if !samePacket(&got[i], &want[i]) {
			m.t.Fatalf("step %d: stream packet %d is %v@%v, want %v@%v", m.step, i, got[i], got[i].Pos, want[i], want[i].Pos)
		}
	}
}

func (m *mergeScript) apply(op string, eff engine.Effect) {
	m.t.Helper()
	if got, want := m.st.Apply(eff), m.ref.apply(eff); got != want {
		m.t.Fatalf("step %d (%s): Apply reported %v, want %v", m.step, op, got, want)
	}
}

func (m *mergeScript) run() {
	for ; len(m.b) > 0; m.step++ {
		op := m.byte()
		switch op % 10 {
		case 0: // a fresh activation
			s := tag(seq.Div(m.enhanced, m.h, m.byte()%m.h))
			if m.byte()%8 == 0 {
				s = nil // control-plane-only mode
			}
			m.apply("activate", &engine.Activate{Seq: s, Rate: float64(1 + m.byte()%8)})
		case 1, 2, 3:
			m.apply("merge", &engine.Merge{Seq: m.share(m.byte()), Rate: float64(m.byte()%4) / 2})
		case 4, 5:
			for n := 1 + m.byte()%24; n > 0; n-- {
				got, gok := m.st.Next()
				want, wok := m.ref.next()
				if gok != wok || gok && !samePacket(&got, &want) {
					m.t.Fatalf("step %d: Next gave %v@%v (%v), want %v@%v (%v)", m.step, got, got.Pos, gok, want, want.Pos, wok)
				}
			}
		case 6: // a hand-off planned on the stream as the engine sees it
			snap := m.st.Snapshot()
			mark := snap.Offset + m.byte()%8
			parts, rate := engine.ShareOut(snap.Seq(), mark, snap.Rate, m.byte()%4, 2+m.byte()%3)
			keep, given := engine.SplitParts(parts)
			m.given = given
			m.apply("handoff", &engine.Handoff{Keep: keep, Given: given, OldRate: snap.Rate, NewRate: rate, Mark: mark})
		case 7:
			back := m.share(m.byte())
			if len(m.given) > 0 && m.byte()%2 == 0 {
				back = m.given[m.byte()%len(m.given)]
			}
			m.apply("absorb", &engine.Absorb{Seq: back, RateDelta: 0.5})
		case 8:
			if got, want := m.st.Switch(), m.ref.switchNow(); got != want {
				m.t.Fatalf("step %d: Switch reported %v, want %v", m.step, got, want)
			}
		case 9:
			if m.byte()%4 == 0 {
				m.st.Rewind()
				m.ref.pos = 0
			}
			m.checkStream()
		}
		m.check([]string{"activate", "merge", "merge", "merge", "next", "next", "handoff", "absorb", "switch", "snapshot"}[op%10])
	}
	m.checkStream()
}

// FuzzStreamMerge runs random scripts of installs, merges, sends,
// hand-offs, absorbs, switches, rewinds and snapshots against the
// reference: every packet sent, the offset, rate, pending plan, Due and
// More after every step, and the materialized stream wherever the
// script takes a snapshot, must be the reference's.
func FuzzStreamMerge(f *testing.F) {
	// Figure-12 shapes: H = 30 (interval 29) and 60 (59), merges between
	// sends, a hand-off with merges before its switch.
	f.Add(uint8(30), uint8(29), []byte{0, 0, 0, 1, 0, 0, 4, 2, 1, 9, 0, 2, 3, 5, 4, 3, 9, 4, 1, 3, 4, 17, 9, 0})
	f.Add(uint8(60), uint8(59), []byte{0, 3, 0, 1, 1, 9, 9, 2, 3, 3, 5, 4, 5, 1, 2, 4, 1, 2, 9, 1})
	f.Add(uint8(10), uint8(9), []byte{0, 0, 0, 1, 8, 0, 5, 3, 6, 3, 2, 1, 0, 1, 4, 4, 1, 1, 2, 7, 2, 0, 8, 9, 0})
	f.Add(uint8(30), uint8(29), []byte{0, 1, 0, 2, 7, 2, 3, 5, 0, 1, 4, 4, 4, 6, 1, 1, 2, 3, 3, 0, 1, 4, 2, 9, 4, 40, 9, 0})
	f.Add(uint8(5), uint8(4), []byte{0, 0, 8, 3, 6, 1, 1, 1, 1, 2, 4, 8, 0, 5, 3, 7, 7, 9, 8, 4, 30, 9, 4})
	f.Fuzz(func(t *testing.T, h, interval uint8, script []byte) {
		m := &mergeScript{t: t, b: script, h: 2 + int(h)%99, p: 1 + int(interval)%60}
		m.rng = rand.New(rand.NewSource(int64(len(script))*131 + int64(h)))
		m.content = seq.Range(1, int64(m.h*(4+m.byte()%12)))
		m.enhanced = parity.Enhance(m.content, m.p)
		m.run()
	})
}

// Figure-12 runs of random scripts, so `go test` covers the lazy path
// beyond the fuzz seeds.
func TestStreamMergeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		script := make([]byte, 30+rng.Intn(90))
		for i := range script {
			script[i] = byte(rng.Intn(256))
		}
		hh := []int{5, 10, 30, 60, 100}[trial%5]
		m := &mergeScript{t: t, b: script, h: hh, p: hh - 1, rng: rand.New(rand.NewSource(int64(trial)))}
		m.content = seq.Range(1, int64(hh*(4+rng.Intn(12))))
		m.enhanced = parity.Enhance(m.content, m.p)
		m.run()
	}
}

// A merge costs its share: 30 shares of 12 packets merged into a
// 370-packet remainder, two packets sent between merges, allocate a
// small multiple of what the remainder and the shares hold, not the
// remainder once per merge (eager unions copied ≈ 30 × 370 packets).
func TestMergeCostsTheShare(t *testing.T) {
	remainder, shares := mergeShape()
	var st engine.Stream
	mergeAll := func() {
		st.Install(remainder, 1)
		for _, s := range shares {
			st.Merge(s, 0.1)
			st.Next()
			st.Next()
		}
	}
	mergeAll() // grow the run lists once; a reused Stream keeps them
	const runs = 20
	allocs := testing.AllocsPerRun(runs, mergeAll)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		mergeAll()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs

	held := len(remainder)
	for _, s := range shares {
		held += len(s)
	}
	if limit := float64(held) * float64(unsafe.Sizeof(seq.Packet{})); bytes > limit || allocs > float64(len(shares)) {
		t.Errorf("merging %d shares into %d packets allocated %.0f B (%.0f allocations) per run, want at most %.0f B (the packets held) and %d",
			len(shares), len(remainder), bytes, allocs, limit, len(shares))
	}
	t.Logf("%.0f B and %.1f allocations per run of %d merges", bytes, allocs, len(shares))
}
