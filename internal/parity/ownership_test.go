package parity

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"p2pmss/internal/seq"
)

// The Recoverer keeps no reference to a payload it is given: the caller
// scribbles over every payload right after Add, and the recovered
// content still matches the oracle fed the untouched packets, nested
// parities and recovered packets included.
func TestRecovererKeepsNoReference(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		arrivals, l := randomStream(rand.New(rand.NewSource(seed)))
		for _, r := range []*Recoverer{NewRecoverer(), NewContentRecoverer(int(l)*16, 16)} {
			o := newFixpointOracle()
			for _, p := range arrivals {
				q := p
				q.Payload = bytes.Clone(p.Payload)
				r.Add(q)
				for i := range q.Payload {
					q.Payload[i] = 0xee
				}
				o.add(p.Key(), p.Payload)
			}
			if r.Present() != len(o.payload) || r.Recovered() != o.recovered {
				t.Fatalf("seed %d: present/recovered = %d/%d, oracle %d/%d", seed, r.Present(), r.Recovered(), len(o.payload), o.recovered)
			}
			for k := int64(1); k <= l; k++ {
				want, ok := o.payload[DataKey(k)]
				if got, present := r.DataPayload(k); present != ok || !equalPadded(got, want) {
					t.Fatalf("seed %d: t%d = %x (%v), oracle %x (%v)", seed, k, got, present, want, ok)
				}
			}
		}
	}
}

// A lossless session in which no parity overtakes the data it covers —
// nested parities, otherwise shuffled, duplicated — performs no payload
// XOR: a parity that arrives after its data is not copied, and one
// derived from its covers is counted present with its bytes left
// uncomputed. The presence counts and Recovered are the oracle's.
func TestRecovererLosslessXORsNothing(t *testing.T) {
	derived := 0
	for seed := int64(0); seed < 100; seed++ {
		shuffled, l := randomStreamLoss(rand.New(rand.NewSource(seed)), 0)
		arrivals := afterTheirData(shuffled)
		r, o := NewContentRecoverer(int(l)*16, 16), newFixpointOracle()
		for _, p := range arrivals {
			r.Add(p)
			o.add(p.Key(), p.Payload)
		}
		if r.Present() != len(o.payload) || r.DataPresent() != o.dataPresent() || r.Recovered() != o.recovered {
			t.Fatalf("seed %d: present/data/recovered = %d/%d/%d, oracle %d/%d/%d", seed,
				r.Present(), r.DataPresent(), r.Recovered(), len(o.payload), o.dataPresent(), o.recovered)
		}
		if r.store.xors != 0 {
			t.Fatalf("seed %d: %d payload XORs on a lossless stream", seed, r.store.xors)
		}
		derived += r.Recovered()
	}
	if derived == 0 {
		t.Fatal("no parity was derived from its covers; the lazy path is untested")
	}
}

// afterTheirData reorders arrivals so that each parity comes right after
// the last data packet it covers, directly or nested, and keeps the order
// otherwise.
func afterTheirData(arrivals seq.Sequence) seq.Sequence {
	seen := map[int64]bool{}
	var out, held seq.Sequence
	ready := func(p seq.Packet) bool {
		var all func(p seq.Packet) bool
		all = func(p seq.Packet) bool {
			if p.IsData() {
				return seen[p.Index]
			}
			for i := 0; i < p.NumCovers(); i++ {
				if !all(p.Cover(i)) {
					return false
				}
			}
			return true
		}
		return all(p)
	}
	for _, p := range arrivals {
		if !p.IsData() {
			held = append(held, p)
			continue
		}
		out = append(out, p)
		seen[p.Index] = true
		rest := held[:0]
		for _, q := range held {
			if ready(q) {
				out = append(out, q)
			} else {
				rest = append(rest, q)
			}
		}
		held = rest
	}
	return append(out, held...)
}

// A loss recovered through a derived, nested parity: p(t7,t8) is never
// received, so its bytes are computed from t7 and t8 only when
// p(t5,p(t7,t8)) recovers t5 from them.
func TestRecovererLossThroughDerivedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data := map[int64][]byte{}
	for _, k := range []int64{5, 7, 8} {
		data[k] = make([]byte, 32)
		rng.Read(data[k])
	}
	outer := mustParse(t, "p(t5,p(t7,t8))")
	outer.Payload = XOR([][]byte{data[5], data[7], data[8]})
	r, o := NewContentRecoverer(8*32, 32), newFixpointOracle()
	for _, p := range []seq.Packet{seq.NewDataPayload(7, data[7]), seq.NewDataPayload(8, data[8])} {
		r.Add(p)
		o.add(p.Key(), p.Payload)
	}
	r.Add(outer)
	o.add(outer.Key(), outer.Payload)
	if r.Recovered() != o.recovered || r.Present() != len(o.payload) {
		t.Fatalf("present/recovered = %d/%d, oracle %d/%d", r.Present(), r.Recovered(), len(o.payload), o.recovered)
	}
	if got, ok := r.DataPayload(5); !ok || !bytes.Equal(got, data[5]) {
		t.Fatalf("t5 = %x (%v), want %x", got, ok, data[5])
	}
	if r.store.xors == 0 {
		t.Fatal("t5 recovered without reading a payload")
	}
	if !r.Has(mustParse(t, "p(t7,t8)")) {
		t.Fatal("p(t7,t8) not derived")
	}
}

// A parity that overtakes its segment is held while a cover is missing
// and recovers the last one, XORed straight into its slot, before it
// arrives; the rule is then resolved and the parity's buffer goes back
// for the next segment's parity to reuse.
func TestRecovererRecyclesParityBuffers(t *testing.T) {
	var s seq.Sequence
	rng := rand.New(rand.NewSource(3))
	for k := int64(1); k <= 400; k++ {
		buf := make([]byte, 64)
		rng.Read(buf)
		s = append(s, seq.NewDataPayload(k, buf))
	}
	e := Enhance(s, 4)
	r := NewContentRecoverer(400*64, 64)
	allocs, segments := 0, 0
	for seg := 0; seg < len(e); seg += 5 {
		segments++
		for _, p := range e[seg:min(seg+5, len(e))] {
			if !p.IsData() {
				if r.store == nil || len(r.store.free) == 0 {
					allocs++
				}
				r.Add(p)
			}
		}
		for _, p := range e[seg:min(seg+5, len(e))] {
			if p.IsData() {
				r.Add(p)
			}
		}
	}
	if got, ok := r.Content(); !ok || !bytes.Equal(got, contentOf(s)) {
		t.Fatal("content differs")
	}
	if r.Recovered() != segments {
		t.Fatalf("recovered %d packets, want %d", r.Recovered(), segments)
	}
	if allocs > 1 {
		t.Fatalf("%d parity buffers allocated for %d segments held one at a time", allocs, segments)
	}
}

// A lost data packet is XORed straight into its slot of the content
// buffer when its rule recovers it: DataPayload returns that slot, and
// the content is complete without it ever arriving.
func TestRecovererRecoversIntoSlot(t *testing.T) {
	var s seq.Sequence
	rng := rand.New(rand.NewSource(8))
	for k := int64(1); k <= 40; k++ {
		buf := make([]byte, 32)
		rng.Read(buf)
		s = append(s, seq.NewDataPayload(k, buf))
	}
	r := NewContentRecoverer(40*32, 32)
	var lost []int64
	for j, p := range Enhance(s, 4) {
		if j%5 != 3 {
			r.Add(p)
		} else if p.IsData() {
			lost = append(lost, p.Index)
		}
	}
	if len(lost) == 0 || r.store.xors == 0 {
		t.Fatalf("%d data packets lost, %d XORs", len(lost), r.store.xors)
	}
	got, ok := r.Content()
	if !ok || !bytes.Equal(got, contentOf(s)) {
		t.Fatal("content differs")
	}
	for _, k := range lost {
		p, ok := r.DataPayload(k)
		if !ok || &p[0] != &got[(k-1)*32] {
			t.Fatalf("t%d is not held in its slot of the content buffer", k)
		}
	}
}

func contentOf(s seq.Sequence) []byte {
	var out []byte
	for _, p := range s {
		out = append(out, p.Payload...)
	}
	return out
}

// Three coordination levels of re-enhancement nest parities over
// parities over data: packets recovered from recovered and derived ones,
// parities released and read again, any order. Recovery still matches
// the oracle, and reading every payload terminates.
func TestRecovererDeepNestingMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := int64(1 + rng.Intn(40))
		var e seq.Sequence
		for k := int64(1); k <= l; k++ {
			buf := make([]byte, 4+rng.Intn(12))
			rng.Read(buf)
			e = append(e, seq.NewDataPayload(k, buf))
		}
		e = Enhance(e, 1+rng.Intn(4))
		for level := 0; level < 2; level++ {
			var next seq.Sequence
			for _, part := range seq.Divide(e, 1+rng.Intn(3)) {
				next = append(next, Enhance(part, 1+rng.Intn(3))...)
			}
			e = next
		}
		var arrivals seq.Sequence
		for _, p := range e {
			if rng.Float64() < 0.2 {
				continue
			}
			arrivals = append(arrivals, p)
			if rng.Intn(8) == 0 {
				arrivals = append(arrivals, p)
			}
		}
		rng.Shuffle(len(arrivals), func(i, j int) { arrivals[i], arrivals[j] = arrivals[j], arrivals[i] })
		checkAgainstOracle(t, NewRecoverer(), arrivals, l, fmt.Sprintf("seed %d", seed))
		checkAgainstOracle(t, NewContentRecoverer(int(l)*16, 16), arrivals, l, fmt.Sprintf("seed %d content", seed))
	}
}
