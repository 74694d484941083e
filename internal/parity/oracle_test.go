package parity

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"p2pmss/internal/seq"
)

// fixpointOracle is the whole-table recoverer the incremental Recoverer
// replaced, kept as the reference the differential tests compare
// against: string-keyed maps, and every known rule re-walked after every
// arrival until nothing more can be derived.
type fixpointOracle struct {
	payload   map[string][]byte   // key → payload for present packets
	rules     map[string][]string // parity key → covered keys
	recovered int
}

func newFixpointOracle() *fixpointOracle {
	return &fixpointOracle{payload: map[string][]byte{}, rules: map[string][]string{}}
}

func (o *fixpointOracle) has(key string) bool { _, ok := o.payload[key]; return ok }

func (o *fixpointOracle) dataPresent() int {
	n := 0
	for key := range o.payload {
		if _, ok := DataIndexOf(key); ok {
			n++
		}
	}
	return n
}

func (o *fixpointOracle) add(key string, payload []byte) {
	if o.has(key) {
		return
	}
	o.payload[key] = payload
	o.noteRule(key)
	for progressed := true; progressed; {
		progressed = false
		for pk, covers := range o.rules {
			var missing []string
			for _, c := range covers {
				if !o.has(c) {
					missing = append(missing, c)
				}
			}
			switch {
			case !o.has(pk) && len(missing) == 0:
				o.payload[pk] = o.xorOf(covers, "")
			case o.has(pk) && len(missing) == 1:
				o.payload[missing[0]] = o.xorOf(append([]string{pk}, covers...), missing[0])
			default:
				continue
			}
			o.recovered++
			progressed = true
		}
	}
}

func (o *fixpointOracle) noteRule(key string) {
	covers, ok := CoversOf(key)
	if _, seen := o.rules[key]; !ok || seen {
		return
	}
	o.rules[key] = covers
	for _, c := range covers {
		o.noteRule(c)
	}
}

func (o *fixpointOracle) xorOf(keys []string, skip string) []byte {
	var bufs [][]byte
	for _, k := range keys {
		if k != skip {
			bufs = append(bufs, o.payload[k])
		}
	}
	return XOR(bufs)
}

// randomStream builds the arrivals of one session: a content of random
// payloads enhanced with interval h, optionally divided and re-enhanced
// per part (the nested parities of §3.6), shuffled, with roughly 15 % of
// the packets lost and some delivered twice.
func randomStream(rng *rand.Rand) (arrivals seq.Sequence, l int64) {
	return randomStreamLoss(rng, 0.15)
}

// randomStreamLoss is randomStream with the given share of packets lost.
func randomStreamLoss(rng *rand.Rand, loss float64) (arrivals seq.Sequence, l int64) {
	l = int64(1 + rng.Intn(80))
	h := 1 + rng.Intn(6)
	var s seq.Sequence
	for k := int64(1); k <= l; k++ {
		buf := make([]byte, 4+rng.Intn(12))
		rng.Read(buf)
		s = append(s, seq.NewDataPayload(k, buf))
	}
	e := Enhance(s, h)
	if rng.Intn(2) == 0 {
		var nested seq.Sequence
		for _, part := range seq.Divide(e, 1+rng.Intn(3)) {
			nested = append(nested, Enhance(part, 1+rng.Intn(4))...)
		}
		e = nested
	}
	for _, p := range e {
		if rng.Float64() < loss {
			continue
		}
		arrivals = append(arrivals, p)
		if rng.Intn(8) == 0 {
			arrivals = append(arrivals, p)
		}
	}
	rng.Shuffle(len(arrivals), func(i, j int) { arrivals[i], arrivals[j] = arrivals[j], arrivals[i] })
	return arrivals, l
}

// equalPadded reports whether a and b are equal up to trailing zero
// padding: a derived payload is as long as the longest packet of the rule
// that derived it, and when two rules can derive a packet the oracle's
// map order picks one.
func equalPadded(a, b []byte) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	return bytes.Equal(a, b[:len(a)]) && len(bytes.TrimRight(b[len(a):], "\x00")) == 0
}

// checkAgainstOracle feeds the same arrivals to a Recoverer and to the
// fixpoint oracle and requires equal counters after every Add, Add's
// result to be "first receipt of this identity", and equal presence and
// payload (up to padding) of every data packet at the end.
func checkAgainstOracle(t *testing.T, r *Recoverer, arrivals seq.Sequence, l int64, label string) {
	t.Helper()
	o := newFixpointOracle()
	received := map[string]bool{}
	for i, p := range arrivals {
		isNew := r.Add(p)
		o.add(p.Key(), p.Payload)
		if isNew == received[p.Key()] {
			t.Fatalf("%s: arrival %d (%s): Add = %v, received before = %v", label, i, p.Key(), isNew, received[p.Key()])
		}
		received[p.Key()] = true
		if r.Present() != len(o.payload) || r.DataPresent() != o.dataPresent() || r.Recovered() != o.recovered {
			t.Fatalf("%s: after arrival %d (%s): present/data/recovered = %d/%d/%d, oracle %d/%d/%d", label, i, p.Key(),
				r.Present(), r.DataPresent(), r.Recovered(), len(o.payload), o.dataPresent(), o.recovered)
		}
	}
	for key, want := range o.payload {
		if !r.Has(mustParse(t, key)) {
			t.Fatalf("%s: oracle holds %s, recoverer does not", label, key)
		}
		if k, ok := DataIndexOf(key); ok {
			if got, _ := r.DataPayload(k); !equalPadded(got, want) {
				t.Fatalf("%s: t%d payload %x, oracle %x", label, k, got, want)
			}
		}
	}
	for k := int64(1); k <= l; k++ {
		if r.HasData(k) != o.has(DataKey(k)) {
			t.Fatalf("%s: HasData(%d) = %v, oracle %v", label, k, r.HasData(k), o.has(DataKey(k)))
		}
	}
}

// The incremental recoverer derives exactly what the whole-table fixpoint
// derived, step by step, with and without the dense data table.
func TestRecovererMatchesFixpointOracle(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		arrivals, l := randomStream(rand.New(rand.NewSource(seed)))
		checkAgainstOracle(t, NewRecoverer(), arrivals, l, fmt.Sprintf("seed %d", seed))
		// A hint shorter than the content puts part of it in the dense
		// table and the rest in the sparse map.
		checkAgainstOracle(t, NewSizedRecoverer(int(l)/2), arrivals, l, fmt.Sprintf("seed %d sized", seed))
	}
}

// Repeated covers, parities first seen as covers and a parity covering
// nothing follow the oracle too. (Keys that name no packet — "x", "t07",
// "p(,)" — never reach a recoverer: seq.ReadPacket rejects them.)
func TestRecovererOddKeysMatchOracle(t *testing.T) {
	type arrival struct {
		key     string
		payload []byte
	}
	arrivals := []arrival{
		{"p(t1,t1)", []byte{0}},
		{"t1", []byte{1}},
		{"p(t9,t2)", []byte{9 ^ 2}},
		{"t9", []byte{9}},
		{"t7", []byte{8}},
		{"t8", []byte{8}},
		{"p(t5,p(t7,t8))", []byte{5}},
		{"p()", []byte{1}},
		{"p(p(),t6)", []byte{6}},
		{"p(t3,t3,t4)", []byte{4}},
	}
	r, o := NewRecoverer(), newFixpointOracle()
	for _, a := range arrivals {
		p := mustParse(t, a.key)
		p.Payload = a.payload
		r.Add(p)
		o.add(a.key, a.payload)
		if r.Present() != len(o.payload) || r.Recovered() != o.recovered {
			t.Fatalf("after %q: present/recovered = %d/%d, oracle %d/%d", a.key, r.Present(), r.Recovered(), len(o.payload), o.recovered)
		}
	}
	for key, want := range o.payload {
		if !r.Has(mustParse(t, key)) {
			t.Errorf("oracle holds %q, recoverer does not", key)
		}
		if k, ok := DataIndexOf(key); ok {
			if got, _ := r.DataPayload(k); !bytes.Equal(got, want) {
				t.Errorf("t%d payload %x, oracle %x", k, got, want)
			}
		}
	}
}

// The same arrivals produce the same OnData callback order and the same
// payload bytes on every run; the map-ordered fixpoint did not.
func TestRecovererDeterministic(t *testing.T) {
	arrivals, l := randomStream(rand.New(rand.NewSource(42)))
	run := func() (order []int64, payloads [][]byte) {
		r := NewRecoverer()
		r.OnData(func(k int64) { order = append(order, k) })
		for _, p := range arrivals {
			r.Add(p)
		}
		for k := int64(1); k <= l; k++ {
			b, _ := r.DataPayload(k)
			payloads = append(payloads, b)
		}
		return order, payloads
	}
	wantOrder, wantPayloads := run()
	if len(wantOrder) == 0 {
		t.Fatal("no data packet became present")
	}
	for i := 1; i < 20; i++ {
		order, payloads := run()
		if fmt.Sprint(order) != fmt.Sprint(wantOrder) {
			t.Fatalf("run %d: OnData order %v, first run %v", i, order, wantOrder)
		}
		for k := range payloads {
			if !bytes.Equal(payloads[k], wantPayloads[k]) {
				t.Fatalf("run %d: t%d payload differs", i, k+1)
			}
		}
	}
}
