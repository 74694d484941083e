package des

import (
	"math/rand"
	"testing"
)

// TestSourceKnownAnswers pins the first draws of the splitmix64
// reference generator for seed 1234567.
func TestSourceKnownAnswers(t *testing.T) {
	want := []uint64{
		6457827717110365317,
		3203168211198807973,
		9817491932198370423,
		4593380528125082431,
		16408922859458223821,
	}
	s := NewSource(1234567)
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Fatalf("draw %d = %d, want %d", i, got, w)
		}
	}
}

func TestSourceSeedRestartsStream(t *testing.T) {
	s := NewSource(9)
	first := []uint64{s.Uint64(), s.Uint64(), s.Uint64()}
	s.Seed(9)
	for i, w := range first {
		if got := s.Uint64(); got != w {
			t.Fatalf("after Seed, draw %d = %d, want %d", i, got, w)
		}
	}
	r := NewRand(9)
	a := []int{r.Intn(1000), r.Intn(1000), r.Intn(1000)}
	r.Seed(9)
	for i, w := range a {
		if got := r.Intn(1000); got != w {
			t.Fatalf("after Rand.Seed, draw %d = %d, want %d", i, got, w)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Seed(3) }); allocs != 0 {
		t.Errorf("Seed allocates %v times", allocs)
	}
}

func TestSourceInt63NonNegative(t *testing.T) {
	s, twin := NewSource(-1), NewSource(-1)
	for i := 0; i < 10000; i++ {
		v := s.Int63()
		if v < 0 {
			t.Fatalf("draw %d: Int63 = %d", i, v)
		}
		if want := int64(twin.Uint64() << 1 >> 1); v != want {
			t.Fatalf("draw %d: Int63 = %d, want the low 63 bits %d", i, v, want)
		}
	}
}

// TestNewRandTakesSource64Path checks that rand.Rand sees the source
// as a rand.Source64: one Uint64 call is one splitmix64 step, not two
// Int63 draws stitched together.
func TestNewRandTakesSource64Path(t *testing.T) {
	var _ rand.Source64 = (*Source)(nil)
	r, twin := NewRand(5), NewSource(5)
	for i := 0; i < 100; i++ {
		if got, want := r.Uint64(), twin.Uint64(); got != want {
			t.Fatalf("draw %d: Rand.Uint64 = %d, want %d", i, got, want)
		}
	}
}
