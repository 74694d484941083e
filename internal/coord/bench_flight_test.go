package coord

import (
	"testing"

	"p2pmss/internal/flight"
)

// BenchmarkFlightDisabledNote extends the BenchmarkFlightDisabled*
// family (internal/engine, CI-gated at 0 allocs/op) to the runner's own
// record call: with no flight set attached, a driver note — made once
// per baseline control packet and activation, and per crash, rejoin and
// repair request — must cost nothing. The arguments vary per iteration
// so a signature that boxes them (as the printf-style tracer this call
// replaced did, before its nil check ran) shows up as allocations.
func BenchmarkFlightDisabledNote(b *testing.B) {
	r, err := newRunner(baseCfg())
	if err != nil {
		b.Fatal(err)
	}
	if r.cfg.Obs.Flight != nil {
		b.Fatal("default config must not attach a flight set")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.note(i&7, flight.Event{Dir: flight.DirDriver, Type: "repair_request", Other: i & 3, Round: i, N: i})
	}
}
