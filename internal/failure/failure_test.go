package failure

import (
	"testing"

	"p2pmss/internal/des"
	"p2pmss/internal/simnet"
)

func TestGilbertElliottValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad probability did not panic")
		}
	}()
	NewGilbertElliott(1.5, 0, 0, 0, 1)
}

func TestGilbertElliottStationaryLoss(t *testing.T) {
	// pGB=0.1, pBG=0.5 → stationary bad fraction = 0.1/(0.1+0.5) ≈ 1/6.
	// With lossGood=0, lossBad=1, expected loss ≈ 16.7%.
	g := NewGilbertElliott(0.1, 0.5, 0, 1, 42)
	for i := 0; i < 200000; i++ {
		g.Step()
	}
	rate := g.LossRate()
	if rate < 0.12 || rate > 0.22 {
		t.Errorf("loss rate %.3f, want ≈0.167", rate)
	}
	if g.BadVisits == 0 {
		t.Error("never entered burst state")
	}
}

func TestGilbertElliottBurstiness(t *testing.T) {
	// Losses should cluster: with sticky states, consecutive-loss runs
	// are much longer than under i.i.d. loss of the same rate.
	g := NewGilbertElliott(0.01, 0.2, 0, 1, 7)
	var runs, runLen, maxRun int
	inRun := false
	for i := 0; i < 100000; i++ {
		lost := g.Step()
		if lost {
			if !inRun {
				runs++
				inRun = true
				runLen = 0
			}
			runLen++
			if runLen > maxRun {
				maxRun = runLen
			}
		} else {
			inRun = false
		}
	}
	if runs == 0 {
		t.Fatal("no loss runs")
	}
	if maxRun < 5 {
		t.Errorf("max burst %d too short for a bursty channel", maxRun)
	}
}

func TestGilbertElliottNeverLoses(t *testing.T) {
	g := NewGilbertElliott(0.5, 0.5, 0, 0, 1)
	for i := 0; i < 1000; i++ {
		if g.Step() {
			t.Fatal("lossless channel dropped")
		}
	}
	if g.LossRate() != 0 {
		t.Error("loss rate nonzero")
	}
}

func TestChannelSetIndependence(t *testing.T) {
	cs := NewChannelSet(0.05, 0.3, 0, 1, 9)
	for i := 0; i < 5000; i++ {
		cs.Hook(0, 1)
		cs.Hook(2, 3)
	}
	a := cs.Channel(0, 1)
	b := cs.Channel(2, 3)
	if a == b {
		t.Fatal("channels shared")
	}
	if a.Messages < 5000 || b.Messages < 5000 {
		t.Errorf("messages %d/%d", a.Messages, b.Messages)
	}
	// Both see roughly the stationary rate but with different streams.
	if a.Dropped == b.Dropped && a.BadVisits == b.BadVisits {
		t.Error("suspiciously identical channels")
	}
}

func TestChannelSetAsSimnetHook(t *testing.T) {
	eng := des.New(1)
	nw := simnet.New(eng)
	cs := NewChannelSet(0.2, 0.2, 0, 1, 3)
	nw.BurstLoss = cs.Hook
	got := 0
	nw.AttachFunc(1, func(simnet.NodeID, simnet.Message) { got++ })
	const n = 2000
	for i := 0; i < n; i++ {
		nw.Send(0, 1, i)
	}
	eng.Run()
	if got == 0 || got == n {
		t.Errorf("delivered %d of %d — hook not effective", got, n)
	}
	st := nw.Stats()
	if st.Dropped != int64(n-got) {
		t.Errorf("dropped stat %d, want %d", st.Dropped, n-got)
	}
}

func TestCrashPlan(t *testing.T) {
	bad := CrashPlan{Peers: []simnet.NodeID{1}, Times: []float64{1, 2}}
	if err := bad.Validate(); err == nil {
		t.Error("mismatched plan validated")
	}
	neg := CrashPlan{Peers: []simnet.NodeID{1}, Times: []float64{-1}}
	if err := neg.Validate(); err == nil {
		t.Error("negative time validated")
	}

	eng := des.New(1)
	nw := simnet.New(eng)
	nw.AttachFunc(1, func(simnet.NodeID, simnet.Message) {})
	plan := CrashPlan{Peers: []simnet.NodeID{1}, Times: []float64{5}}
	if err := plan.Install(nw); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(4)
	if nw.Crashed(1) {
		t.Error("crashed early")
	}
	eng.RunUntil(6)
	if !nw.Crashed(1) {
		t.Error("did not crash on schedule")
	}
}

func BenchmarkGilbertElliott(b *testing.B) {
	g := NewGilbertElliott(0.05, 0.3, 0.001, 0.5, 1)
	for i := 0; i < b.N; i++ {
		g.Step()
	}
}

func TestChurnScheduleValidateAndInstall(t *testing.T) {
	bad := ChurnSchedule{Events: []ChurnEvent{{At: -1, Peer: 1}}}
	if err := bad.Validate(); err == nil {
		t.Error("negative churn time validated")
	}

	eng := des.New(1)
	nw := simnet.New(eng)
	nw.AttachFunc(2, func(simnet.NodeID, simnet.Message) {})
	var seen []ChurnEvent
	s := ChurnSchedule{Events: []ChurnEvent{
		{At: 5, Peer: 2},
		{At: 9, Peer: 2, Join: true},
	}}
	if err := s.Install(nw, func(e ChurnEvent) { seen = append(seen, e) }); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(6)
	if !nw.Crashed(2) {
		t.Error("peer did not crash on schedule")
	}
	eng.RunUntil(10)
	if nw.Crashed(2) {
		t.Error("peer did not rejoin on schedule")
	}
	if len(seen) != 2 || seen[0].Join || !seen[1].Join {
		t.Errorf("observe saw %+v", seen)
	}
}

func TestPeriodicChurn(t *testing.T) {
	s := PeriodicChurn(3, 2, 10, 4, 6)
	want := []ChurnEvent{
		{At: 10, Peer: 3},
		{At: 16, Peer: 3, Join: true},
		{At: 14, Peer: 4},
		{At: 20, Peer: 4, Join: true},
	}
	if len(s.Events) != len(want) {
		t.Fatalf("got %d events, want %d", len(s.Events), len(want))
	}
	for i, e := range s.Events {
		if e != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, e, want[i])
		}
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}

	stayDown := PeriodicChurn(0, 2, 1, 1, 0)
	if len(stayDown.Events) != 2 {
		t.Errorf("downAfter<=0 should emit crashes only, got %d events", len(stayDown.Events))
	}
}
