package coord

import (
	"fmt"
	"testing"

	"p2pmss/internal/overlay"
)

// These tests pin down the property the engine extraction bought the
// simulator: the live layer's churn-tolerance machinery — handshake
// deadlines, alternate-peer retry waves, commit re-absorption — now runs
// under virtual time, so churn scenarios replay bit-identically.

// crashesAt is a churn schedule that crashes peers, in order, at time at.
func crashesAt(at float64, peers ...overlay.PeerID) *ChurnSchedule {
	s := &ChurnSchedule{}
	for _, p := range peers {
		s.Events = append(s.Events, ChurnEvent{At: at, Peer: p})
	}
	return s
}

func churnConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.N = 12
	cfg.H = 3
	cfg.Rate = 10
	cfg.Delta = 1
	cfg.Retries = 2
	cfg.Seed = seed
	return cfg
}

// outcomesFingerprint flattens a run's engine outcomes (tree shape,
// counters) into one comparable string.
func outcomesFingerprint(t *testing.T, cfg Config) string {
	t.Helper()
	res, err := Run(TCoP, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := ""
	for _, o := range res.Outcomes {
		s += fmt.Sprintf("%d a=%v p=%d k=%v r=%d ab=%d c=%v\n",
			o.ID, o.Active, o.Parent, o.Children, o.Retried, o.Absorbed, o.Committed)
	}
	return s
}

// TestTCoPCrashFailoverDeterministic crash-stops peers before the run:
// controls to them fail at send time, parents pull alternates from the
// spare queue, and two runs of the same seed replay identically.
func TestTCoPCrashFailoverDeterministic(t *testing.T) {
	retriedSome := false
	for seed := int64(1); seed <= 6; seed++ {
		cfg := churnConfig(seed)
		cfg.CrashPeers = []overlay.PeerID{1, 4}
		a := outcomesFingerprint(t, cfg)
		b := outcomesFingerprint(t, cfg)
		if a != b {
			t.Fatalf("seed %d: two runs diverged\n%s\n--vs--\n%s", seed, a, b)
		}
		res, err := Run(TCoP, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range res.Outcomes {
			if (o.ID == 1 || o.ID == 4) && o.Active {
				t.Fatalf("seed %d: crashed peer %d activated", seed, o.ID)
			}
			if o.Retried > 0 {
				retriedSome = true
			}
		}
	}
	if !retriedSome {
		t.Fatal("no seed exercised the alternate-peer failover path")
	}
}

// TestTCoPConfirmDeadlineRetryWave crashes peers after the controls
// reach them but before their confirmations go out (t=2.5 with δ=1:
// requests arrive at 1, controls at 2, confirmations at 3). The silent
// children trip the handshake deadline and a doubled-backoff retry wave
// goes to alternates — deterministically.
func TestTCoPConfirmDeadlineRetryWave(t *testing.T) {
	retriedSome := false
	for seed := int64(1); seed <= 6; seed++ {
		cfg := churnConfig(seed)
		cfg.Churn = crashesAt(2.5, 2, 7)
		a := outcomesFingerprint(t, cfg)
		if b := outcomesFingerprint(t, cfg); a != b {
			t.Fatalf("seed %d: two runs diverged\n%s\n--vs--\n%s", seed, a, b)
		}
		res, err := Run(TCoP, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range res.Outcomes {
			retriedSome = retriedSome || o.Retried > 0
		}
	}
	if !retriedSome {
		t.Fatal("no seed tripped the handshake deadline into a retry wave")
	}
}

// TestTCoPCommitReabsorption crashes peers between their confirmation
// and the commit (t=3.5): the parent's commit send fails and the share
// folds back into the parent's own stream, observable as Absorbed > 0.
func TestTCoPCommitReabsorption(t *testing.T) {
	absorbedSome := false
	for seed := int64(1); seed <= 6; seed++ {
		cfg := churnConfig(seed)
		cfg.Churn = crashesAt(3.5, 3, 8)
		a := outcomesFingerprint(t, cfg)
		if b := outcomesFingerprint(t, cfg); a != b {
			t.Fatalf("seed %d: two runs diverged\n%s\n--vs--\n%s", seed, a, b)
		}
		res, err := Run(TCoP, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range res.Outcomes {
			absorbedSome = absorbedSome || o.Absorbed > 0
		}
	}
	if !absorbedSome {
		t.Fatal("no seed exercised commit re-absorption")
	}
}
