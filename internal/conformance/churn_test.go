package conformance_test

import (
	"testing"

	"p2pmss/internal/coord"
	"p2pmss/internal/des"
	"p2pmss/internal/engine"
	"p2pmss/internal/overlay"
	"p2pmss/internal/transport"
)

// crashVictims picks `count` peers outside the leaf's initial selection
// for the seed (the session seed's leaf draw). Crashing non-selected
// peers keeps the leaf's slot failover out of play and isolates
// member-level SendFailed failover;
// TestSimLiveConformanceSelectedPeerCrash covers the leaf's.
func crashVictims(seed int64, count int) []engine.PeerID {
	rng := des.NewRand(engine.PeerSeed(sessionSeed(seed), engine.LeafID))
	sel, _ := engine.SelectInitial(rng, confN, confH)
	selected := make(map[engine.PeerID]bool, len(sel))
	for _, id := range sel {
		selected[id] = true
	}
	var victims []engine.PeerID
	for id := engine.PeerID(0); int(id) < confN && len(victims) < count; id++ {
		if !selected[id] {
			victims = append(victims, id)
		}
	}
	return victims
}

// mixedVictims picks one peer of the leaf's initial selection and one
// outside it, and returns the spare the leaf fails the selected one over
// to. The outside victim is not that spare, so the first failover lands.
func mixedVictims(seed int64) (victims []engine.PeerID, spare engine.PeerID) {
	rng := des.NewRand(engine.PeerSeed(sessionSeed(seed), engine.LeafID))
	sel, spares := engine.SelectInitial(rng, confN, confH)
	return []engine.PeerID{sel[0], spares[len(spares)-1]}, spares[0]
}

// simChurnOutcomes runs the simulator at the session seed of node seed
// seed with the victims crash-stopped before the run
// (coord.Config.CrashPeers with CrashAt zero) and member-level retries
// enabled, mirroring the live driver's defaults.
func simChurnOutcomes(t *testing.T, proto engine.Protocol, seed int64, victims []engine.PeerID) []engine.Outcome {
	t.Helper()
	crash := make([]overlay.PeerID, len(victims))
	for i, v := range victims {
		crash[i] = overlay.PeerID(v)
	}
	res, err := coord.Run(proto, coord.Config{
		N: confN, H: confH, Interval: confInterval,
		Rate: confRate, Delta: 1,
		LeafShares: true,
		DataPlane:  true, ContentLen: confPackets,
		Settle: 1, Window: 1,
		Seed:       sessionSeed(seed),
		CrashPeers: crash,
		Retries:    confH,
	})
	if err != nil {
		t.Fatalf("sim %s seed %d: %v", proto, seed, err)
	}
	return res.Outcomes
}

// liveChurnOutcomes mirrors the scripted crash on the live runtime: the
// victims' nodes are closed before the leaf opens the session, so sends
// to them fail synchronously and feed SendFailed into the surviving
// engines — the same failover the simulator derives from
// coord.Config.CrashPeers. The fabric is the bounded queued variant, so
// the churn run also exercises the capped FIFO path end to end.
func liveChurnOutcomes(t *testing.T, proto engine.Protocol, seed int64, victims []engine.PeerID) []engine.Outcome {
	t.Helper()
	return liveRun(t, transport.NewBoundedQueuedFabric(64, transport.QueueBlock), proto, seed, nil, victims)
}

// TestSimLiveConformanceUnderChurn byte-compares the two drivers with
// two peers crash-stopped before the run. The surviving peers must
// agree on the repaired tree / assignment unions, and the victims must
// end inactive on both sides.
func TestSimLiveConformanceUnderChurn(t *testing.T) {
	for _, proto := range []engine.Protocol{engine.TCoP, engine.DCoP} {
		for seed := int64(1); seed <= 5; seed++ {
			victims := crashVictims(seed, 2)
			if len(victims) != 2 {
				t.Fatalf("seed %d: got %d victims", seed, len(victims))
			}
			sim := outcomeLines(simChurnOutcomes(t, proto, seed, victims))
			lv := outcomeLines(liveChurnOutcomes(t, proto, seed, victims))
			if sim != lv {
				t.Errorf("%s seed %d crash=%v: drivers diverged\n--- sim ---\n%s\n--- live ---\n%s",
					proto, seed, victims, sim, lv)
			}
		}
	}
}

// TestChurnConformanceIsNotVacuous pins that the scripted crash
// actually bites: the victims end inactive while the majority of the
// swarm still activates, on the simulator side of the comparison.
func TestChurnConformanceIsNotVacuous(t *testing.T) {
	victims := crashVictims(1, 2)
	outs := simChurnOutcomes(t, engine.TCoP, 1, victims)
	crashed := make(map[engine.PeerID]bool)
	for _, v := range victims {
		crashed[v] = true
	}
	active := 0
	for _, o := range outs {
		if crashed[o.ID] {
			if o.Active {
				t.Fatalf("victim %d still active", o.ID)
			}
			continue
		}
		if o.Active {
			active++
		}
	}
	if active < confN-len(victims)-1 {
		t.Fatalf("only %d/%d survivors active", active, confN-len(victims))
	}
}

// TestSimLiveConformanceSelectedPeerCrash crashes one peer the leaf
// selected and one it did not. Both leaves fail the selected slot over
// to the same spare — the sim on its crashed-peer check, the live leaf
// on the send error — so the drivers still agree, and the spare streams.
func TestSimLiveConformanceSelectedPeerCrash(t *testing.T) {
	for _, proto := range []engine.Protocol{engine.TCoP, engine.DCoP} {
		for seed := int64(1); seed <= 5; seed++ {
			victims, spare := mixedVictims(seed)
			simOuts := simChurnOutcomes(t, proto, seed, victims)
			sim := outcomeLines(simOuts)
			lv := outcomeLines(liveChurnOutcomes(t, proto, seed, victims))
			if sim != lv {
				t.Errorf("%s seed %d crash=%v: drivers diverged\n--- sim ---\n%s\n--- live ---\n%s",
					proto, seed, victims, sim, lv)
			}
			for _, o := range simOuts {
				if o.ID == spare && !o.Active {
					t.Errorf("%s seed %d: spare %d never became active", proto, seed, spare)
				}
			}
		}
	}
}
