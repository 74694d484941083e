package experiment

import (
	"encoding/json"
	"strings"
	"testing"

	"p2pmss/internal/coord"
)

// TestScenarioStamping pins the archive contract: unimpaired records
// carry no scenario field at all (byte-compatible with pre-scenario
// archives), impaired records say exactly what they ran under.
func TestScenarioStamping(t *testing.T) {
	base := Options{N: 12, Hs: []int{4}, Seeds: 1}

	plain, err := SweepRecords(base, false, coord.TCoP)
	if err != nil {
		t.Fatal(err)
	}
	if plain[0].Scenario != nil {
		t.Errorf("unimpaired record stamped %+v, want nil", plain[0].Scenario)
	}
	line, err := json.Marshal(plain[0])
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(line), "scenario") {
		t.Errorf("unimpaired JSON leaks a scenario key: %s", line)
	}

	lossy := base
	lossy.LossProb = 0.05
	lossy.Burst = &coord.BurstParams{PGoodToBad: 0.01, PBadToGood: 0.2, LossBad: 0.5}
	lossy.Churn = &coord.ChurnSchedule{Events: []coord.ChurnEvent{{}, {}}}
	lossy.Retries = 3
	recs, err := SweepRecords(lossy, false, coord.TCoP)
	if err != nil {
		t.Fatal(err)
	}
	s := recs[0].Scenario
	if s == nil {
		t.Fatal("impaired record carries no scenario stamp")
	}
	if s.LossProb != 0.05 || s.Burst == nil || s.Burst.LossBad != 0.5 ||
		s.ChurnEvents != 2 || s.Retries != 3 {
		t.Errorf("scenario = %+v", s)
	}
	line, err = json.Marshal(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"loss_prob":0.05`, `"p_bad_to_good":0.2`, `"churn_events":2`} {
		if !strings.Contains(string(line), want) {
			t.Errorf("record JSON missing %s: %.200s", want, line)
		}
	}
}
