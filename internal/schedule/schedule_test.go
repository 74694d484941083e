package schedule

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// §2 / Figure 1: bw_1:bw_2:bw_3 = 4:2:1 and pkt = ⟨t1…t7⟩ for one time
// unit gives pkt_1 = ⟨t1,t2,t4,t5⟩, pkt_2 = ⟨t3,t6⟩, pkt_3 = ⟨t7⟩.
func TestPaperAllocationExample(t *testing.T) {
	al := Allocate(7, ProportionalChannels(4, 2, 1))
	want := [][]int64{{1, 2, 4, 5}, {3, 6}, {7}}
	if !reflect.DeepEqual(al.PerChannel, want) {
		t.Errorf("PerChannel = %v, want %v", al.PerChannel, want)
	}
	if v := al.InOrder(); v != 0 {
		t.Errorf("allocation violates in-order property at t_%d", v)
	}
	if al.FinishTime() != 1 {
		t.Errorf("FinishTime = %v, want 1 (one time unit)", al.FinishTime())
	}
}

// Continuing past one time unit, t8 goes to the fastest channel.
func TestAllocationContinues(t *testing.T) {
	al := Allocate(8, ProportionalChannels(4, 2, 1))
	want := [][]int64{{1, 2, 4, 5, 8}, {3, 6}, {7}}
	if !reflect.DeepEqual(al.PerChannel, want) {
		t.Errorf("PerChannel = %v, want %v", al.PerChannel, want)
	}
}

func TestHomogeneousRoundRobin(t *testing.T) {
	// Equal bandwidths: packets spread one per channel per slot epoch.
	al := Allocate(6, ProportionalChannels(1, 1, 1))
	for i, pkts := range al.PerChannel {
		if len(pkts) != 2 {
			t.Errorf("channel %d got %d packets, want 2", i, len(pkts))
		}
	}
	if v := al.InOrder(); v != 0 {
		t.Errorf("violates property at t_%d", v)
	}
}

func TestSingleChannel(t *testing.T) {
	al := Allocate(5, ProportionalChannels(2))
	if len(al.PerChannel[0]) != 5 {
		t.Errorf("single channel got %v", al.PerChannel[0])
	}
	if al.FinishTime() != 2.5 {
		t.Errorf("FinishTime = %v, want 2.5", al.FinishTime())
	}
}

// |pkt_i| ≥ |pkt_j| whenever bw_i ≥ bw_j (§2).
func TestProportionalityProperty(t *testing.T) {
	f := func(seed int64, nn, ll uint8) bool {
		n := int(nn%6) + 1
		l := int(ll%120) + n
		rng := rand.New(rand.NewSource(seed))
		bws := make([]float64, n)
		for i := range bws {
			bws[i] = float64(rng.Intn(8) + 1)
		}
		al := Allocate(l, ProportionalChannels(bws...))
		if al.InOrder() != 0 {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if bws[i] > bws[j] && len(al.PerChannel[i]) < len(al.PerChannel[j]) {
					return false
				}
			}
		}
		// Completeness: every packet allocated exactly once.
		seen := make(map[int64]bool)
		for _, pkts := range al.PerChannel {
			for _, k := range pkts {
				if seen[k] {
					return false
				}
				seen[k] = true
			}
		}
		return len(seen) == l
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// The packet allocation property holds for arbitrary channel mixes.
func TestInOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(5) + 1
		chs := make([]Channel, n)
		for i := range chs {
			chs[i] = Channel{ID: i, SlotLen: rng.Float64()*2 + 0.05}
		}
		al := Allocate(rng.Intn(200)+1, chs)
		return al.InOrder() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSlotNumbersAndTimes(t *testing.T) {
	al := Allocate(4, ProportionalChannels(2, 1))
	// τ = 0.5, 1.0. Expected slots: t1 CC0[0,.5], t2 CC0[.5,1],
	// t3 CC1[0,1] (tie at et=1 goes to larger start → CC0? No: at
	// allocation of t3 the initial slots are CC0 slot3 [1,1.5] and CC1
	// slot1 [0,1]; minimal end time is CC1's 1.0.)
	wantCh := []int{0, 0, 1, 0}
	for i, s := range al.Slots {
		if s.Channel != wantCh[i] {
			t.Errorf("t%d on channel %d, want %d (slots=%v)", i+1, s.Channel, wantCh[i], al.Slots)
			break
		}
	}
	if al.Slots[0].K != 1 || al.Slots[1].K != 2 {
		t.Errorf("slot numbers wrong: %v", al.Slots[:2])
	}
	if al.Slots[1].Start != 0.5 || al.Slots[1].End != 1.0 {
		t.Errorf("t2 slot = %v", al.Slots[1])
	}
}

func TestTieBreakLargestStart(t *testing.T) {
	// Two channels 2:1 — at et=1.0 both CC0 slot2 (st=.5) and CC1 slot1
	// (st=0) are initial; the algorithm must pick the larger start time.
	al := Allocate(3, ProportionalChannels(2, 1))
	// t1→CC0[0,.5]; then initial = CC0[.5,1] and CC1[0,1]: tie at et=1 →
	// largest start → CC0 gets t2, CC1 gets t3.
	if al.Slots[1].Channel != 0 || al.Slots[2].Channel != 1 {
		t.Errorf("tie-break wrong: %v", al.Slots)
	}
}

// Mid-stream bandwidth change (heterogeneous extension, §5 future work).
func TestDynamicRateChange(t *testing.T) {
	a := NewAllocator(ProportionalChannels(1, 1))
	a.Next() // t1 → CC0 [0,1]
	a.Next() // t2 → CC1 [0,1]
	// CC1 degrades to quarter bandwidth before its next slot.
	a.SetSlotLen(1, 4)
	for i := 0; i < 4; i++ {
		a.Next()
	}
	al := a.Result()
	// After the change CC0 should absorb most packets.
	if len(al.PerChannel[0]) < 4 {
		t.Errorf("fast channel got %v packets: %v", len(al.PerChannel[0]), al.PerChannel)
	}
	if v := al.InOrder(); v != 0 {
		t.Errorf("violates property at t_%d after rate change", v)
	}
}

func TestSetSlotLenUnknownChannelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SetSlotLen(unknown) did not panic")
		}
	}()
	a := NewAllocator(ProportionalChannels(1))
	a.SetSlotLen(9, 1)
}

func TestAllocatePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"no channels":  func() { Allocate(1, nil) },
		"zero slotlen": func() { Allocate(1, []Channel{{ID: 0, SlotLen: 0}}) },
		"neg bw":       func() { SlotLenFromBandwidth(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAllocatedCount(t *testing.T) {
	a := NewAllocator(ProportionalChannels(1))
	if n := len(a.Result().Slots); n != 0 {
		t.Errorf("fresh allocator holds %d slots", n)
	}
	a.Next()
	a.Next()
	if n := len(a.Result().Slots); n != 2 {
		t.Errorf("%d slots after two allocations, want 2", n)
	}
}

func TestEmptyAllocation(t *testing.T) {
	al := Allocate(0, ProportionalChannels(1, 2))
	if al.FinishTime() != 0 || al.InOrder() != 0 {
		t.Error("empty allocation misbehaves")
	}
}
