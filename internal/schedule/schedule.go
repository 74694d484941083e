// Package schedule implements the time-slot transmission model of §2 of
// the paper and its packet-allocation algorithm for heterogeneous
// contents peers.
//
// Data transmission on channel CC_i is a sequence of time slots
// CL_i^1, CL_i^2, … of length τ_i, where τ_i is the time to transmit one
// packet (τ_i ∝ 1/bw_i). Slot CL precedes CL' (CL → CL') iff
// et(CL) < et(CL'). A slot is initial iff no slot precedes it.
//
// Packets t_1 … t_l are allocated one at a time to the initial slot with
// the largest start time (the paper's step 1–2), which yields the packet
// allocation property: when the leaf receives t_h, every t_k with k < h
// has already been delivered (all earlier packets sit in slots with
// earlier-or-equal end times).
package schedule

import (
	"container/heap"
	"fmt"
)

// Channel models a logical channel CC_i between a contents peer and the
// leaf peer.
type Channel struct {
	// ID identifies the channel (and its contents peer).
	ID int
	// SlotLen is τ_i, the time to transmit one packet on this channel.
	SlotLen float64
}

// SlotLenFromBandwidth converts a relative bandwidth into a slot length:
// a channel with twice the bandwidth has half the slot length.
func SlotLenFromBandwidth(bw float64) float64 {
	if bw <= 0 {
		panic(fmt.Sprintf("schedule: bandwidth %v must be positive", bw))
	}
	return 1 / bw
}

// Slot is one time slot CL_i^k.
type Slot struct {
	// Channel is the channel ID owning the slot.
	Channel int
	// K is the 1-based slot number on its channel.
	K int
	// Start and End are st(CL) and et(CL).
	Start, End float64
}

// Allocation is the result of allocating a packet sequence to channels.
type Allocation struct {
	// PerChannel[i] lists, in transmission order, the 1-based content
	// packet indices assigned to channels[i] (the subsequence pkt_i).
	PerChannel [][]int64
	// Slots[k-1] is the slot carrying packet t_k.
	Slots []Slot
}

// slotHeap orders candidate next-slots by (End asc, Start desc, Channel asc),
// implementing "the initial slot with the largest start time".
type slotEntry struct {
	channel int // index into the channels slice
	id      int // channel ID
	k       int
	start   float64
	end     float64
}

type slotHeap []slotEntry

func (h slotHeap) Len() int { return len(h) }
func (h slotHeap) Less(i, j int) bool {
	if h[i].end != h[j].end {
		return h[i].end < h[j].end
	}
	if h[i].start != h[j].start {
		return h[i].start > h[j].start
	}
	return h[i].id < h[j].id
}
func (h slotHeap) Swap(i, j int)        { h[i], h[j] = h[j], h[i] }
func (h *slotHeap) Push(x any)          { *h = append(*h, x.(slotEntry)) }
func (h *slotHeap) Pop() any            { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h slotHeap) peek() slotEntry      { return h[0] }
func (h *slotHeap) replace(e slotEntry) { (*h)[0] = e; heap.Fix(h, 0) }

// Allocate assigns packets t_1 … t_l to the given channels using the
// paper's allocation algorithm. At least one channel is required and all
// slot lengths must be positive.
func Allocate(l int, channels []Channel) Allocation {
	a := NewAllocator(channels)
	for k := 0; k < l; k++ {
		a.Next()
	}
	return a.Result()
}

// Allocator allocates packets incrementally and supports mid-stream slot
// length (bandwidth) changes — the heterogeneous "future work" extension
// of §5. Changing a channel's rate affects its slots from the channel's
// current position onward.
type Allocator struct {
	channels []Channel
	h        slotHeap
	next     int64 // next content packet index to allocate (1-based)
	result   Allocation
}

// NewAllocator returns an Allocator over the given channels.
func NewAllocator(channels []Channel) *Allocator {
	if len(channels) == 0 {
		panic("schedule: Allocate requires at least one channel")
	}
	a := &Allocator{
		channels: channels,
		next:     1,
		result:   Allocation{PerChannel: make([][]int64, len(channels))},
	}
	for i, c := range channels {
		if c.SlotLen <= 0 {
			panic(fmt.Sprintf("schedule: channel %d slot length %v must be positive", c.ID, c.SlotLen))
		}
		a.h = append(a.h, slotEntry{channel: i, id: c.ID, k: 1, start: 0, end: c.SlotLen})
	}
	heap.Init(&a.h)
	return a
}

// Next allocates the next packet and returns its slot.
func (a *Allocator) Next() Slot {
	e := a.h.peek()
	s := Slot{Channel: e.id, K: e.k, Start: e.start, End: e.end}
	a.result.PerChannel[e.channel] = append(a.result.PerChannel[e.channel], a.next)
	a.result.Slots = append(a.result.Slots, s)
	a.next++
	tau := a.channels[e.channel].SlotLen
	a.h.replace(slotEntry{channel: e.channel, id: e.id, k: e.k + 1, start: e.end, end: e.end + tau})
	return s
}

// SetSlotLen changes channel ch's slot length for all not-yet-allocated
// slots (the channel's bandwidth changed mid-stream). The pending slot's
// end time is recomputed from its start.
func (a *Allocator) SetSlotLen(chID int, slotLen float64) {
	if slotLen <= 0 {
		panic(fmt.Sprintf("schedule: slot length %v must be positive", slotLen))
	}
	for i := range a.channels {
		if a.channels[i].ID != chID {
			continue
		}
		a.channels[i].SlotLen = slotLen
		for j := range a.h {
			if a.h[j].channel == i {
				a.h[j].end = a.h[j].start + slotLen
				heap.Fix(&a.h, j)
				return
			}
		}
		return
	}
	panic(fmt.Sprintf("schedule: unknown channel %d", chID))
}

// Result returns the allocation so far. The returned value shares state
// with the allocator; callers should stop allocating before using it.
func (a *Allocator) Result() Allocation { return a.result }

// InOrder verifies the packet allocation property on an allocation:
// delivery (slot end) times are non-decreasing in packet index, so on
// receipt of t_h every t_k (k < h) has been delivered. It returns the
// first violating packet index, or 0 if the property holds.
func (al Allocation) InOrder() int64 {
	for k := 1; k < len(al.Slots); k++ {
		if al.Slots[k].End < al.Slots[k-1].End {
			return int64(k + 1)
		}
	}
	return 0
}

// FinishTime returns the end time of the last allocated slot, or 0.
func (al Allocation) FinishTime() float64 {
	if len(al.Slots) == 0 {
		return 0
	}
	return al.Slots[len(al.Slots)-1].End
}

// ProportionalChannels builds channels whose slot lengths realize the
// given relative bandwidths (e.g. 4:2:1 in Figure 1), with IDs 0..n-1.
func ProportionalChannels(bandwidths ...float64) []Channel {
	chs := make([]Channel, len(bandwidths))
	for i, bw := range bandwidths {
		chs[i] = Channel{ID: i, SlotLen: SlotLenFromBandwidth(bw)}
	}
	return chs
}
