package coord

import (
	"p2pmss/internal/groupcomm"
	"p2pmss/internal/seq"
)

// ams implements the asynchronous multi-source streaming model of the
// paper's precursors [3–5] (§1): every contents peer asynchronously
// starts transmitting its pre-agreed division as soon as the leaf's
// request arrives, and periodically exchanges state information with all
// the other contents peers through a causally ordering group
// communication protocol (reference [10], internal/groupcomm).
//
// The paper's critique — "the large communication overhead is implied
// since every contents peer sends state information to all the contents
// peers" — is directly measurable here: AMS costs n(n−1) control packets
// per state period, against DCoP's one-shot flooding.
type ams struct {
	r     *runner
	procs []*groupcomm.Process
}

// amsState is the state information a peer broadcasts: which packet it
// has most recently sent at what rate (§3.1's control packet content).
type amsState struct {
	Offset int
	Rate   float64
}

// amsMsg wraps a causal broadcast on the wire.
type amsMsg struct {
	M     groupcomm.Message
	Round int
}

func (a *ams) start() {
	r := a.r
	a.procs = make([]*groupcomm.Process, r.cfg.N)
	for i := 0; i < r.cfg.N; i++ {
		a.procs[i] = groupcomm.NewProcess(i, r.cfg.N, nil)
	}
	for i := 0; i < r.cfg.N; i++ {
		r.sendCtl(r.leafID(), i, reqMsg{Rate: r.cfg.Rate, Index: i, Round: 1}, 1)
	}
}

func (a *ams) deliver(p *peerNode, from int, m any) {
	switch msg := m.(type) {
	case reqMsg:
		a.onRequest(p, msg)
	case amsMsg:
		a.onState(p, msg)
	}
}

func (a *ams) onRequest(p *peerNode, m reqMsg) {
	r := a.r
	// Asynchronous start: the division by peer rank is pre-agreed, so no
	// coordination precedes transmission.
	p.activate(m.Round, seq.Div(r.enhancedContent(), r.cfg.N, int(p.id)), r.perPeerRateAll())
	// Periodic state exchange through the causal broadcast substrate.
	a.broadcastState(p, 1)
}

func (a *ams) broadcastState(p *peerNode, period int) {
	r := a.r
	proc := a.procs[p.id]
	gm := proc.Send(amsState{Offset: p.tx.currentOffset(), Rate: p.tx.st.Rate()})
	round := 1 + period
	for j := 0; j < r.cfg.N; j++ {
		if j != int(p.id) {
			r.sendCtl(int(p.id), j, amsMsg{M: gm, Round: round}, round)
		}
	}
	r.res.StateMessages += int64(r.cfg.N - 1)
	if period < r.cfg.StatePeriods {
		r.eng.After(r.cfg.StatePeriod, func() {
			if !r.nw.crashed[p.id] {
				a.broadcastState(p, period+1)
			}
		})
	}
}

func (a *ams) onState(p *peerNode, m amsMsg) {
	// Causal delivery: the groupcomm process buffers out-of-order state.
	// Its one error is a malformed vector, which the simulator never sends.
	_ = a.procs[p.id].Receive(m.M)
}
