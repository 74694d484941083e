package coord

import "p2pmss/internal/seq"

// ams implements the asynchronous multi-source streaming model of the
// paper's precursors [3–5] (§1): every contents peer asynchronously
// starts transmitting its pre-agreed division as soon as the leaf's
// request arrives, and periodically sends state information to all the
// other contents peers (through a causally ordering group communication
// protocol, the paper's reference [10]).
//
// The paper's critique — "the large communication overhead is implied
// since every contents peer sends state information to all the contents
// peers" — is directly measurable here: AMS costs n(n−1) control packets
// per state period, against DCoP's one-shot flooding. That traffic is
// all the baseline models: no transmission decision reads the state, so
// a state message is counted when it is sent and its receiver does
// nothing with it.
type ams struct {
	r *runner
}

// stateRounds is how many state rounds every peer sends, the first on
// activation and each next one stateInterval later.
const stateRounds = 3

// amsMsg is one peer's state information for one state round.
type amsMsg struct {
	Round int
}

func (a *ams) start() {
	r := a.r
	for i := 0; i < r.cfg.N; i++ {
		r.sendCtl(r.leafID(), i, reqMsg{Rate: r.cfg.Rate, Index: i, Round: 1}, 1)
	}
}

func (a *ams) deliver(p *peerNode, from int, m any) {
	if msg, ok := m.(reqMsg); ok {
		a.onRequest(p, msg)
	}
}

func (a *ams) onRequest(p *peerNode, m reqMsg) {
	r := a.r
	// Asynchronous start: the division by peer rank is pre-agreed, so no
	// coordination precedes transmission.
	p.activate(m.Round, seq.Div(r.enhancedContent(), r.cfg.N, int(p.id)), r.perPeerRateAll())
	a.broadcastState(p, 1)
}

// stateInterval is the time between a peer's state rounds: 2δ, or 1 on
// instantaneous links (δ = 0), where any interval works.
func (a *ams) stateInterval() float64 {
	if d := 2 * a.r.cfg.Delta; d > 0 {
		return d
	}
	return 1
}

func (a *ams) broadcastState(p *peerNode, period int) {
	r := a.r
	round := 1 + period
	for j := 0; j < r.cfg.N; j++ {
		if j != int(p.id) {
			r.sendCtl(int(p.id), j, amsMsg{Round: round}, round)
		}
	}
	r.res.StateMessages += int64(r.cfg.N - 1)
	if period < stateRounds {
		r.eng.After(a.stateInterval(), func() {
			if !r.nw.crashed[p.id] {
				a.broadcastState(p, period+1)
			}
		})
	}
}
