package engine

import "p2pmss/internal/seq"

// Per-peer free lists. A coordination round used to allocate every
// event box, effect node, message and effect slice afresh — ~21k
// allocations for a 100-peer TCoP round. Events, effects and messages
// are pointer types precisely so the nodes can be recycled: a driver
// that calls Peer.Release after applying a batch, and ReleaseMsg once a
// protocol message has been fully consumed, runs a steady-state round
// with (amortized) zero engine allocations.
//
// Both calls are OPTIONAL. A driver that never releases anything —
// or that drops a batch on a crash path — simply leaves the nodes to
// the garbage collector; nothing leaks and nothing corrupts. The only
// contract is on the callers that DO release:
//
//   - Release(effs) must be called on the peer whose Handle returned
//     effs, at most once per batch, and only after the driver is done
//     reading every node in it (including any message stamping).
//   - Release does NOT recycle the messages hanging off *Send effects:
//     a message may still be in flight (the simulator delivers it with
//     latency; the live layer may still be encoding it). Whoever
//     consumes the message last calls ReleaseMsg.
//   - ReleaseMsg returns a message node to the pool of the peer that
//     created it (messages carry an unexported back-pointer). Messages
//     constructed by hand or decoded from the wire carry no pool and
//     ReleaseMsg is a no-op for them.
//
// Pools are per-peer and the engine is single-threaded per peer, so no
// locking is needed; in the simulator ReleaseMsg returns a node to the
// *sender's* pool from the receiver's dispatch, which is safe because
// the whole simulation runs on one goroutine. The live runtime never
// shares message nodes across peers (they cross as encoded bytes).
type pool struct {
	effs [][]Effect

	sends     []*Send
	timers    []*SetTimer
	activates []*Activate
	merges    []*Merge
	handoffs  []*Handoff
	absorbs   []*Absorb
	serves    []*ServeRepair

	ctls     []*MsgControl
	confirms []*MsgConfirm
	commits  []*MsgCommit
}

// slice returns an empty effect slice with recycled capacity.
func (pl *pool) slice() []Effect {
	if n := len(pl.effs); n > 0 {
		s := pl.effs[n-1]
		pl.effs = pl.effs[:n-1]
		return s
	}
	return make([]Effect, 0, 8)
}

func (pl *pool) send(to PeerID, msg any) *Send {
	if n := len(pl.sends); n > 0 {
		e := pl.sends[n-1]
		pl.sends = pl.sends[:n-1]
		e.To, e.Msg = to, msg
		return e
	}
	return &Send{To: to, Msg: msg}
}

func (pl *pool) setTimer(id TimerID, delay float64) *SetTimer {
	if n := len(pl.timers); n > 0 {
		e := pl.timers[n-1]
		pl.timers = pl.timers[:n-1]
		e.ID, e.Delay = id, delay
		return e
	}
	return &SetTimer{ID: id, Delay: delay}
}

func (pl *pool) activate(s seq.Sequence, rate float64, round int) *Activate {
	if n := len(pl.activates); n > 0 {
		e := pl.activates[n-1]
		pl.activates = pl.activates[:n-1]
		e.Seq, e.Rate, e.Round = s, rate, round
		return e
	}
	return &Activate{Seq: s, Rate: rate, Round: round}
}

func (pl *pool) merge(s, stream seq.Sequence, rate float64, round int) *Merge {
	if n := len(pl.merges); n > 0 {
		e := pl.merges[n-1]
		pl.merges = pl.merges[:n-1]
		e.Seq, e.Stream, e.Rate, e.Round = s, stream, rate, round
		return e
	}
	return &Merge{Seq: s, Stream: stream, Rate: rate, Round: round}
}

func (pl *pool) handoff(keep seq.Sequence, given []seq.Sequence, oldRate, newRate float64, mark int) *Handoff {
	if n := len(pl.handoffs); n > 0 {
		e := pl.handoffs[n-1]
		pl.handoffs = pl.handoffs[:n-1]
		e.Keep, e.Given, e.OldRate, e.NewRate, e.Mark = keep, given, oldRate, newRate, mark
		return e
	}
	return &Handoff{Keep: keep, Given: given, OldRate: oldRate, NewRate: newRate, Mark: mark}
}

func (pl *pool) absorbEff(s seq.Sequence, rateDelta float64) *Absorb {
	if n := len(pl.absorbs); n > 0 {
		e := pl.absorbs[n-1]
		pl.absorbs = pl.absorbs[:n-1]
		e.Seq, e.RateDelta = s, rateDelta
		return e
	}
	return &Absorb{Seq: s, RateDelta: rateDelta}
}

func (pl *pool) serveRepair(indices []int64) *ServeRepair {
	if n := len(pl.serves); n > 0 {
		e := pl.serves[n-1]
		pl.serves = pl.serves[:n-1]
		e.Indices = indices
		return e
	}
	return &ServeRepair{Indices: indices}
}

// msgControl returns a zeroed control message with recycled View
// capacity, owned by this pool.
func (pl *pool) msgControl() *MsgControl {
	if n := len(pl.ctls); n > 0 {
		m := pl.ctls[n-1]
		pl.ctls = pl.ctls[:n-1]
		view := m.View[:0]
		*m = MsgControl{View: view, pl: pl}
		return m
	}
	return &MsgControl{pl: pl}
}

func (pl *pool) msgConfirm() *MsgConfirm {
	if n := len(pl.confirms); n > 0 {
		m := pl.confirms[n-1]
		pl.confirms = pl.confirms[:n-1]
		*m = MsgConfirm{pl: pl}
		return m
	}
	return &MsgConfirm{pl: pl}
}

func (pl *pool) msgCommit() *MsgCommit {
	if n := len(pl.commits); n > 0 {
		m := pl.commits[n-1]
		pl.commits = pl.commits[:n-1]
		*m = MsgCommit{pl: pl}
		return m
	}
	return &MsgCommit{pl: pl}
}

// Release returns a Handle batch — the nodes and the slice — to the
// peer's free lists. Call it on the peer whose Handle produced effs,
// after every node has been fully consumed. Message nodes hanging off
// *Send effects are NOT recycled here (they may still be in flight);
// see ReleaseMsg. Release(nil) is a no-op.
func (p *Peer) Release(effs []Effect) {
	if effs == nil {
		return
	}
	pl := &p.pl
	for i, e := range effs {
		switch v := e.(type) {
		case *Send:
			v.Msg = nil
			pl.sends = append(pl.sends, v)
		case *SetTimer:
			pl.timers = append(pl.timers, v)
		case *Activate:
			v.Seq = nil
			pl.activates = append(pl.activates, v)
		case *Merge:
			v.Seq, v.Stream = nil, nil
			pl.merges = append(pl.merges, v)
		case *Handoff:
			v.Keep, v.Given = nil, nil
			pl.handoffs = append(pl.handoffs, v)
		case *Absorb:
			v.Seq = nil
			pl.absorbs = append(pl.absorbs, v)
		case *ServeRepair:
			v.Indices = nil
			pl.serves = append(pl.serves, v)
		}
		effs[i] = nil
	}
	pl.effs = append(pl.effs, effs[:0])
}

// ReleaseMsg returns a protocol message node to the pool of the peer
// that created it. Call it once, after the message's final consumer —
// the receiving Handle (plus observers) in the simulator, the encoder
// in the live layer — is done with it. Messages without a pool
// (hand-constructed, or decoded off the wire) are left to the GC.
func ReleaseMsg(m any) {
	switch v := m.(type) {
	case *MsgControl:
		if v.pl != nil {
			view := v.View[:0]
			pl := v.pl
			*v = MsgControl{View: view, pl: pl}
			pl.ctls = append(pl.ctls, v)
		}
	case *MsgConfirm:
		if v.pl != nil {
			pl := v.pl
			*v = MsgConfirm{pl: pl}
			pl.confirms = append(pl.confirms, v)
		}
	case *MsgCommit:
		if v.pl != nil {
			pl := v.pl
			*v = MsgCommit{pl: pl}
			pl.commits = append(pl.commits, v)
		}
	}
}
