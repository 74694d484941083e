package engine

import "p2pmss/internal/seq"

// Free lists. A coordination round used to allocate every event box,
// effect node, message and effect slice afresh — ~21k allocations for a
// 100-peer TCoP round. Events, effects and messages are pointer types
// precisely so the nodes can be recycled: a driver that calls
// Peer.Release after applying a batch, and ReleaseMsg once a protocol
// message has been fully consumed, runs a steady-state round with
// (amortized) zero engine allocations.
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
//   - ReleaseMsg returns a message node to the pool that created it
//     (messages carry an unexported back-pointer, a control through its
//     view). Messages constructed by hand or decoded from the wire carry
//     no pool and ReleaseMsg is a no-op for them.
//
// Who shares a pool. A Pool has no lock: every peer drawing from it
// must be driven from one goroutine. The simulator runs a whole run on
// one goroutine, so it builds all N peers of a run from one Pool
// (Pool.NewPeer): a node any peer released is the next one any peer
// takes, where per-peer lists — a peer handles only a few events per
// run — almost never handed a node back. The live runtime serves each
// peer under its own mutex, so every live peer owns its pool (NewPeer),
// and its message nodes never reach another peer (they cross as
// encoded bytes).
//
// Views. A selection builds its view once and every control of the
// selection points at it (MsgControl.View is immutable once sent). The
// view counts its controls: a released control drops its reference, and
// the pool takes the view back only with the last of them, since
// recycling it sooner would overwrite the view of a sibling still in
// flight. A view with a control never released stays out of the pool
// and goes to the GC with it. The selection buffer stays per peer:
// tcopSelect keeps the spare tail of it as the candidate queue, and a
// later retry reads it, after other peers on the pool may have selected.
type Pool struct {
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
	views    []*sharedView // views no control holds any more
}

// sharedView is the view of one selection, which its controls point at;
// a control reaches its pool through it.
type sharedView struct {
	pl   *Pool
	ids  []PeerID
	refs int // controls not yet released
}

// view returns an empty view with room for k members, for refs controls.
func (pl *Pool) view(k, refs int) *sharedView {
	v := take(&pl.views)
	v.pl = pl
	if cap(v.ids) < k {
		v.ids = make([]PeerID, 0, k)
	}
	v.ids, v.refs = v.ids[:0], refs
	return v
}

// slice returns an empty effect slice with recycled capacity.
func (pl *Pool) slice() []Effect {
	if n := len(pl.effs); n > 0 {
		s := pl.effs[n-1]
		pl.effs = pl.effs[:n-1]
		return s
	}
	return make([]Effect, 0, 8)
}

// take pops a node off a free list, or makes a new one.
func take[T any](free *[]*T) *T {
	if n := len(*free); n > 0 {
		v := (*free)[n-1]
		*free = (*free)[:n-1]
		return v
	}
	return new(T)
}

func (pl *Pool) send(to PeerID, msg any) *Send {
	e := take(&pl.sends)
	*e = Send{To: to, Msg: msg}
	return e
}

func (pl *Pool) setTimer(id TimerID, delay float64) *SetTimer {
	e := take(&pl.timers)
	*e = SetTimer{ID: id, Delay: delay}
	return e
}

func (pl *Pool) activate(s seq.Sequence, rate float64, round int) *Activate {
	e := take(&pl.activates)
	*e = Activate{Seq: s, Rate: rate, Round: round}
	return e
}

func (pl *Pool) merge(s, stream seq.Sequence, rate float64, round int) *Merge {
	e := take(&pl.merges)
	*e = Merge{Seq: s, Stream: stream, Rate: rate, Round: round}
	return e
}

func (pl *Pool) handoff(keep seq.Sequence, given []seq.Sequence, oldRate, newRate float64, mark int) *Handoff {
	e := take(&pl.handoffs)
	*e = Handoff{Keep: keep, Given: given, OldRate: oldRate, NewRate: newRate, Mark: mark}
	return e
}

func (pl *Pool) absorbEff(s seq.Sequence, rateDelta float64) *Absorb {
	e := take(&pl.absorbs)
	*e = Absorb{Seq: s, RateDelta: rateDelta}
	return e
}

func (pl *Pool) serveRepair(indices []int64) *ServeRepair {
	e := take(&pl.serves)
	*e = ServeRepair{Indices: indices}
	return e
}

// msgControl returns a control message owned by this pool, carrying
// view v and otherwise zeroed.
func (pl *Pool) msgControl(v *sharedView) *MsgControl {
	m := take(&pl.ctls)
	*m = MsgControl{View: v.ids[:len(v.ids):len(v.ids)], view: v}
	return m
}

func (pl *Pool) msgConfirm() *MsgConfirm {
	m := take(&pl.confirms)
	*m = MsgConfirm{pl: pl}
	return m
}

func (pl *Pool) msgCommit() *MsgCommit {
	m := take(&pl.commits)
	*m = MsgCommit{pl: pl}
	return m
}

// Release returns a Handle batch — the nodes and the slice — to the
// peer's pool. Call it on the peer whose Handle produced effs,
// after every node has been fully consumed. Message nodes hanging off
// *Send effects are NOT recycled here (they may still be in flight);
// see ReleaseMsg. Release(nil) is a no-op.
func (p *Peer) Release(effs []Effect) {
	if effs == nil {
		return
	}
	pl := p.pl
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

// ReleaseMsg returns a protocol message node to the pool that created
// it. Call it once, after the message's final consumer —
// the receiving Handle (plus observers) in the simulator, the encoder
// in the live layer — is done with it. A control's View goes back to
// the pool with the last control of its selection. Messages without a
// pool (hand-constructed, or decoded off the wire) are left to the GC.
func ReleaseMsg(m any) {
	switch v := m.(type) {
	case *MsgControl:
		if sv := v.view; sv != nil {
			*v = MsgControl{}
			sv.pl.ctls = append(sv.pl.ctls, v)
			if sv.refs--; sv.refs == 0 {
				sv.pl.views = append(sv.pl.views, sv)
			}
		}
	case *MsgConfirm:
		if pl := v.pl; pl != nil {
			pl.confirms = append(pl.confirms, v)
		}
	case *MsgCommit:
		if pl := v.pl; pl != nil {
			v.AssignedSeq = nil
			pl.commits = append(pl.commits, v)
		}
	}
}
