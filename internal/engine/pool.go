package engine

import (
	"p2pmss/internal/des"
	"p2pmss/internal/seq"
)

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
// takes. The live runtime serves each peer under its own mutex, so
// every live peer owns its pool, and its message nodes never reach
// another peer (they cross as encoded bytes).
//
// Blocks. Every list is a des.FreeList (blocks of 1, 2, 4 … 32 records),
// and what a peer keeps for its lifetime — the peer, its view words, its
// lists — is carved from per-run slabs (runBlocks, room). A pool of one
// peer, as every live peer owns, makes its peer and lists on their own,
// so it stays as small as one that allocated per record.
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
	effs  [][]Effect
	batch int // the longest batch: a selection's activation, H sends, hand-off

	sends     des.FreeList[Send]
	timers    des.FreeList[SetTimer]
	activates des.FreeList[Activate]
	merges    des.FreeList[Merge]
	handoffs  des.FreeList[Handoff]
	absorbs   des.FreeList[Absorb]
	serves    des.FreeList[ServeRepair]

	ctls     des.FreeList[MsgControl]
	confirms des.FreeList[MsgConfirm]
	commits  des.FreeList[MsgCommit]
	views    des.FreeList[sharedView] // views no control holds any more

	// run holds what a run's peers are carved from. The pool makes it
	// with its second peer; until then each peer and list is made on its
	// own, as a pool of one peer — every live peer owns one — gains
	// nothing from blocks.
	run *runBlocks
}

// runBlocks are what the peers of a run are carved from: the peers,
// their view words and their lists, each list with a capacity of its
// own (see room).
type runBlocks struct {
	peers  des.FreeList[Peer]
	words  des.Slab[uint64]
	ids    des.Slab[PeerID]
	shares des.Slab[pendShare]
	keys   des.Slab[assignKey]
}

// The slabs room carves each kind of list from.
func idSlab(r *runBlocks) *des.Slab[PeerID]       { return &r.ids }
func shareSlab(r *runBlocks) *des.Slab[pendShare] { return &r.shares }
func keySlab(r *runBlocks) *des.Slab[assignKey]   { return &r.keys }

// sharedView is the view of one selection, which its controls point at;
// a control reaches its pool through it.
type sharedView struct {
	pl   *Pool
	ids  []PeerID
	refs int // controls not yet released
}

// view returns an empty view with room for k members, for refs controls.
func (pl *Pool) view(k, refs int) *sharedView {
	v := pl.views.Take()
	v.pl = pl
	v.ids, v.refs = room(v.ids, pl, idSlab, k)[:0], refs
	return v
}

// room returns s, or an empty slice with room for n elements when s has
// less: exactly n the first time, at least twice as many as s after, so
// a buffer reused across rounds regrows a few times, not once per larger
// round. The slice is carved from the run's slab that slab picks, or made
// on its own in a pool of one peer. Callers keep nothing of s they still
// need when it is too small.
func room[T any](s []T, pl *Pool, slab func(*runBlocks) *des.Slab[T], n int) []T {
	switch {
	case cap(s) >= n:
		return s
	case pl.run == nil:
		return make([]T, 0, max(n, 2*cap(s)))
	}
	return slab(pl.run).Carve(max(n, 2*cap(s)))
}

// slice returns an empty effect slice with recycled capacity, or a new
// one with room for the longest batch of the pool's peers.
func (pl *Pool) slice() []Effect {
	if n := len(pl.effs); n > 0 {
		s := pl.effs[n-1]
		pl.effs = pl.effs[:n-1]
		return s
	}
	return make([]Effect, 0, pl.batch)
}

func (pl *Pool) send(to PeerID, msg any) *Send {
	e := pl.sends.Take()
	*e = Send{To: to, Msg: msg}
	return e
}

func (pl *Pool) setTimer(id TimerID, delay float64) *SetTimer {
	e := pl.timers.Take()
	*e = SetTimer{ID: id, Delay: delay}
	return e
}

func (pl *Pool) activate(s seq.Sequence, rate float64, round int) *Activate {
	e := pl.activates.Take()
	*e = Activate{Seq: s, Rate: rate, Round: round}
	return e
}

func (pl *Pool) merge(s, stream seq.Sequence, rate float64, round int) *Merge {
	e := pl.merges.Take()
	*e = Merge{Seq: s, Stream: stream, Rate: rate, Round: round}
	return e
}

func (pl *Pool) handoff(keep seq.Sequence, given []seq.Sequence, oldRate, newRate float64, mark int) *Handoff {
	e := pl.handoffs.Take()
	*e = Handoff{Keep: keep, Given: given, OldRate: oldRate, NewRate: newRate, Mark: mark}
	return e
}

func (pl *Pool) absorbEff(s seq.Sequence, rateDelta float64) *Absorb {
	e := pl.absorbs.Take()
	*e = Absorb{Seq: s, RateDelta: rateDelta}
	return e
}

func (pl *Pool) serveRepair(indices []int64) *ServeRepair {
	e := pl.serves.Take()
	*e = ServeRepair{Indices: indices}
	return e
}

// msgControl returns a control message owned by this pool, carrying
// view v and otherwise zeroed.
func (pl *Pool) msgControl(v *sharedView) *MsgControl {
	m := pl.ctls.Take()
	*m = MsgControl{View: v.ids[:len(v.ids):len(v.ids)], view: v}
	return m
}

func (pl *Pool) msgConfirm() *MsgConfirm {
	m := pl.confirms.Take()
	*m = MsgConfirm{pl: pl}
	return m
}

func (pl *Pool) msgCommit() *MsgCommit {
	m := pl.commits.Take()
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
			pl.sends.Put(v)
		case *SetTimer:
			pl.timers.Put(v)
		case *Activate:
			v.Seq = nil
			pl.activates.Put(v)
		case *Merge:
			v.Seq, v.Stream = nil, nil
			pl.merges.Put(v)
		case *Handoff:
			v.Keep, v.Given = nil, nil
			pl.handoffs.Put(v)
		case *Absorb:
			v.Seq = nil
			pl.absorbs.Put(v)
		case *ServeRepair:
			v.Indices = nil
			pl.serves.Put(v)
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
			sv.pl.ctls.Put(v)
			if sv.refs--; sv.refs == 0 {
				sv.pl.views.Put(sv)
			}
		}
	case *MsgConfirm:
		if pl := v.pl; pl != nil {
			pl.confirms.Put(v)
		}
	case *MsgCommit:
		if pl := v.pl; pl != nil {
			v.AssignedSeq = nil
			pl.commits.Put(v)
		}
	}
}
