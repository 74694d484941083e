package engine_test

import (
	"fmt"
	"sort"
	"testing"

	"p2pmss/internal/des"
	"p2pmss/internal/engine"
	"p2pmss/internal/parity"
	"p2pmss/internal/seq"
)

// harness is a minimal deterministic driver: unit-latency FIFO message
// delivery, timers firing (earliest first) only once the message queue
// drains, a planned switch applied as soon as the event that planned it
// is handled (identity-based subtraction makes early application
// lossless), and no packet ever sent. It exists to exercise the engine
// without either real driver, so invariants hold independent of
// transport.
type harness struct {
	cfg     engine.Config
	pl      *engine.Pool // the peers' one pool; nil: a pool each
	peers   []*engine.Peer
	streams []engine.Stream
	crashed map[engine.PeerID]bool

	queue  []delivery
	qHead  int
	timers []timerEntry
	now    float64

	// Scratch reused across dispatches so a steady-state round through
	// the harness allocates (amortized) nothing: leaf requests, the
	// worklist of effect batches, and one scratch struct per event kind
	// (the engine never retains an event past Handle).
	reqBuf   []engine.Request
	batchBuf [][]engine.Effect
	evCtl    engine.Control
	evConf   engine.Confirm
	evCommit engine.Commit
	evTimer  engine.TimerFired
	evSF     engine.SendFailed

	// dropWhen, when non-nil, silently loses a delivery (message loss
	// without a crash); crashWhen marks a peer crashed just before a
	// delivery is attempted (the delivery is then lost too).
	dropWhen  func(to engine.PeerID, ev engine.Event) bool
	crashWhen func(to engine.PeerID, ev engine.Event) engine.PeerID

	// dupWhen, when non-nil, delivers a message a second time right after
	// the first (a datagram network duplicating it).
	dupWhen func(to engine.PeerID, ev engine.Event) bool

	// afterHandle observes a peer right after it processed an event
	// (used by the fuzzer to check per-step invariants).
	afterHandle func(to engine.PeerID)

	// onAssign observes every share the engine takes on for a peer, in
	// arrival order: the Seq of each Activate and Merge effect.
	onAssign func(to engine.PeerID, s seq.Sequence)

	// onBatch observes every effect batch a peer's Handle returned, in
	// order, before any of it is applied or released.
	onBatch func(to engine.PeerID, effs []engine.Effect)
}

// delivery is one queued message (msg set) or direct event (ev set).
type delivery struct {
	to  engine.PeerID
	msg any
	ev  engine.Event
}

type timerEntry struct {
	at float64
	to engine.PeerID
	id engine.TimerID
}

// newHarness builds every peer from one pool, as the simulator does.
func newHarness(cfg engine.Config, seed int64) *harness {
	return newHarnessOn(cfg, seed, new(engine.Pool))
}

// newHarnessOn builds every peer from pl, or each from a pool of its
// own, as a live node does, when pl is nil.
func newHarnessOn(cfg engine.Config, seed int64, pl *engine.Pool) *harness {
	if err := cfg.Normalize(); err != nil {
		panic(err)
	}
	h := &harness{cfg: cfg, pl: pl, crashed: make(map[engine.PeerID]bool)}
	h.newPeers(seed)
	return h
}

// newPeers builds the peers of a run of the given seed.
func (h *harness) newPeers(seed int64) {
	h.peers, h.streams = h.peers[:0], h.streams[:0]
	for i := 0; i < h.cfg.N; i++ {
		id := engine.PeerID(i)
		pl := h.pl
		if pl == nil {
			pl = new(engine.Pool)
		}
		h.peers = append(h.peers, pl.NewPeer(h.cfg, id, engine.PeerSeed(seed, id)))
		h.streams = append(h.streams, engine.Stream{})
	}
}

// reset rewinds the harness — peers, clocks, queues — to a fresh run
// of the given seed while keeping every capacity (the benchmark hot
// loop reruns rounds through one harness), as the simulator rewinds a
// run: the pool is Reset and the peers are built from it again. Only a
// harness of one pool resets.
func (h *harness) reset(seed int64) {
	h.now = 0
	h.queue = h.queue[:0]
	h.qHead = 0
	h.timers = h.timers[:0]
	clear(h.crashed)
	h.pl.Reset()
	h.newPeers(seed)
}

func (h *harness) snap(id engine.PeerID) engine.Snapshot {
	return h.streams[id].Snapshot()
}

// start performs the leaf's step 1 over the given content sequence
// (nil content = control-plane-only mode, rates without divisions).
func (h *harness) start(content seq.Sequence, rate float64, leafSeed int64) {
	var enhanced seq.Sequence
	if content != nil {
		enhanced = parity.Enhance(content, h.cfg.Interval)
	}
	perPeer := parity.PerPeerRate(rate, h.cfg.Interval, h.cfg.H)
	lr := des.NewRand(engine.PeerSeed(leafSeed, engine.LeafID))
	sel, _ := engine.SelectInitial(lr, h.cfg.N, h.cfg.H)
	h.reqBuf = h.reqBuf[:0]
	for u := range sel {
		var assigned seq.Sequence
		if enhanced != nil {
			assigned = seq.Div(enhanced, h.cfg.H, u)
		}
		h.reqBuf = append(h.reqBuf, engine.Request{
			Assigned: assigned,
			Rate:     perPeer,
			Selected: sel,
			Round:    1,
		})
	}
	for u, cp := range sel {
		h.queue = append(h.queue, delivery{to: cp, ev: &h.reqBuf[u]})
	}
}

// run drains messages FIFO, then fires the earliest timer, until quiet.
func (h *harness) run() {
	for {
		if h.qHead < len(h.queue) {
			d := h.queue[h.qHead]
			h.qHead++
			h.dispatch(d)
			continue
		}
		h.queue = h.queue[:0]
		h.qHead = 0
		if len(h.timers) == 0 {
			return
		}
		best := 0
		for i, t := range h.timers {
			if t.at < h.timers[best].at {
				best = i
			}
		}
		t := h.timers[best]
		h.timers = append(h.timers[:best], h.timers[best+1:]...)
		h.now = t.at
		h.evTimer = engine.TimerFired{Timer: t.id}
		h.deliver(t.to, &h.evTimer)
	}
}

// dispatch wraps a queued message in its (scratch) event, delivers it,
// and returns the consumed message node to its pool.
func (h *harness) dispatch(d delivery) {
	ev := d.ev
	switch m := d.msg.(type) {
	case *engine.MsgControl:
		h.evCtl.Msg = m
		ev = &h.evCtl
	case *engine.MsgConfirm:
		h.evConf.Msg = m
		ev = &h.evConf
	case *engine.MsgCommit:
		h.evCommit.Msg = m
		ev = &h.evCommit
	}
	h.deliver(d.to, ev)
	if h.dupWhen != nil && h.dupWhen(d.to, ev) {
		h.deliver(d.to, ev)
	}
	engine.ReleaseMsg(d.msg)
}

func (h *harness) deliver(to engine.PeerID, ev engine.Event) {
	if h.crashWhen != nil {
		if victim := h.crashWhen(to, ev); victim >= 0 {
			h.crashed[victim] = true
		}
	}
	if h.crashed[to] {
		return
	}
	if h.dropWhen != nil && h.dropWhen(to, ev) {
		return
	}
	h.apply(to, h.peers[to].Handle(ev, h.snap(to)))
	if h.afterHandle != nil {
		h.afterHandle(to)
	}
}

// apply executes effects as the real drivers do: sends to crashed
// peers feed SendFailed back behind the remaining effects (an Absorb
// they produce folds into the switch the batch planned), the data-plane
// effects go to the peer's engine.Stream, and the planned switch is
// applied once the batches are done. Every consumed batch is given back
// to the peer via Release.
func (h *harness) apply(to engine.PeerID, effs []engine.Effect) {
	p := h.peers[to]
	st := &h.streams[to]
	batches := append(h.batchBuf[:0], effs)
	for bi := 0; bi < len(batches); bi++ {
		if h.onBatch != nil {
			h.onBatch(to, batches[bi])
		}
		for _, eff := range batches[bi] {
			switch e := eff.(type) {
			case *engine.Send:
				if h.crashed[e.To] {
					h.evSF = engine.SendFailed{To: e.To, Msg: e.Msg}
					if fb := p.Handle(&h.evSF, h.snap(to)); fb != nil {
						batches = append(batches, fb)
					}
					engine.ReleaseMsg(e.Msg)
					continue
				}
				h.queue = append(h.queue, delivery{to: e.To, msg: e.Msg})
			case *engine.SetTimer:
				h.timers = append(h.timers, timerEntry{at: h.now + e.Delay, to: to, id: e.ID})
			case *engine.Activate:
				if h.onAssign != nil {
					h.onAssign(to, e.Seq)
				}
			case *engine.Merge:
				if h.onAssign != nil {
					h.onAssign(to, e.Seq)
				}
			}
			st.Apply(eff)
		}
	}
	for _, b := range batches {
		p.Release(b)
	}
	h.batchBuf = batches[:0]
	st.Switch()
}

func (h *harness) outcomes() []engine.Outcome {
	out := make([]engine.Outcome, len(h.peers))
	for i, p := range h.peers {
		out[i] = p.Outcome()
	}
	return out
}

func baseConfig(n, hh int, dcop bool) engine.Config {
	return engine.Config{
		N: n, H: hh, Interval: 3,
		MarkDelta: 0.1, HandshakeTimeout: 1, CommitRelease: 4,
		Retries: hh, DCoP: dcop,
	}
}

// checkTree asserts TCoP's structural invariants: at most one parent per
// peer, committed implies an adopting parent, and every parent/child
// edge is mirrored in the parent's children list.
func checkTree(t *testing.T, outs []engine.Outcome) {
	t.Helper()
	children := make(map[engine.PeerID]map[engine.PeerID]int)
	for _, o := range outs {
		m := make(map[engine.PeerID]int)
		for _, c := range o.Children {
			m[c]++
			if m[c] > 1 {
				t.Errorf("peer %d lists child %d twice", o.ID, c)
			}
		}
		children[o.ID] = m
	}
	for _, o := range outs {
		if o.Committed {
			if o.Parent < 0 || o.Parent == int(o.ID) {
				t.Errorf("peer %d committed with parent %d", o.ID, o.Parent)
			}
			if children[engine.PeerID(o.Parent)][o.ID] != 1 {
				t.Errorf("peer %d's parent %d does not list it as a child", o.ID, o.Parent)
			}
		}
	}
}

// coverageKeys returns the union of assigned keys over active peers.
func coverageKeys(outs []engine.Outcome) map[string]bool {
	keys := make(map[string]bool)
	for _, o := range outs {
		if !o.Active {
			continue
		}
		for _, k := range o.Assigned().Keys() {
			keys[k] = true
		}
	}
	return keys
}

func TestEngineTCoPTreeInvariants(t *testing.T) {
	content := seq.Range(1, 60)
	for seed := int64(1); seed <= 5; seed++ {
		cfg := baseConfig(24, 4, false)
		h := newHarness(cfg, seed)
		h.start(content, 12, seed)
		h.run()
		outs := h.outcomes()
		checkTree(t, outs)
		active := 0
		edges := 0
		for _, o := range outs {
			if o.Active {
				active++
			}
			edges += len(o.Children)
		}
		if active != cfg.N {
			t.Errorf("seed %d: %d/%d peers active", seed, active, cfg.N)
		}
		// Every active peer except the H leaf-selected roots joined via
		// exactly one commit edge.
		if edges != active-cfg.H {
			t.Errorf("seed %d: %d edges for %d active peers (want %d)", seed, edges, active, active-cfg.H)
		}
		want := parity.Enhance(content, cfg.Interval).Keys()
		got := coverageKeys(outs)
		for _, k := range want {
			if !got[k] {
				t.Fatalf("seed %d: enhanced packet %s assigned to nobody", seed, k)
			}
		}
	}
}

func TestEngineDCoPFloodsAndCovers(t *testing.T) {
	content := seq.Range(1, 60)
	for seed := int64(1); seed <= 5; seed++ {
		cfg := baseConfig(24, 4, true)
		h := newHarness(cfg, seed)
		h.start(content, 12, seed)
		h.run()
		outs := h.outcomes()
		active := 0
		for _, o := range outs {
			if o.Active {
				active++
			}
		}
		if active < cfg.N*3/4 {
			t.Errorf("seed %d: only %d/%d peers active", seed, active, cfg.N)
		}
		want := parity.Enhance(content, cfg.Interval).Keys()
		got := coverageKeys(outs)
		for _, k := range want {
			if !got[k] {
				t.Fatalf("seed %d: enhanced packet %s assigned to nobody", seed, k)
			}
		}
	}
}

// TestEngineDCoPChildrenCapSmallH is the §3.3 regression for the
// lifetime fanout cap: even at tiny H, where redundant selection makes a
// peer's select fire repeatedly (once per merge), the children taken
// over a peer's lifetime never exceed H. The pre-engine live runtime
// lacked this cap.
func TestEngineDCoPChildrenCapSmallH(t *testing.T) {
	content := seq.Range(1, 40)
	for _, hh := range []int{1, 2, 3} {
		for seed := int64(1); seed <= 10; seed++ {
			cfg := baseConfig(16, hh, true)
			h := newHarness(cfg, seed)
			h.start(content, 8, seed)
			h.run()
			for i, p := range h.peers {
				if engine.ChildrenTaken(p) > hh {
					t.Fatalf("H=%d seed %d: peer %d took %d children", hh, seed, i, engine.ChildrenTaken(p))
				}
				if got := len(p.Outcome().Children); got > hh {
					t.Fatalf("H=%d seed %d: peer %d kept %d children", hh, seed, i, got)
				}
			}
		}
	}
}

// TestEngineTCoPRetryOnCrashedChild exercises the fail-over path: a
// selected child that is already crashed produces SendFailed, and the
// parent retries an alternate from its spare queue.
func TestEngineTCoPRetryOnCrashedChild(t *testing.T) {
	content := seq.Range(1, 60)
	cfg := baseConfig(12, 3, false)
	retriedSome := false
	for seed := int64(1); seed <= 8 && !retriedSome; seed++ {
		h := newHarness(cfg, seed)
		// Crash two peers the leaf did not select.
		lr := des.NewRand(engine.PeerSeed(seed, engine.LeafID))
		sel, spares := engine.SelectInitial(lr, cfg.N, cfg.H)
		_ = sel
		h.crashed[spares[0]] = true
		h.crashed[spares[1]] = true
		h.start(content, 12, seed)
		h.run()
		outs := h.outcomes()
		checkTree(t, outs)
		for _, o := range outs {
			if h.crashed[o.ID] && o.Active {
				t.Fatalf("seed %d: crashed peer %d became active", seed, o.ID)
			}
			if o.Retried > 0 {
				retriedSome = true
			}
		}
	}
	if !retriedSome {
		t.Fatal("no seed exercised the alternate-peer retry path")
	}
}

// TestEngineTCoPCommitAbsorb crashes a child between its confirmation
// and the parent's commit: the commit send fails and the parent
// re-absorbs the share, so no packet is orphaned.
func TestEngineTCoPCommitAbsorb(t *testing.T) {
	content := seq.Range(1, 60)
	cfg := baseConfig(12, 3, false)
	h := newHarness(cfg, 1)
	crashedOne := false
	h.crashWhen = func(to engine.PeerID, ev engine.Event) engine.PeerID {
		if c, ok := ev.(*engine.Confirm); ok && c.Msg.Accept && !crashedOne {
			crashedOne = true
			return c.Msg.Child
		}
		return -1
	}
	h.start(content, 12, 1)
	h.run()
	absorbed := 0
	for _, o := range h.outcomes() {
		absorbed += o.Absorbed
	}
	if absorbed == 0 {
		t.Fatal("no share was re-absorbed after the post-confirm crash")
	}
	// Coverage must survive the crash: the absorbed share stays with the
	// parent, so the union over surviving active peers is still complete.
	want := parity.Enhance(content, cfg.Interval).Keys()
	outs := h.outcomes()
	got := make(map[string]bool)
	for i, o := range outs {
		if o.Active && !h.crashed[o.ID] {
			for _, pkt := range h.streams[i].Snapshot().Seq() {
				got[pkt.Key()] = true
			}
		}
	}
	// The harness applies hand-offs immediately, so each survivor's
	// stream is exactly what it will transmit; their union must cover
	// the enhanced content minus nothing.
	for _, k := range want {
		if !got[k] {
			t.Fatalf("packet %s orphaned by the crash", k)
		}
	}
}

// TestEngineTCoPCommitLostReleasesAdoption drops a commit in flight: the
// adopted child never hears c2, and after CommitRelease its adoption is
// released so a later parent could take it.
func TestEngineTCoPCommitLostReleasesAdoption(t *testing.T) {
	content := seq.Range(1, 60)
	cfg := baseConfig(12, 3, false)
	h := newHarness(cfg, 1)
	var victim engine.PeerID = -1
	h.dropWhen = func(to engine.PeerID, ev engine.Event) bool {
		if _, ok := ev.(*engine.Commit); ok && victim < 0 {
			victim = to
			return true
		}
		return false
	}
	h.start(content, 12, 1)
	h.run()
	if victim < 0 {
		t.Fatal("no commit was ever sent")
	}
	p := h.peers[victim]
	if p.Active() || p.Committed() {
		t.Fatalf("victim %d active=%v committed=%v after losing its commit", victim, p.Active(), p.Committed())
	}
	if engine.Parent(p) != -1 {
		t.Fatalf("victim %d still adopted by %d after CommitRelease", victim, engine.Parent(p))
	}
}

// TestEngineTCoPConfirmTimeoutRetryWave drops a control in flight: the
// child never answers, the parent's deadline fires, and a retry wave
// goes out to an alternate with a doubled deadline.
func TestEngineTCoPConfirmTimeoutRetryWave(t *testing.T) {
	content := seq.Range(1, 60)
	cfg := baseConfig(12, 3, false)
	h := newHarness(cfg, 1)
	dropped := false
	h.dropWhen = func(to engine.PeerID, ev engine.Event) bool {
		if _, ok := ev.(*engine.Control); ok && !dropped {
			dropped = true
			return true
		}
		return false
	}
	h.start(content, 12, 1)
	h.run()
	retried := 0
	for _, o := range h.outcomes() {
		retried += o.Retried
	}
	if retried == 0 {
		t.Fatal("confirmation timeout did not trigger a retry wave")
	}
	checkTree(t, h.outcomes())
}

// TestEngineDeterministicReplay runs the same seed twice and requires
// byte-identical outcomes — the property both drivers rely on.
func TestEngineDeterministicReplay(t *testing.T) {
	content := seq.Range(1, 60)
	for _, dcop := range []bool{false, true} {
		run := func() string {
			h := newHarness(baseConfig(20, 4, dcop), 7)
			h.start(content, 12, 7)
			h.run()
			return formatOutcomes(h.outcomes())
		}
		if a, b := run(), run(); a != b {
			t.Errorf("dcop=%v: two runs of the same seed diverged:\n%s\n--vs--\n%s", dcop, a, b)
		}
	}
}

func formatOutcomes(outs []engine.Outcome) string {
	s := ""
	for _, o := range outs {
		kids := append([]engine.PeerID(nil), o.Children...)
		sort.Slice(kids, func(i, j int) bool { return kids[i] < kids[j] })
		keys := o.Assigned().Keys()
		sort.Strings(keys)
		s += fmt.Sprintf("%d active=%v parent=%d kids=%v assigned=%v\n", o.ID, o.Active, o.Parent, kids, keys)
	}
	return s
}

func TestConfigNormalize(t *testing.T) {
	bad := []engine.Config{
		{N: 0, H: 1, Interval: 1},
		{N: 1, H: 0, Interval: 1},
		{N: 1, H: 1, Interval: 0},
	}
	for _, cfg := range bad {
		if err := cfg.Normalize(); err == nil {
			t.Errorf("Normalize(%+v) accepted an invalid config", cfg)
		}
	}
	cfg := engine.Config{N: 4, H: 2, Interval: 3, Retries: -5}
	if err := cfg.Normalize(); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if cfg.FirstFanout != 2 || cfg.Retries != 0 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestPeerSeedIndependence(t *testing.T) {
	seen := make(map[int64]engine.PeerID)
	for id := engine.PeerID(-1); id < 100; id++ {
		s := engine.PeerSeed(42, id)
		if s < 0 {
			t.Fatalf("PeerSeed(42, %d) = %d is negative", id, s)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("PeerSeed collision between ids %d and %d", prev, id)
		}
		seen[s] = id
	}
	if engine.PeerSeed(1, 0) == engine.PeerSeed(2, 0) {
		t.Error("PeerSeed ignores the base seed")
	}
}

// Every member of a session derives one seed from the population seed
// and the session id alone; distinct sessions and populations draw
// apart.
func TestSessionSeed(t *testing.T) {
	seen := make(map[int64]string)
	for i := 0; i < 1000; i++ {
		sid := fmt.Sprintf("node%d/movie#%d", i%7, i)
		s := engine.SessionSeed(42, sid)
		if s < 0 {
			t.Fatalf("SessionSeed(42, %q) = %d is negative", sid, s)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("SessionSeed collision between %q and %q", prev, sid)
		}
		seen[s] = sid
		if again := engine.SessionSeed(42, sid); again != s {
			t.Fatalf("SessionSeed(42, %q) is %d, then %d", sid, s, again)
		}
	}
	if engine.SessionSeed(1, "s") == engine.SessionSeed(2, "s") {
		t.Error("SessionSeed ignores the base seed")
	}
	if engine.SessionSeed(1, "") == engine.SessionSeed(1, "s") {
		t.Error("SessionSeed ignores the session id")
	}
}

// TestPeerSeedPinned pins a few PeerSeed values: both drivers seed every
// peer's stream with them, so a change to the derivation or to des.Mix
// would silently re-draw every run.
func TestPeerSeedPinned(t *testing.T) {
	for _, c := range []struct {
		base int64
		id   engine.PeerID
		want int64
	}{
		{0, engine.LeafID, 7070836379803831727},
		{1, engine.LeafID, 1227844342346046657},
		{1, 0, 4533873174211652711},
		{1, 99, 4355826640330431745},
		{42, 7, 6270620877612482005},
		{-5, 3, 3414711185053671722},
		{1 << 40, 12345, 5247082479790166413},
	} {
		if got := engine.PeerSeed(c.base, c.id); got != c.want {
			t.Errorf("PeerSeed(%d, %d) = %d, want %d", c.base, c.id, got, c.want)
		}
	}
}

func TestMarkOffsetFloors(t *testing.T) {
	cases := []struct {
		off  int
		d, r float64
		want int
	}{
		{0, 0, 10, 0},
		{5, 1, 10, 15},
		{5, 0.5, 3, 6},  // 1.5 floors to 1
		{2, 1, 1e-6, 2}, // negligible rate advances nothing
		{0, 0.3, 10, 3}, // 2.9999... + eps rounds to 3
	}
	for _, c := range cases {
		if got := engine.MarkOffset(c.off, c.d, c.r); got != c.want {
			t.Errorf("MarkOffset(%d,%v,%v) = %d, want %d", c.off, c.d, c.r, got, c.want)
		}
	}
}

// A DCoP peer that merges a parent's share and then selects divides the
// merged stream at the summed rate, in control-plane-only mode (nil
// streams, Figures 10/11) as in the packet plane: its children's
// ChildRate and its hand-off's OldRate are the packet plane's.
func TestMergeThenSelectAtSummedRate(t *testing.T) {
	cfg := baseConfig(8, 3, true)
	cfg.FirstFanout = 1 // the leaf-selected peer keeps selection budget
	const rate, childRate = 40.0, 15.0
	content := parity.Enhance(seq.Range(1, 90), cfg.Interval)
	type result struct {
		childRates []float64
		oldRate    float64
		handoffs   int
	}
	run := func(assigned, share seq.Sequence) result {
		t.Helper()
		c := cfg
		if err := c.Normalize(); err != nil {
			t.Fatal(err)
		}
		p := new(engine.Pool).NewPeer(c, 0, engine.PeerSeed(1, 0))
		p.Handle(&engine.Request{Assigned: assigned, Rate: rate, Selected: []engine.PeerID{0, 1, 2}, Round: 1}, engine.Snapshot{})
		// Peer 1, also leaf-selected, hands this one a share: a merge, then
		// a selection with the two children left of the §3.3 budget.
		effs := p.Handle(&engine.Control{Msg: &engine.MsgControl{
			Parent: 1, View: []engine.PeerID{1}, Rate: rate, ChildRate: childRate,
			Children: 2, ChildIdx: 1, Round: 2, AssignedSeq: share,
		}}, engine.Snapshot{Stream: assigned, Rate: rate})
		var r result
		for _, e := range effs {
			switch e := e.(type) {
			case *engine.Send:
				if m, ok := e.Msg.(*engine.MsgControl); ok {
					r.childRates = append(r.childRates, m.ChildRate)
				}
			case *engine.Handoff:
				r.oldRate, r.handoffs = e.OldRate, r.handoffs+1
			}
		}
		return r
	}
	packet := run(seq.Div(content, 3, 0), seq.Div(content, 3, 1))
	fluid := run(nil, nil)
	if packet.handoffs != 1 || len(packet.childRates) != 2 {
		t.Fatalf("the packet plane's merge selected %d children in %d hand-offs, want 2 in 1",
			len(packet.childRates), packet.handoffs)
	}
	want := (rate + childRate) * float64(cfg.Interval+1) / float64(cfg.Interval*3)
	for _, r := range []result{packet, fluid} {
		if r.oldRate != rate+childRate {
			t.Errorf("hand-off OldRate %v, want the merged rate %v", r.oldRate, rate+childRate)
		}
		if len(r.childRates) != len(packet.childRates) {
			t.Fatalf("%d children, the packet plane selects %d", len(r.childRates), len(packet.childRates))
		}
		for _, cr := range r.childRates {
			if cr != want {
				t.Errorf("ChildRate %v, want %v", cr, want)
			}
		}
	}
}
