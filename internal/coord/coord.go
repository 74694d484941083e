// Package coord implements the paper's coordination protocols for
// multi-source streaming: the primary contributions DCoP (§3.4, redundant
// flooding) and TCoP (§3.5, non-redundant tree), plus the three baselines
// of §3.1 — broadcast, unicast chain, and the centralized 2PC-style
// controller protocol of reference [5].
//
// Each protocol runs over the discrete-event simulator (internal/des) and
// the package's link model (net.go). Contents peers are network nodes
// 0..N-1 and the leaf peer is node N. A runner wires a protocol onto the
// network, executes it, optionally simulates the data plane (per-packet
// transmission at the §3.2 rates with parity enhancement), and collects
// the metrics the paper's evaluation reports: rounds, control packets,
// synchronization time, and leaf receipt rate.
package coord

import (
	"fmt"

	"p2pmss/internal/des"
	"p2pmss/internal/engine"
	"p2pmss/internal/flight"
	"p2pmss/internal/fluid"
	"p2pmss/internal/overlay"
	"p2pmss/internal/parity"
	"p2pmss/internal/schedule"
	"p2pmss/internal/seq"
	"p2pmss/internal/span"
)

// Protocol identifies a coordination protocol. DCoP and TCoP are the
// engine's names, shared with the live runtime; the four baselines exist
// only in the simulator.
type Protocol = engine.Protocol

// Protocol names accepted by Run.
const (
	DCoP = engine.DCoP
	TCoP = engine.TCoP
	// Broadcast is the §3.1 baseline where the leaf contacts all n peers
	// and peers exchange state in a group communication.
	Broadcast Protocol = "broadcast"
	// Unicast is the §3.1 chain baseline: one peer informs the next.
	Unicast Protocol = "unicast"
	// Centralized is the 2PC-style controller protocol of reference [5].
	Centralized Protocol = "centralized"
	// AMS is the asynchronous multi-source streaming precursor of [3–5]:
	// asynchronous start plus periodic all-to-all state exchange via
	// causal group communication.
	AMS Protocol = "ams"
)

// Protocols lists all implemented coordination protocols.
var Protocols = []Protocol{DCoP, TCoP, Broadcast, Unicast, Centralized, AMS}

// Config parameterizes one coordination run.
type Config struct {
	// N is the number of contents peers CP_1..CP_n.
	N int
	// H is the flooding fanout: the number of contents peers the leaf
	// initially selects and each parent tries to select (§3.3).
	H int
	// Interval is the parity interval h used by DCoP and the initial
	// division (§3.2). Zero means H-1 (one parity packet per H-1 data
	// packets, the paper's h = H-1 setting). TCoP re-enhancements use
	// the per-node interval c2.n from the pseudocode regardless.
	Interval int
	// Rate is the content rate τ in packets per time unit.
	Rate float64
	// Delta is the one-way control/data latency δ between any two peers.
	Delta float64
	// Jitter adds uniform extra latency in [0, Jitter).
	Jitter float64
	// LossProb drops each message independently with this probability.
	LossProb float64
	// LeafShares controls whether the leaf's content request carries the
	// identities of the other initially selected peers (the paper leaves
	// this unspecified; see DESIGN.md §2). Default true via DefaultConfig.
	LeafShares bool
	// FirstFanout is the number of children a leaf-selected peer selects
	// (§3.4 prose says H-1, pseudocode says H). Zero means H.
	FirstFanout int
	// DataPlane enables per-packet data transmission so receipt rate and
	// delivery can be measured. Figures 10 and 11 run with it off.
	DataPlane bool
	// PlaneMode selects how the data plane is simulated when DataPlane is
	// on: PlanePacket (the default, also selected by the empty string)
	// schedules one DES event per data packet; PlaneFluid models each
	// transmitter as a closed-form slot grid (internal/fluid), so run
	// cost scales with coordination events instead of rate × time and a
	// sweep can reach n = 10⁵ peers. Fluid runs require Loop and reject
	// the per-packet-only features (TrackDelivery, Playback, Repair,
	// LeafMaxRate, Burst); at zero Jitter and LossProb their control
	// trajectory is event-identical to the packet plane's and the receipt
	// rate agrees up to floating-point slot drift, with impairments the
	// fluid rate is the expectation. See DESIGN.md §11.
	PlaneMode DataPlaneMode
	// ContentLen is the content length in packets (data plane only).
	ContentLen int64
	// Loop makes transmitters wrap around at the end of their sequence,
	// modeling an unbounded stream for steady-state rate measurement.
	Loop bool
	// Settle and Window delimit the receipt-rate measurement: the window
	// opens Settle time units after the last peer activation and spans
	// Window time units.
	Settle, Window float64
	// LeafMaxRate is ρ_s, the leaf's maximum receipt rate in packets per
	// time unit (0 = unlimited). Arrivals beyond the buffer overrun.
	LeafMaxRate float64
	// LeafBuffer is the leaf buffer capacity in packets when LeafMaxRate
	// is set.
	LeafBuffer int
	// TrackDelivery makes the leaf feed every arrival into a parity
	// recoverer so Result reports how much of the content was delivered
	// (directly or via parity recovery). Use with Loop=false and a small
	// ContentLen; the run then executes to quiescence.
	TrackDelivery bool
	// Retries bounds how many alternate peers a TCoP parent contacts
	// when a selected child refuses, is unreachable, or stays silent —
	// the simulated counterpart of the live layer's churn-tolerant
	// failover. Zero (the default) disables retry waves, matching the
	// paper's base protocol.
	Retries int
	// HandshakeTimeout bounds each TCoP confirmation round; it doubles
	// on every retry wave. Zero means 2(δ+jitter)+ε, just past the
	// worst-case control+confirm round trip.
	HandshakeTimeout float64
	// CommitRelease is how long an adopted child waits for the commit
	// before releasing the adoption. Zero means 4(δ+jitter)+ε.
	CommitRelease float64
	// Seed seeds all randomness of the run.
	Seed int64
	// CrashPeers crash-stops the listed peers before the run starts.
	CrashPeers []overlay.PeerID
	// CrashAt, when >0 with CrashPeers set, delays the crashes to that
	// virtual time instead (peers participate, then fail).
	CrashAt float64
	// Churn, when non-nil, installs a deterministic crash/rejoin
	// schedule on top of (or instead of) CrashPeers — the sim-side
	// counterpart of the live layer's churn injection.
	Churn *ChurnSchedule
	// Burst enables Gilbert–Elliott bursty loss on every directed
	// channel (§3.2's "lost … in a bursty manner").
	Burst *BurstParams
	// Bandwidths, when it has N entries, gives each contents peer a
	// relative bandwidth; the initial division then uses the §2
	// time-slot allocation instead of round-robin, and per-peer rates
	// are proportional (the heterogeneous-environment extension).
	// Requires LeafShares so the selected peers know each other.
	Bandwidths []float64
	// StatePeriod and StatePeriods drive the AMS baseline's periodic
	// state exchange (defaults: 2δ, 3 periods).
	StatePeriod  float64
	StatePeriods int
	// Playback simulates continuous playout at the leaf: consumption of
	// data packets in order at rate Rate, starting PlaybackDelay after
	// the first arrival. Underruns are counted in the Result. Implies
	// TrackDelivery; use with Loop=false.
	Playback      bool
	PlaybackDelay float64
	// Repair enables the leaf-driven retransmission protocol, the
	// recovery of last resort when parity cannot cover a loss: the leaf
	// asks for a packet as soon as an arrival proves parity cannot
	// recover it, and, when delivery stalls (no data packet became
	// present for RepairInterval), for every missing packet — the
	// engine.Leaf policy the live leaf runs, asking the peers it most
	// recently heard from first. Requires TrackDelivery (enabled
	// automatically).
	Repair bool
	// RepairInterval is the stall window (default 5δ), checked every half
	// window.
	RepairInterval float64
	// Obs bundles the run's observers (metrics, spans, flight rings) in
	// the struct shared with the live runtime. None of them feeds back
	// into the simulation: an instrumented run is event-for-event
	// identical to a bare one, and because the DES is single-threaded
	// the metrics snapshot and span trace of a seeded run are
	// byte-identical across repetitions. A zero Obs.SpanTrace derives
	// the trace ID from the seed.
	Obs engine.Observability
}

// DataPlaneMode selects the data-plane simulation strategy.
type DataPlaneMode string

const (
	// PlanePacket schedules one DES event per data packet (the default).
	PlanePacket DataPlaneMode = "packet"
	// PlaneFluid evaluates per-flow packet counts in closed form.
	PlaneFluid DataPlaneMode = "fluid"
)

// fluid reports whether the run uses the flow-level data plane.
func (c *Config) fluid() bool { return c.DataPlane && c.PlaneMode == PlaneFluid }

// BurstParams parameterizes the per-channel Gilbert–Elliott loss model.
// The json tags shape the scenario stamp in experiment JSONL archives.
type BurstParams struct {
	PGoodToBad float64 `json:"p_good_to_bad"`
	PBadToGood float64 `json:"p_bad_to_good"`
	LossGood   float64 `json:"loss_good"`
	LossBad    float64 `json:"loss_bad"`
}

// DefaultConfig returns the paper's evaluation setting: n = 100 contents
// peers, reliable zero-loss links (§4 assumes 10 Gbps Ethernet), δ = 1
// time unit, content rate 1.
func DefaultConfig() Config {
	return Config{
		N:          100,
		H:          10,
		Rate:       1,
		Delta:      1,
		Jitter:     0.05,
		LeafShares: true,
		ContentLen: 100000,
		Loop:       true,
		Settle:     10,
		Window:     100,
		Seed:       1,
	}
}

func (c *Config) normalize() error {
	if c.N <= 0 {
		return fmt.Errorf("coord: N=%d must be positive", c.N)
	}
	if c.H <= 0 || c.H > c.N {
		return fmt.Errorf("coord: H=%d must be in 1..N=%d", c.H, c.N)
	}
	if c.Rate <= 0 {
		return fmt.Errorf("coord: rate %v must be positive", c.Rate)
	}
	if err := c.checkImpairments(); err != nil {
		return err
	}
	if c.Interval == 0 {
		c.Interval = c.H - 1
	}
	if c.Interval < 0 {
		return fmt.Errorf("coord: parity interval %d must be >= 0", c.Interval)
	}
	if c.Interval == 0 { // H == 1
		c.Interval = 1
	}
	if c.FirstFanout == 0 {
		c.FirstFanout = c.H
	}
	if c.DataPlane {
		if c.ContentLen <= 0 {
			return fmt.Errorf("coord: ContentLen %d must be positive with DataPlane", c.ContentLen)
		}
		if c.Window <= 0 {
			return fmt.Errorf("coord: Window %v must be positive with DataPlane", c.Window)
		}
	}
	switch c.PlaneMode {
	case "", PlanePacket:
		c.PlaneMode = PlanePacket
	case PlaneFluid:
		if !c.DataPlane {
			return fmt.Errorf("coord: PlaneMode fluid requires DataPlane")
		}
		if !c.Loop {
			return fmt.Errorf("coord: PlaneMode fluid requires Loop (steady-state streams)")
		}
		if c.TrackDelivery || c.Playback || c.Repair {
			return fmt.Errorf("coord: PlaneMode fluid models flow rates, not packet identities; TrackDelivery/Playback/Repair need the packet plane")
		}
		if c.LeafMaxRate > 0 {
			return fmt.Errorf("coord: PlaneMode fluid does not model the leaf buffer; LeafMaxRate needs the packet plane")
		}
		if c.Burst != nil {
			return fmt.Errorf("coord: PlaneMode fluid folds loss in as a thinning factor; Burst needs the packet plane")
		}
	default:
		return fmt.Errorf("coord: unknown PlaneMode %q (want %q or %q)", c.PlaneMode, PlanePacket, PlaneFluid)
	}
	if len(c.Bandwidths) > 0 {
		if len(c.Bandwidths) != c.N {
			return fmt.Errorf("coord: %d bandwidths for %d peers", len(c.Bandwidths), c.N)
		}
		for i, bw := range c.Bandwidths {
			if bw <= 0 {
				return fmt.Errorf("coord: bandwidth %v of peer %d must be positive", bw, i)
			}
		}
		if !c.LeafShares {
			return fmt.Errorf("coord: heterogeneous bandwidths require LeafShares")
		}
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.Obs.Spans != nil && c.Obs.SpanTrace == 0 {
		c.Obs.SpanTrace = span.DeriveTrace(fmt.Sprintf("coord/seed=%d", c.Seed))
	}
	if c.HandshakeTimeout == 0 {
		c.HandshakeTimeout = 2*(c.Delta+c.Jitter) + 0.001
	}
	if c.HandshakeTimeout < 0 {
		return fmt.Errorf("coord: HandshakeTimeout %v must be positive", c.HandshakeTimeout)
	}
	if c.CommitRelease == 0 {
		c.CommitRelease = 4*(c.Delta+c.Jitter) + 0.001
	}
	if c.CommitRelease < 0 {
		return fmt.Errorf("coord: CommitRelease %v must be positive", c.CommitRelease)
	}
	if c.StatePeriod == 0 {
		c.StatePeriod = 2 * c.Delta
		if c.StatePeriod <= 0 {
			c.StatePeriod = 1 // δ = 0 (instantaneous links): any period works
		}
	}
	if c.StatePeriod < 0 {
		return fmt.Errorf("coord: StatePeriod %v must be positive", c.StatePeriod)
	}
	if c.StatePeriods == 0 {
		c.StatePeriods = 3
	}
	if c.Playback {
		c.TrackDelivery = true
		if !c.DataPlane {
			return fmt.Errorf("coord: Playback requires DataPlane")
		}
	}
	if c.Repair {
		c.TrackDelivery = true
		if !c.DataPlane {
			return fmt.Errorf("coord: Repair requires DataPlane")
		}
		if c.RepairInterval == 0 {
			c.RepairInterval = 5 * c.Delta
			if c.RepairInterval <= 0 {
				c.RepairInterval = 1
			}
		}
		if c.RepairInterval < 0 {
			return fmt.Errorf("coord: RepairInterval %v must be positive", c.RepairInterval)
		}
	}
	return nil
}

// checkImpairments rejects link and crash settings the network cannot
// run: a probability outside [0, 1], a negative delay, or a crash that
// names no contents peer. NaN fails every check.
func (c *Config) checkImpairments() error {
	for _, d := range []struct {
		name string
		v    float64
	}{{"Delta", c.Delta}, {"Jitter", c.Jitter}, {"Settle", c.Settle}} {
		if !(d.v >= 0) {
			return fmt.Errorf("coord: %s %v must not be negative", d.name, d.v)
		}
	}
	probs := []float64{c.LossProb}
	if b := c.Burst; b != nil {
		probs = append(probs, b.PGoodToBad, b.PBadToGood, b.LossGood, b.LossBad)
	}
	for _, p := range probs {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("coord: loss or burst probability %v outside [0, 1]", p)
		}
	}
	for _, p := range c.CrashPeers {
		if p < 0 || int(p) >= c.N {
			return fmt.Errorf("coord: crashed peer %d outside [0, %d)", p, c.N)
		}
	}
	if c.Churn != nil {
		return c.Churn.validate(c.N)
	}
	return nil
}

// Result carries the metrics of one run.
type Result struct {
	// Protocol is the protocol name.
	Protocol string
	// Rounds is the highest round number of any coordination message
	// sent — how many message rounds it takes until coordination
	// quiesces (Figures 10/11's "rounds").
	Rounds int
	// SyncRounds is the round at which the last peer activated.
	SyncRounds int
	// ControlPackets counts every coordination message: content requests,
	// control, confirmation and commit packets (Figures 10/11's
	// "number of control packets").
	ControlPackets int64
	// ActivePeers is how many contents peers ended up transmitting.
	ActivePeers int
	// SyncTime is the virtual time of the last activation.
	SyncTime float64
	// ReceiptRate is the measured leaf arrival rate divided by the
	// content rate τ (Figure 12's "receipt rate"; 1 = exactly the
	// content rate). Zero when the data plane is off.
	ReceiptRate float64
	// DataPackets / ParityPackets / DupPackets break down leaf arrivals
	// inside the measurement window.
	DataPackets, ParityPackets, DupPackets int64
	// Overruns counts packets the leaf dropped to buffer overrun.
	Overruns int64
	// DeliveredData is how many of the ContentLen data packets the leaf
	// holds after the run — received directly or recovered from parity
	// (TrackDelivery only).
	DeliveredData int64
	// RecoveredData is how many packets parity recovery derived
	// (TrackDelivery only).
	RecoveredData int64
	// StateMessages counts the AMS baseline's periodic state broadcasts
	// (already included in ControlPackets).
	StateMessages int64
	// Underruns counts playback deadlines missed at the leaf
	// (Playback only).
	Underruns int64
	// RepairRequests counts leaf-issued retransmission requests.
	RepairRequests int64
	// PeerSent[i] is how many data-plane packets contents peer i
	// transmitted over the whole run (data plane only) — the per-peer
	// load, proportional to bandwidth under the heterogeneous division.
	PeerSent []int64
	// PlaybackStart is when playout began (Playback only).
	PlaybackStart float64
	// Outcomes is the per-peer coordination outcome from the shared
	// engine — tree shape, assignment unions, retry/absorb counters —
	// for DCoP and TCoP runs (nil for the baselines). Indexed by peer.
	Outcomes []engine.Outcome
	// NetStats is the raw network counterset.
	NetStats NetStats
}

// ---- messages ----------------------------------------------------------

// reqMsg is the leaf's content request c (§3.4 step 1).
type reqMsg struct {
	Rate     float64          // c.τ, the content rate
	Index    int              // which of the H initial divisions the recipient takes
	Selected []overlay.PeerID // initial selection when Config.LeafShares
	Round    int
	Span     span.Context // causal context (zero when tracing is off)
}

// ctlMsg, confirmMsg and commitMsg are the engine's wire vocabulary:
// the control packet c1, TCoP's confirmation cc1 and the commit c2 are
// defined once in internal/engine and aliased here so the simulator's
// codec-free messages are the engine's structs themselves.
type (
	ctlMsg     = engine.MsgControl
	confirmMsg = engine.MsgConfirm
	commitMsg  = engine.MsgCommit
)

// stateMsg is the broadcast baseline's group-communication state exchange.
type stateMsg struct {
	Peer  overlay.PeerID
	Round int
}

// prepMsg, ackMsg and startMsg implement the centralized 2PC-style
// baseline of [5]: controller → peers, peers → controller, controller →
// peers.
type prepMsg struct {
	Index int // division index assigned by the controller
	Round int
}
type ackMsg struct {
	Peer  overlay.PeerID
	Round int
}
type startMsg struct {
	Index int // division index, repeated so a lost prepMsg is harmless
	Round int
}

// dataMsg carries one content or parity packet to the leaf peer.
type dataMsg struct {
	Pkt seq.Packet
}

// repairMsg is the leaf's retransmission request for missing data
// packets (Config.Repair).
type repairMsg struct {
	Indices []int64
}

// ---- runner -------------------------------------------------------------

type protocolImpl interface {
	// start performs the leaf peer's step 1.
	start()
	// deliver handles a coordination message at contents peer p.
	deliver(p *peerNode, from int, m any)
}

type runner struct {
	cfg     Config
	eng     *des.Engine
	nw      *network
	peers   []*peerNode
	leaf    *leafNode
	impl    protocolImpl
	content seq.Sequence

	res          Result
	met          coordMetrics
	enhanced     seq.Sequence   // memoized Enhance(content, Interval)
	initialParts []seq.Sequence // memoized EnhanceDivide(content, Interval, H)
	activeCount  int
	measureEv    [2]*des.Timer // the window's opening and closing edges
	measureDone  bool
	measureOpen  bool

	// fl is the flow ledger of a fluid run (Config.PlaneMode); nil on
	// the packet plane. winStart/winEnd record when the measurement
	// window actually opened and closed, so the fluid result can
	// integrate arrivals over exactly the window the packet plane counts.
	fl               *fluid.Ledger
	winStart, winEnd float64

	// batchBuf is applyEffects' reusable worklist of effect batches.
	batchBuf [][]engine.Effect
}

// leafID returns the network node of the leaf peer.
func (r *runner) leafID() int { return r.cfg.N }

// peerNode is the per-contents-peer state shared by all protocols. The
// DCoP/TCoP transition state lives in core (the shared engine); the
// node keeps only driver state — the transmitter and the bookkeeping the
// baselines use.
type peerNode struct {
	r      *runner
	id     overlay.PeerID
	active bool
	depth  int // activation round
	tx     *transmitter

	// core is the peer's coordination state machine (DCoP/TCoP runs).
	core *engine.Peer
	// obs folds core's event/effect stream into spans, the latency
	// histograms and the flight ring; nil when all of them are off.
	obs *engine.Observer

	// Centralized baseline state: the controller has sent its start
	// round.
	committed bool

	// Broadcast baseline state.
	statesSeen int
}

func newRunner(cfg Config) (*runner, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	eng := des.New(cfg.Seed)
	r := &runner{cfg: cfg, eng: eng}
	r.nw = newNetwork(eng, &r.cfg, r.receive)
	r.met = newCoordMetrics(cfg.Obs.Metrics, cfg.Repair)
	r.res.Protocol = "?"
	if cfg.fluid() {
		// The fluid plane never materializes the content: assignments are
		// rates, not sequences, which is what makes n = 10⁵ sweeps cheap.
		r.fl = fluid.NewLedger(cfg.N)
	} else if cfg.DataPlane {
		r.content = seq.Range(1, cfg.ContentLen)
	}
	for i := 0; i < cfg.N; i++ {
		p := &peerNode{r: r, id: overlay.PeerID(i)}
		p.tx = &transmitter{r: r, node: i}
		r.peers = append(r.peers, p)
	}
	r.leaf = newLeaf(r)
	// Crashes before the run go unnoted; timed ones, CrashAt's first and
	// then the churn events in order, are des events through setDown.
	for _, cp := range cfg.CrashPeers {
		if cfg.CrashAt > 0 {
			eng.At(cfg.CrashAt, func() { r.setDown(cp, true) })
		} else {
			r.nw.crashed[cp] = true
		}
	}
	if cfg.Churn != nil {
		for _, e := range cfg.Churn.Events {
			eng.At(e.At, func() { r.setDown(e.Peer, !e.Join) })
		}
	}
	return r, nil
}

// receive takes a delivery from the network to the leaf or a contents
// peer.
func (r *runner) receive(from, to int, m any) {
	if to == r.leafID() {
		r.leaf.receive(from, m)
		return
	}
	p := r.peers[to]
	if rm, ok := m.(repairMsg); ok {
		r.onRepair(p, rm)
		return
	}
	r.impl.deliver(p, from, m)
	// The message is fully consumed (the engine copies what it keeps);
	// pooled engine messages go back to their sender, baseline value
	// messages and reqMsg are no-ops.
	engine.ReleaseMsg(m)
}

// sendCtl transmits a coordination message and accounts for it.
func (r *runner) sendCtl(from, to int, m any, round int) {
	typ := ctlTypeName(m)
	r.res.ControlPackets++
	r.met.ctl[typ].Inc()
	if round > r.res.Rounds {
		r.res.Rounds = round
		r.met.rounds.Set(float64(round))
	}
	if r.cfg.Obs.Flight != nil && r.peers[0].core == nil {
		// Baseline run: no engine records the send, so the driver does,
		// in the engine's vocabulary.
		r.note(r.flightPeer(from), flight.Event{Dir: "eff", Type: "send_" + typ, Other: r.flightPeer(to), Round: round})
	}
	r.nw.send(from, to, m)
}

// note records onto a peer's flight track what the engine cannot see:
// the sends and activations of the engine-less baselines, and driver
// occurrences (crash, rejoin, the leaf's repair request) under
// flight.DirDriver. The caller fills Dir, Type, Other, Round and N.
// Passive, and free when recording is off: a nil Set hands out the nil
// recorder (BenchmarkFlightDisabledNote).
func (r *runner) note(peer int, e flight.Event) {
	e.T = r.eng.Now()
	r.cfg.Obs.Flight.Recorder("", peer).Record(e)
}

// flightPeer maps a network node to its flight track: the leaf (node N)
// records as engine.LeafID, the id the engine's own records name it by.
func (r *runner) flightPeer(id int) int {
	if id == r.leafID() {
		return int(engine.LeafID)
	}
	return id
}

// activate marks peer p active at the given round and installs its
// first stream. Every protocol activates a peer once; a repeat only
// deepens the recorded round.
func (p *peerNode) activate(round int, s seq.Sequence, rate float64) {
	if round > p.depth {
		p.depth = round
	}
	if p.active {
		return
	}
	p.active = true
	p.r.activeCount++
	if round > p.r.res.SyncRounds {
		p.r.res.SyncRounds = round
		p.r.met.syncRounds.Set(float64(round))
	}
	p.r.res.SyncTime = p.r.eng.Now()
	p.r.res.ActivePeers = p.r.activeCount
	p.r.met.activations.Inc()
	p.r.met.activePeers.Set(float64(p.r.activeCount))
	p.r.met.activationRound.Observe(float64(round))
	if p.core == nil { // baseline: the engine records its own Activate effects
		p.r.note(int(p.id), flight.Event{Dir: "eff", Type: "activate", Round: round, N: len(s)})
	}
	p.r.scheduleMeasurement()
	p.tx.install(s, rate)
}

// scheduleMeasurement (re)schedules the receipt-rate window after the most
// recent activation.
func (r *runner) scheduleMeasurement() {
	if !r.cfg.DataPlane || r.measureDone {
		return
	}
	if r.measureEv[0] == nil {
		r.measureEv[0] = r.eng.NewTimer(func() {
			r.measureOpen = true
			r.winStart = r.eng.Now()
			r.leaf.resetWindow()
		})
		r.measureEv[1] = r.eng.NewTimer(func() {
			r.measureOpen = false
			r.measureDone = true
			r.winEnd = r.eng.Now()
		})
	}
	r.measureOpen = false
	r.measureEv[0].After(r.cfg.Settle)
	r.measureEv[1].After(r.cfg.Settle + r.cfg.Window)
}

// onRepair retransmits the requested content packets to the leaf. For
// engine-backed runs (DCoP/TCoP) the decision routes through the state
// machine; the baselines serve directly.
func (r *runner) onRepair(p *peerNode, m repairMsg) {
	if p.core != nil {
		r.dispatch(p, &engine.Repair{Indices: m.Indices})
		return
	}
	r.serveRepair(p, m.Indices)
}

// serveRepair retransmits the listed content packets to the leaf.
func (r *runner) serveRepair(p *peerNode, indices []int64) {
	for _, k := range indices {
		if k >= 1 && k <= r.cfg.ContentLen {
			r.nw.send(int(p.id), r.leafID(), dataMsg{Pkt: seq.NewData(k)})
		}
	}
}

// run executes the protocol to completion and returns the metrics.
func (r *runner) run() Result {
	r.leaf.arm()
	r.impl.start()
	if !r.cfg.DataPlane || !r.cfg.Loop {
		// Finite run: execute to quiescence (transmitters exhaust their
		// streams when Loop is off).
		r.eng.Run()
	} else {
		// Steady-state run: stop once the measurement window has closed
		// (or, if no peer ever activates, when everything quiesces).
		for !r.measureDone && r.eng.Step() {
		}
	}
	r.res.NetStats = r.nw.stats
	r.closeSpans()
	r.mirrorOutcomes()
	if r.fl != nil {
		now := r.eng.Now()
		r.res.PeerSent = make([]int64, r.cfg.N)
		var total int64
		for i := range r.peers {
			n := r.fl.Sends(i, now)
			r.res.PeerSent[i] = n
			total += n
		}
		r.met.dataSent.Add(total)
	} else if r.cfg.DataPlane {
		r.res.PeerSent = make([]int64, r.cfg.N)
		for i, p := range r.peers {
			r.res.PeerSent[i] = p.tx.sentTotal
		}
	}
	if r.leaf.asm != nil {
		r.res.DeliveredData = r.leaf.asm.Have()
		r.res.RecoveredData = int64(r.leaf.asm.Recovered())
	}
	if r.fl != nil {
		if r.measureDone && r.cfg.Window > 0 {
			// Expected arrivals over the same window the packet plane
			// counts: each send arrives one mean latency later, and
			// Bernoulli loss thins the flow. The data/parity/dup breakdown
			// needs packet identities and stays zero on the fluid plane.
			arr := r.fl.Arrivals(r.winStart, r.winEnd, r.cfg.Delta+r.cfg.Jitter/2, 1-r.cfg.LossProb)
			r.res.ReceiptRate = arr / r.cfg.Window / r.cfg.Rate
		}
	} else if r.cfg.DataPlane && r.measureDone && r.cfg.Window > 0 {
		r.res.ReceiptRate = float64(r.leaf.winTotal) / r.cfg.Window / r.cfg.Rate
		r.res.DataPackets = r.leaf.winData
		r.res.ParityPackets = r.leaf.winParity
		r.res.DupPackets = r.leaf.winDup
		r.res.Overruns = r.leaf.overruns
	}
	return r.res
}

// closeSpans finishes every peer's long-lived spans and the root
// session span at the end of the run.
func (r *runner) closeSpans() {
	now := r.eng.Now()
	for _, p := range r.peers {
		p.obs.Finish(now)
	}
	r.leaf.core.Close(now)
}

// Run executes the named protocol under cfg and returns its metrics.
func Run(proto Protocol, cfg Config) (Result, error) {
	r, err := newRunner(cfg)
	if err != nil {
		return Result{}, err
	}
	switch proto {
	case DCoP, TCoP:
		r.impl = &coordinated{r: r, dcop: proto == DCoP}
	case Broadcast:
		r.impl = &broadcast{r: r}
	case Unicast:
		r.impl = &unicast{r: r}
	case Centralized:
		r.impl = &centralized{r: r}
	case AMS:
		r.impl = &ams{r: r}
	default:
		return Result{}, fmt.Errorf("coord: unknown protocol %q", proto)
	}
	r.res.Protocol = proto
	return r.run(), nil
}

// ---- helpers shared by the protocols ------------------------------------

// initialAssignment computes the stream of the idx-th (0-based) of the H
// peers the leaf selected: Div(Esq(pkt, h), H, CP_i) at rate τ(h+1)/(hH).
// With heterogeneous bandwidths configured (and the selection shared),
// the division instead uses §2's time-slot allocation so faster peers
// carry proportionally more packets.
func (r *runner) initialAssignment(idx int, selected []overlay.PeerID) (seq.Sequence, float64) {
	if len(r.cfg.Bandwidths) > 0 && len(selected) > 0 {
		return r.heterogeneousAssignment(idx, selected)
	}
	rate := parity.PerPeerRate(r.cfg.Rate, r.cfg.Interval, r.cfg.H)
	if !r.cfg.DataPlane || r.cfg.fluid() {
		return nil, rate
	}
	if r.initialParts == nil {
		r.initialParts = parity.EnhanceDivide(r.content, r.cfg.Interval, r.cfg.H)
	}
	return r.initialParts[idx], rate
}

// heterogeneousAssignment allocates the enhanced sequence across the
// selected peers' channels with the §2 slot algorithm; peer rates are
// proportional to bandwidth.
func (r *runner) heterogeneousAssignment(idx int, selected []overlay.PeerID) (seq.Sequence, float64) {
	var total float64
	chans := make([]schedule.Channel, len(selected))
	for i, p := range selected {
		bw := r.cfg.Bandwidths[p]
		total += bw
		chans[i] = schedule.Channel{ID: i, SlotLen: schedule.SlotLenFromBandwidth(bw)}
	}
	share := r.cfg.Bandwidths[selected[idx]] / total
	rate := parity.ReceiptRate(r.cfg.Rate, r.cfg.Interval) * share
	if !r.cfg.DataPlane || r.cfg.fluid() {
		return nil, rate
	}
	e := r.enhancedContent()
	al := schedule.Allocate(len(e), chans)
	positions := al.PerChannel[idx]
	out := make(seq.Sequence, len(positions))
	for i, k := range positions {
		out[i] = e[k-1] // Allocate numbers packets 1..l
	}
	return out, rate
}

// enhancedContent memoizes Esq(content, Interval).
func (r *runner) enhancedContent() seq.Sequence {
	if r.enhanced == nil && r.content != nil {
		r.enhanced = parity.Enhance(r.content, r.cfg.Interval)
	}
	return r.enhanced
}

// perPeerRateAll is the rate of a 1/n division: τ(h+1)/(h·n).
func (r *runner) perPeerRateAll() float64 {
	return parity.PerPeerRate(r.cfg.Rate, r.cfg.Interval, r.cfg.N)
}

// currentOffset estimates how many packets a transmitter has sent, for
// filling c.SEQ when the data plane is off.
func (tx *transmitter) currentOffset() int {
	if tx.r.cfg.DataPlane && !tx.r.cfg.fluid() {
		return tx.st.Snapshot().Offset
	}
	// Control-plane-only and fluid runs estimate the offset from the rate
	// — there is no per-packet position to read. The offset only fills
	// c.SEQ in outgoing controls; no protocol decision branches on it.
	return int((tx.r.eng.Now() - tx.startedAt) * tx.st.Rate())
}
