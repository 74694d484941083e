package transport

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"p2pmss/internal/des"
	"p2pmss/internal/metrics"
)

// Impairment configures deterministic network-impairment injection:
// per-link loss (optionally bursty), duplication, and reordering. It is
// the one loss hook of both the in-process fabric (Fabric.SetImpairment)
// and the UDP endpoint (UDPEndpoint.SetImpairment), so a test can
// rehearse a loss scenario deterministically in memory and then replay
// it over real sockets.
//
// Every (from, to) link owns an independent RNG stream derived from Seed
// and the link's names, so the verdict sequence on a link depends only
// on the seed and the order of that link's own messages — concurrent
// traffic on other links cannot perturb it.
type Impairment struct {
	// Seed seeds the per-link RNG streams. A zero seed is valid (and
	// deterministic); two impairers with equal Seed and equal per-link
	// message orders produce identical verdicts.
	Seed int64
	// Loss is the per-message drop probability in [0,1].
	Loss float64
	// Burst, when set, adds Gilbert–Elliott bursty loss on every link
	// (see Link): a message is lost if the independent Loss draw or the
	// link's chain says so.
	Burst *BurstParams
	// Duplicate is the probability a delivered message is delivered
	// twice, back to back.
	Duplicate float64
	// Reorder is the probability a delivered message is held back and
	// overtaken by later traffic on its link.
	Reorder float64
	// ReorderWindow bounds how many subsequent messages may overtake a
	// held message before it is released. Zero with Reorder > 0 defaults
	// to 4.
	ReorderWindow int
	// MaxHold bounds how long a held message may wait for overtaking
	// traffic on the wall clock; on expiry it is released out of band.
	// Zero holds indefinitely (purely traffic-driven release — the
	// deterministic choice for the in-process fabric; a quiet link then
	// turns a held message into one more loss, which the coordination
	// deadlines and leaf repair already cover).
	MaxHold time.Duration
}

// Enabled reports whether the policy impairs anything at all.
func (im Impairment) Enabled() bool {
	return im.Loss > 0 || im.Burst != nil || im.Duplicate > 0 || im.Reorder > 0
}

// Validate rejects a probability outside [0, 1], NaN included: Loss,
// Duplicate, Reorder and Burst's four. It is the one check of a link
// model's settings; the live nodes and the simulator's Config both run
// it.
func (im Impairment) Validate() error {
	names := []string{"loss", "duplicate", "reorder"}
	probs := []float64{im.Loss, im.Duplicate, im.Reorder}
	if b := im.Burst; b != nil {
		names = append(names, "burst pGoodToBad", "burst pBadToGood", "burst lossGood", "burst lossBad")
		probs = append(probs, b.PGoodToBad, b.PBadToGood, b.LossGood, b.LossBad)
	}
	for i, p := range probs {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("transport: %s probability %v outside [0, 1]", names[i], p)
		}
	}
	return nil
}

// BurstParams parameterizes the Gilbert–Elliott loss model (§3.2's
// "lost … in a bursty manner"): a two-state Markov chain per directed
// link, Good and Bad (a burst), with a loss probability for each state.
// The json tags shape the scenario stamp in experiment JSONL archives.
type BurstParams struct {
	PGoodToBad float64 `json:"p_good_to_bad"`
	PBadToGood float64 `json:"p_bad_to_good"`
	LossGood   float64 `json:"loss_good"`
	LossBad    float64 `json:"loss_bad"`
}

// ParseBurst decodes the commands' -burst flag: the four Gilbert–Elliott
// parameters pGoodToBad,pBadToGood,lossGood,lossBad, comma-separated.
// Their range is Validate's to check.
func ParseBurst(s string) (*BurstParams, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return nil, fmt.Errorf("bad -burst %q: want pGoodToBad,pBadToGood,lossGood,lossBad", s)
	}
	var v [4]float64
	for i, part := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -burst entry %q: %w", part, err)
		}
		v[i] = f
	}
	return &BurstParams{PGoodToBad: v[0], PBadToGood: v[1], LossGood: v[2], LossBad: v[3]}, nil
}

// Link is one directed link's loss verdicts, the link model of both the
// Impairer and the simulator's network: its own seeded stream, drawing
// nothing another link draws, and with a burst model its Gilbert–Elliott
// state. It reads no clock and takes no lock; its owner serializes calls.
// A Link is a value with its stream inside: the simulator keeps its
// links in blocks, and each impairer link state embeds one.
type Link struct {
	src   des.Source
	loss  float64
	burst *BurstParams
	bad   bool
}

// NewLink returns a link on the stream seed that drops each message with
// probability loss and, with burst set, through its chain as well.
func NewLink(seed int64, loss float64, burst *BurstParams) Link {
	l := Link{loss: loss, burst: burst}
	l.src.Seed(seed)
	return l
}

// Lost decides the next message's fate. The draws come in a fixed order:
// the independent loss draw (only with loss > 0), then, with a burst
// model, one step of the chain and a draw at the new state's loss
// probability. The chain steps on every message, whatever the first
// draw said.
func (l *Link) Lost() bool {
	lost := l.loss > 0 && l.src.Float64() < l.loss
	b := l.burst
	if b == nil {
		return lost
	}
	if l.bad {
		l.bad = l.src.Float64() >= b.PBadToGood
	} else {
		l.bad = l.src.Float64() < b.PGoodToBad
	}
	loss := b.LossGood
	if l.bad {
		loss = b.LossBad
	}
	return l.src.Float64() < loss || lost
}

// window resolves the reorder window default.
func (im Impairment) window() int {
	if im.ReorderWindow > 0 {
		return im.ReorderWindow
	}
	return 4
}

// ImpairStats counts what an Impairer did so far.
type ImpairStats struct {
	// Dropped is how many messages were lost (burst losses included).
	Dropped int64
	// Duplicated is how many extra copies were injected.
	Duplicated int64
	// Held is how many messages were delayed for reordering; Released is
	// how many of those have been delivered again (by overtaking traffic
	// or the MaxHold timer).
	Held, Released int64
}

// Impairer applies an Impairment policy message by message. It is safe
// for concurrent use; per-link state is keyed by the (from, to) pair.
type Impairer struct {
	cfg Impairment
	// release delivers a formerly-held message once its reorder window
	// expires on the MaxHold timer (traffic-driven releases flow through
	// Admit's return value instead). Nil drops timed-out holds.
	release func(to string, m Msg)

	mu    sync.Mutex
	links map[linkKey]*linkState
	stats ImpairStats
	met   impairMetrics
}

// impairMetrics are the transport_impaired_total{verdict=...} counters,
// one per verdict the policy can hand down. Nil counters (no registry)
// are no-ops.
type impairMetrics struct {
	drop, dup, reorder, burst *metrics.Counter
}

// newImpairMetrics registers the verdict counters on reg, labeled by
// transport kind so fabric and UDP impairment stay distinguishable.
func newImpairMetrics(reg *metrics.Registry, kind string) impairMetrics {
	c := func(verdict string) *metrics.Counter {
		return reg.Counter("transport_impaired_total", "transport", kind, "verdict", verdict)
	}
	return impairMetrics{drop: c("drop"), dup: c("dup"), reorder: c("reorder"), burst: c("burst")}
}

// Instrument registers the impairer's per-verdict counters
// (transport_impaired_total{verdict=drop|dup|reorder|burst}) on reg,
// labeled with the transport kind. Call before traffic starts; the
// fabric and UDP endpoints call it for their own impairers when both an
// impairment and a registry are installed.
func (im *Impairer) Instrument(reg *metrics.Registry, kind string) {
	if im == nil {
		return
	}
	im.mu.Lock()
	im.met = newImpairMetrics(reg, kind)
	im.mu.Unlock()
}

// linkKey names one directed link.
type linkKey struct{ from, to string }

// linkState is one link's verdicts and the messages held back on it.
// rng draws the reorder and duplicate verdicts on the link's stream,
// after its loss draws.
type linkState struct {
	Link
	rng  *rand.Rand
	held []*heldMsg
}

// heldMsg is a message held back for reordering. Its payload is a
// pooled copy the impairer owns (bp), recycled once it is delivered.
type heldMsg struct {
	remaining int // messages that still get to overtake
	to        string
	m         Msg
	bp        *[]byte
	released  bool
}

// deliverHeld hands a released message to deliver and recycles its copy.
func (h *heldMsg) deliverHeld(deliver func(to string, m Msg)) {
	if deliver != nil {
		deliver(h.to, h.m)
	}
	putFrame(h.bp, h.m.Payload)
}

// NewImpairer compiles an Impairment policy. release, which may be nil,
// is invoked (without internal locks held) for messages whose reorder
// hold expires via MaxHold rather than via later traffic. Like a
// handler's, the payload release gets is valid only until it returns.
func NewImpairer(cfg Impairment, release func(to string, m Msg)) *Impairer {
	return &Impairer{cfg: cfg, release: release, links: make(map[linkKey]*linkState)}
}

// Stats returns a snapshot of the impairer's counters.
func (im *Impairer) Stats() ImpairStats {
	im.mu.Lock()
	defer im.mu.Unlock()
	return im.stats
}

// linkLocked returns (creating if needed) the state of link from→to.
func (im *Impairer) linkLocked(from, to string) *linkState {
	if l, ok := im.links[linkKey{from, to}]; ok {
		return l
	}
	h := fnv.New64a()
	h.Write([]byte(from + "\x00" + to))
	l := &linkState{Link: NewLink(im.cfg.Seed^int64(h.Sum64()&0x7fffffffffffffff), im.cfg.Loss, im.cfg.Burst)}
	l.rng = rand.New(&l.src)
	im.links[linkKey{from, to}] = l
	return l
}

// Admit runs the policy for one message on link from→to and calls
// deliver, outside the impairer's lock, with every message now due on
// the link, in order: the current message (twice when duplicated),
// followed by any formerly-held messages whose reorder window just
// expired. A dropped or held current message is not delivered; dropped
// reports a loss verdict (held messages are not drops — they surface
// later). Admit keeps no reference to m.Payload after it returns: a held
// message is a pooled copy. Each payload deliver gets is valid only
// until it returns.
func (im *Impairer) Admit(from, to string, m Msg, deliver func(Msg)) (dropped bool) {
	im.mu.Lock()
	l := im.linkLocked(from, to)
	copies := 0
	// This message overtakes every held one; release the expired.
	var expired []*heldMsg
	if len(l.held) > 0 {
		keep := l.held[:0]
		for _, h := range l.held {
			h.remaining--
			if h.remaining <= 0 {
				h.released = true
				expired = append(expired, h)
			} else {
				keep = append(keep, h)
			}
		}
		l.held = keep
	}
	switch {
	case l.Lost():
		dropped = true
		if l.bad {
			im.met.burst.Inc()
		} else {
			im.met.drop.Inc()
		}
	case im.cfg.Reorder > 0 && l.rng.Float64() < im.cfg.Reorder:
		h := &heldMsg{remaining: 1 + l.rng.Intn(im.cfg.window()), to: to, m: m}
		h.bp, h.m.Payload = borrow(m.Payload)
		l.held = append(l.held, h)
		im.stats.Held++
		im.met.reorder.Inc()
		if im.cfg.MaxHold > 0 {
			time.AfterFunc(im.cfg.MaxHold, func() { im.expire(h) })
		}
	default:
		copies = 1
		if im.cfg.Duplicate > 0 && l.rng.Float64() < im.cfg.Duplicate {
			copies = 2
			im.stats.Duplicated++
			im.met.dup.Inc()
		}
	}
	if dropped {
		im.stats.Dropped++
	}
	im.stats.Released += int64(len(expired))
	im.mu.Unlock()
	// Every delivery reads the sender's bytes or the held copy; the
	// transport behind deliver copies what it queues.
	for ; copies > 0; copies-- {
		deliver(m)
	}
	for _, h := range expired {
		h.deliverHeld(func(_ string, m Msg) { deliver(m) })
	}
	return dropped
}

// expire force-releases a held message whose MaxHold elapsed before
// enough traffic overtook it.
func (im *Impairer) expire(h *heldMsg) {
	im.mu.Lock()
	if h.released {
		im.mu.Unlock()
		return
	}
	h.released = true
	for _, l := range im.links {
		for i, hh := range l.held {
			if hh == h {
				l.held = append(l.held[:i], l.held[i+1:]...)
				break
			}
		}
	}
	im.stats.Released++
	release := im.release
	im.mu.Unlock()
	h.deliverHeld(release)
}
