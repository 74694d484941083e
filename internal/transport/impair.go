package transport

import (
	"hash/fnv"
	"math/rand"
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
	// BurstLen extends each loss event to a burst: after a message is
	// lost, the next BurstLen messages on the same link are lost too
	// (Gilbert-style correlated loss). Zero means independent losses.
	BurstLen int
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
	return im.Loss > 0 || im.Duplicate > 0 || im.Reorder > 0
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

type linkState struct {
	rng       *rand.Rand
	burstLeft int
	held      []*heldMsg
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
	l := &linkState{rng: des.NewRand(im.cfg.Seed ^ int64(h.Sum64()&0x7fffffffffffffff))}
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
	case l.burstLeft > 0:
		l.burstLeft--
		dropped = true
		im.met.burst.Inc()
	case im.cfg.Loss > 0 && l.rng.Float64() < im.cfg.Loss:
		l.burstLeft = im.cfg.BurstLen
		dropped = true
		im.met.drop.Inc()
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

// Flush releases every held message immediately (delivered via the
// release hook), e.g. when a test wants the tail of a quiet link.
func (im *Impairer) Flush() {
	im.mu.Lock()
	var pending []*heldMsg
	for _, l := range im.links {
		for _, h := range l.held {
			h.released = true
			pending = append(pending, h)
		}
		l.held = nil
	}
	im.stats.Released += int64(len(pending))
	release := im.release
	im.mu.Unlock()
	for _, h := range pending {
		h.deliverHeld(release)
	}
}
