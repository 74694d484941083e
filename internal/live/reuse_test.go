package live

import (
	"testing"
	"time"

	"p2pmss/internal/engine"
	"p2pmss/internal/transport"
)

// Regression for the effect-recycling contract: dispatchCtx releases the
// engine's effect nodes BEFORE the transmissions they produced are
// performed, relying on encodeLocked having copied everything a send
// needs out of the pooled nodes. A bounded blocking fabric keeps those
// sends in flight (parked on a full queue, outside the peer lock) while
// timers and deliveries keep dispatching into the same peer — every such
// dispatch reuses the just-released nodes and overwrites their fields.
// If any outSend still aliased pooled memory, the race detector would
// flag the concurrent write (and the leaf would reassemble corrupted
// bytes); the session must instead complete exactly.
func TestEffectRecycleWithQueuedSendsInFlight(t *testing.T) {
	for _, proto := range []Protocol{engine.DCoP, engine.TCoP} {
		t.Run(string(proto), func(t *testing.T) {
			data := randomData(6000, 53)
			_, ls := startSession(t, NodesConfig{
				H:           3,
				Interval:    2,
				Protocol:    proto,
				QueueCap:    1, // every burst of sends blocks mid-flight
				QueuePolicy: transport.QueueBlock,
				Seed:        5,
			}, 8, data, SessionConfig{PacketSize: 64, Rate: 600})
			waitExact(t, ls, data, 20*time.Second)
		})
	}
}

// The same window under drop-newest: a full queue must only lose whole
// messages (repair recovers them), never deliver frames assembled from
// recycled effect memory.
func TestEffectRecycleWithDroppingQueue(t *testing.T) {
	data := randomData(4000, 54)
	_, ls := startSession(t, NodesConfig{
		H:           3,
		Interval:    2,
		Protocol:    engine.DCoP,
		QueueCap:    64,
		QueuePolicy: transport.QueueDropNewest,
		Seed:        6,
	}, 6, data, SessionConfig{PacketSize: 64, Rate: 400, RepairAfter: 250 * time.Millisecond})
	waitExact(t, ls, data, 20*time.Second)
}
