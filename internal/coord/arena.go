package coord

import (
	"runtime"
	"sync"

	"p2pmss/internal/content"
	"p2pmss/internal/des"
	"p2pmss/internal/engine"
	"p2pmss/internal/fluid"
)

// Across runs. A sweep runs the simulator hundreds of times, and a run
// builds its event queue, engine pool, network, peers and ledger from
// blocks and slabs that would then go to the collector; the next run of
// the same shape builds them again. Instead, each runner's arena goes
// back to the idle arenas when its run ends and the next run takes it,
// rewound:
//
//   - the des engine keeps its queue's backing array; its clock and
//     sequence numbers restart and its stream is reseeded in place;
//   - the engine pool keeps its free lists' records and its slabs (the
//     peers, their view words and lists), every block of them
//     (des.Slab.Reset);
//   - the network keeps its link table and link slab, crash flags and
//     delivery records;
//   - the peer nodes, transmitters (with their slot timers) and the
//     fluid ledger keep their arrays, the packet-plane leaf its
//     assembler.
//
// What a Result holds is never the arena's: the content and its
// enhanced parts are made per run (Outcomes' shares alias them), and
// engine.Outcomes copies the peers' lists into blocks of the Result's
// own. A pooled record is cleared as it goes back on its list, and
// release clears what the run used of the rest, so an idle arena refers
// to no config, metrics registry, observer or sequence of the run
// before, and a recycled run is a fresh one byte for byte. Release costs
// what the run used, not what the arena holds: a small run after a
// large one clears little. Every worker of a parallel sweep takes an
// arena of its own.

// arena is what a run leaves for the next; runner embeds it.
type arena struct {
	eng   *des.Engine
	nw    *network
	pool  engine.Pool
	nodes []peerNode
	txs   []transmitter
	peers []*peerNode

	ledger fluid.Ledger       // the fluid plane's (runner.fl)
	asm    *content.Assembler // the packet-plane leaf's, made by its first run

	measureEv [2]*des.Timer // the window's opening and closing edges
	released  int           // arenas.ticks when the arena was last released
	// batchBuf is applyEffects' reusable worklist of effect batches.
	batchBuf [][]engine.Effect
	// timerFree and switchFree hold the pooled des events not in the
	// queue: engine-timer firings and transmitters' planned switches
	// (each record points only into the arena).
	timerFree  des.FreeList[timerEvent]
	switchFree des.FreeList[switchEvent]
}

// arenas holds the runners of finished runs for the runs after them. A
// run takes the arena released last, whichever goroutine or P released
// it, so a serial sweep runs in one arena and each worker of a parallel
// one in an arena of its own. (A sync.Pool keeps an item in its P's
// private slot, which a goroutine on another P does not see: a run
// there would start cold and build a second arena.) Like a sync.Pool's
// items, an arena left idle goes to the collector: ageArenas drops it at
// the third collection after its release. The first may have begun
// before the release, so an idle arena outlives at least one whole
// collection.
var arenas struct {
	sync.Mutex
	idle    []*runner // the oldest release first
	ticks   int       // collections since the first release
	ticking sync.Once // starts counting them with the first release
}

// takeArena returns the runner whose arena was released last, or a new
// one.
func takeArena() *runner {
	arenas.Lock()
	var r *runner
	if n := len(arenas.idle); n > 0 {
		r = arenas.idle[n-1]
		arenas.idle[n-1] = nil
		arenas.idle = arenas.idle[:n-1]
	}
	arenas.Unlock()
	if r != nil {
		return r
	}
	r = new(runner)
	r.pool.Reset() // the first run carves what every later one does
	r.eng = des.New(0)
	r.nw = &network{eng: r.eng, cfg: &r.cfg, receive: r.receive}
	return r
}

// release rewinds the run's arena, drops everything else of the run and
// hands the runner to the next run. The run's Result must have been
// taken: nothing of the runner is valid after.
func (r *runner) release() {
	r.eng.Reset()
	r.nw.release()
	r.pool.Reset()
	clear(r.nodes)
	for i := range r.txs {
		r.txs[i] = transmitter{slotTimer: r.txs[i].slotTimer} // bound to this slot
	}
	clear(r.peers)
	r.ledger.Reset(0)
	if r.asm != nil {
		r.asm.Reset(0, 1)
	}
	clear(r.batchBuf[:cap(r.batchBuf)])
	*r = runner{arena: r.arena}
	arenas.ticking.Do(tickEachCollection)
	arenas.Lock()
	r.released = arenas.ticks
	arenas.idle = append(arenas.idle, r)
	arenas.Unlock()
}

// ageArenas counts a collection and drops the arenas released three
// collections ago or earlier.
func ageArenas() {
	arenas.Lock()
	arenas.ticks++
	old := 0
	for old < len(arenas.idle) && arenas.idle[old].released <= arenas.ticks-3 {
		old++
	}
	n := copy(arenas.idle, arenas.idle[old:])
	clear(arenas.idle[n:])
	arenas.idle = arenas.idle[:n]
	arenas.Unlock()
}

// gcTick is a finalizer's hook: a collection finds it unreachable, and
// its finalizer ages the arenas and sets itself again on the same tick,
// which the finalizer made reachable, so a collection allocates nothing
// here. It holds a pointer so it is an allocation of its own (the runtime
// may never finalize a tiny one).
type gcTick struct{ _ *int }

// tickEachCollection runs ageArenas after every collection from now on.
func tickEachCollection() { runtime.SetFinalizer(&gcTick{}, tock) }

// tock ages the arenas and re-arms t for the next collection.
func tock(t *gcTick) {
	ageArenas()
	runtime.SetFinalizer(t, tock)
}

// resize returns s with length n, in s's array when it has room. The
// elements past s's length are as release left them: zero, but for a
// transmitter's slot timer.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
