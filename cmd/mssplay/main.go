// Command mssplay demonstrates live multi-source streaming over TCP
// loopback: it spins up a population of nodes (each listening on its own
// socket and holding every content), opens -sessions leaf sessions on
// them — each streaming one synthetic content from the other nodes with
// the tree-based coordination protocol, all concurrently over one set of
// sockets — optionally crash-stops serving nodes mid-stream (the
// churn-tolerant hand-off covers for them), and verifies every delivery
// byte-for-byte.
//
// With -udp the nodes run on UDP sockets instead (real datagram
// semantics), and with -mem on the in-process fabric; on either, the
// -loss/-burst/-dup/-reorder flags inject seeded impairment so §3.2
// parity recovery and stall repair do real work.
//
// With -listen the population also serves its observability endpoints
// over HTTP: Prometheus-format /metrics, /healthz, expvar on /debug/vars,
// net/http/pprof on /debug/pprof/, the live topology snapshots on
// /debug/overlay (?session=S&format=dot for Graphviz), the per-peer
// flight log on /debug/flight and every node's directory view on
// /debug/directory. Sending the process SIGUSR1 dumps overlay and flight
// log to temp files at any time, and -flight-out writes the flight log
// on exit.
//
// With -discover the population drops the static roster entirely: every
// node gossips signed announcements of its catalog (-announce-interval
// tunes the cadence) and sessions resolve their serving peers from the
// swarm directory.
//
// Usage:
//
//	mssplay -peers 8 -h 3 -size 65536 -kill 2
//	mssplay -udp -loss 0.05 -reorder 0.05    # lossy UDP; parity covers the gaps
//	mssplay -peers 10 -sessions 4 -kill 1
//	mssplay -sessions 4 -discover            # roster-free: gossip discovery
//	mssplay -listen 127.0.0.1:9090   # then: curl localhost:9090/metrics
//	mssplay -sessions 4 -trace-out t.jsonl   # then: msstrace perfetto t.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"p2pmss/internal/content"
	"p2pmss/internal/engine"
	"p2pmss/internal/flight"
	"p2pmss/internal/live"
	"p2pmss/internal/metrics"
	"p2pmss/internal/overlay"
	"p2pmss/internal/span"
	"p2pmss/internal/transport"
)

func main() {
	var (
		nPeers   = flag.Int("peers", 8, "number of nodes; each holds every content and serves the sessions opened on the others")
		fanout   = flag.Int("h", 3, "selection fanout H")
		interval = flag.Int("parity", 2, "parity interval h")
		size     = flag.Int("size", 64<<10, "content size in bytes")
		pktSize  = flag.Int("pkt", 256, "packet payload size in bytes")
		rate     = flag.Float64("rate", 800, "content rate in packets/second")
		kill     = flag.Int("kill", 0, "crash this many serving nodes mid-stream")
		proto    = flag.String("proto", engine.TCoP, "live coordination protocol: tcop or dcop")
		timeout  = flag.Duration("timeout", 60*time.Second, "delivery deadline")
		seed     = flag.Int64("seed", 1, "random seed")
		sessions = flag.Int("sessions", 1, "stream this many concurrent sessions over one node population")
		discover = flag.Bool("discover", false,
			"no static roster: nodes gossip their catalogs and resolve session rosters from the swarm")
		announceEvery = flag.Duration("announce-interval", 200*time.Millisecond,
			"discovery announcement period (with -discover)")
		retries  = flag.Int("retries", 0, "alternate-peer retries per failed child slot (0 = per-peer default H)")
		hsTime   = flag.Duration("handshake-timeout", 0, "control/confirm handshake deadline (0 = per-peer default)")
		useUDP   = flag.Bool("udp", false, "run every peer on its own UDP socket (real datagram semantics; default is TCP)")
		useMem   = flag.Bool("mem", false, "run the session on the in-process fabric instead of sockets")
		loss     = flag.Float64("loss", 0, "impairment: drop each datagram with this probability (needs -udp or -mem)")
		burst    = flag.Int("burst", 0, "impairment: drop this many extra datagrams after each loss (bursty loss)")
		dup      = flag.Float64("dup", 0, "impairment: deliver each datagram twice with this probability")
		reorder  = flag.Float64("reorder", 0, "impairment: hold each datagram back behind later traffic with this probability")
		queueCap = flag.Int("queue-cap", 0, "in-process fabric pending-queue capacity (0 = default 4096, negative = unbounded)")
		queuePol = flag.String("queue-policy", "block", "full in-process queue policy: block (backpressure) or drop (newest)")
		listen   = flag.String("listen", "", "serve /metrics, /healthz and /debug/pprof/ on this address (off by default)")
		traceOut = flag.String("trace-out", "",
			"write causal coordination spans (JSONL) to this file; convert with msstrace perfetto/summary")
		flightOut = flag.String("flight-out", "",
			"write the per-peer flight log (JSONL) to this file on exit; inspect with msstrace flight")
	)
	flag.Parse()

	if *useUDP && *useMem {
		fatal(fmt.Errorf("-udp and -mem are mutually exclusive"))
	}
	impair := transport.Impairment{
		Seed: *seed, Loss: *loss, BurstLen: *burst, Duplicate: *dup, Reorder: *reorder,
	}
	if impair.Enabled() && !*useUDP && !*useMem {
		fatal(fmt.Errorf("impairment flags need -udp or -mem (a TCP stream cannot lose frames)"))
	}
	var policy transport.QueuePolicy
	switch *queuePol {
	case "block":
		policy = transport.QueueBlock
	case "drop":
		policy = transport.QueueDropNewest
	default:
		fatal(fmt.Errorf("-queue-policy %q: want block or drop", *queuePol))
	}

	var spanCol *span.Collector
	if *traceOut != "" {
		spanCol = span.NewCollector()
	}

	// Flight recording is on whenever it has a consumer: an explicit
	// -flight-out file, the /debug/flight endpoint, or the SIGUSR1 dump
	// (always armed, so any run can be inspected mid-flight).
	flightSet := flight.NewSet(0)

	// Metrics are registered only when they will be served. The mux is
	// late-bound: the server starts before the population exists and gains
	// its /debug endpoints once it does.
	var reg *metrics.Registry
	var mux *lateMux
	if *listen != "" {
		reg = metrics.New()
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("observability on http://%s/metrics (also /healthz, /debug/vars, /debug/pprof/, /debug/overlay, /debug/flight, /debug/directory)\n", ln.Addr())
		mux = &lateMux{}
		mux.Set(metrics.DebugMux(reg))
		srv := &http.Server{Handler: mux}
		go srv.Serve(ln) //nolint:errcheck // shut down with the process
	}

	wire := wiring{useUDP: *useUDP, useMem: *useMem, impair: impair, queueCap: *queueCap, policy: policy}

	runSessions(*nPeers, *sessions, *fanout, *interval, *size, *pktSize, *rate,
		*kill, *proto, *timeout, *seed, *retries, *hsTime, wire, *discover, *announceEvery,
		reg, mux, flightSet, spanCol, *traceOut, *flightOut)
}

// wiring bundles the transport selection.
type wiring struct {
	useUDP, useMem bool
	impair         transport.Impairment
	queueCap       int
	policy         transport.QueuePolicy
}

// runSessions streams `sessions` distinct contents concurrently over one
// node population, optionally crash-stopping serving nodes mid-stream.
func runSessions(nodes, sessions, fanout, interval, size, pktSize int, rate float64,
	kill int, proto string, timeout time.Duration, seed int64,
	retries int, hsTimeout time.Duration, wire wiring, discover bool,
	announceEvery time.Duration, reg *metrics.Registry,
	mux *lateMux, flightSet *flight.Set,
	spanCol *span.Collector, traceOut, flightOut string) {
	if sessions < 1 || sessions > nodes {
		fatal(fmt.Errorf("-sessions %d: want 1..-peers (%d)", sessions, nodes))
	}
	store := content.NewStore()
	contents := make(map[string][]byte, sessions)
	for i := 0; i < sessions; i++ {
		data := make([]byte, size)
		rand.New(rand.NewSource(seed + int64(i))).Read(data)
		id := fmt.Sprintf("demo%d", i)
		store.Put(content.New(id, data, pktSize))
		contents[id] = data
	}
	nc, err := live.StartNodes(live.NodesConfig{
		Nodes:            nodes,
		Store:            store,
		Discover:         discover,
		AnnounceInterval: announceEvery,
		H:                fanout,
		Interval:         interval,
		Protocol:         proto,
		UseTCP:           !wire.useUDP && !wire.useMem,
		UseUDP:           wire.useUDP,
		Impair:           wire.impair,
		QueueCap:         wire.queueCap,
		QueuePolicy:      wire.policy,
		HandshakeTimeout: hsTimeout,
		Retries:          retries,
		Seed:             seed,
		Obs: engine.Observability{
			Metrics: reg,
			Spans:   spanCol,
			Flight:  flightSet,
		},
	})
	if err != nil {
		fatal(err)
	}
	defer nc.Close()
	if mux != nil {
		mux.Set(metrics.DebugMux(reg, nc.DebugHandlers()...))
	}
	armFlightDump(func() string {
		return dumpIntrospection(flightSet, func(enc *json.Encoder) error {
			all := make(map[string]overlay.Snapshot)
			for _, sid := range nc.Sessions() {
				all[string(sid)] = nc.Snapshot(sid)
			}
			return enc.Encode(all)
		})
	})
	for i, nd := range nc.Nodes {
		fmt.Printf("node %2d listening on %s\n", i, nd.Addr())
	}
	if discover {
		fmt.Printf("discovery: no static roster; nodes announce every %s...\n", announceEvery)
		if err := nc.WaitDiscovery(30 * time.Second); err != nil {
			fatal(err)
		}
		fmt.Println("discovery converged: every node resolved the full swarm (inspect with -listen on /debug/directory)")
	}

	start := time.Now()
	leaves := make([]*live.LeafSession, sessions)
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("demo%d", i)
		ls, err := nc.Open(i, live.SessionConfig{
			ContentID:   id,
			ContentSize: size,
			PacketSize:  pktSize,
			Rate:        rate,
			RepairAfter: 400 * time.Millisecond,
		})
		if err != nil {
			fatal(err)
		}
		leaves[i] = ls
		fmt.Printf("session %q opened on node %d\n", ls.ID, i)
	}

	if kill > 0 {
		go func() {
			time.Sleep(300 * time.Millisecond)
			killed := nc.CrashServing(kill)
			fmt.Printf("!! crash-stopped %d serving node(s)\n", killed)
		}()
	}

	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i, ls := range leaves {
		wg.Add(1)
		go func(i int, ls *live.LeafSession) {
			defer wg.Done()
			errs[i] = ls.Wait(timeout)
		}(i, ls)
	}
	wg.Wait()
	failed := 0
	for i, ls := range leaves {
		if errs[i] != nil {
			fmt.Printf("session %q FAILED: %v\n", ls.ID, errs[i])
			failed++
			continue
		}
		got, ok := ls.Bytes()
		want := contents[fmt.Sprintf("demo%d", i)]
		if !ok || len(got) != len(want) {
			fmt.Printf("session %q reassembly failed\n", ls.ID)
			failed++
			continue
		}
		verified := true
		for k := range got {
			if got[k] != want[k] {
				fmt.Printf("session %q corrupted at byte %d\n", ls.ID, k)
				failed++
				verified = false
				break
			}
		}
		if verified {
			total, dup, recovered := ls.Stats()
			fmt.Printf("session %q complete ✓ (%d arrivals, %d duplicates, %d parity-recovered)\n",
				ls.ID, total, dup, recovered)
		}
	}
	if failed > 0 {
		fatal(fmt.Errorf("%d/%d sessions failed", failed, sessions))
	}
	fmt.Printf("content verified byte-for-byte ✓ (%d session(s) in %v)\n", sessions, time.Since(start).Round(time.Millisecond))
	// Close now (idempotent; the deferred call becomes a no-op) so every
	// open span is finalized before the trace is written.
	nc.Close()
	writeTrace(traceOut, spanCol)
	writeFlight(flightOut, flightSet)
}

// lateMux serves a swappable handler, so the observability server can
// accept scrapes before the population exists and gain its /debug
// endpoints the moment it does.
type lateMux struct {
	mu sync.Mutex
	h  http.Handler
}

func (l *lateMux) Set(h http.Handler) {
	l.mu.Lock()
	l.h = h
	l.mu.Unlock()
}

func (l *lateMux) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.Lock()
	h := l.h
	l.mu.Unlock()
	if h == nil {
		http.Error(w, "session starting", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// armFlightDump makes SIGUSR1 dump the running session's flight log and
// topology snapshot to temp files, printing their paths — mid-flight
// forensics without stopping the stream.
func armFlightDump(dump func() string) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGUSR1)
	go func() {
		for range ch {
			fmt.Printf("SIGUSR1: %s\n", dump())
		}
	}()
}

// dumpIntrospection writes the flight log (JSONL) and a topology
// snapshot (JSON, produced by writeOverlay) to temp files and names
// them. Failures are reported, never fatal.
func dumpIntrospection(flightSet *flight.Set, writeOverlay func(*json.Encoder) error) string {
	var parts []string
	if f, err := os.CreateTemp("", "mssplay-flight-*.jsonl"); err == nil {
		if werr := flight.WriteJSONL(f, flightSet.Events()); werr == nil {
			parts = append(parts, "flight "+f.Name())
		}
		f.Close()
	}
	if f, err := os.CreateTemp("", "mssplay-overlay-*.json"); err == nil {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if werr := writeOverlay(enc); werr == nil {
			parts = append(parts, "overlay "+f.Name())
		}
		f.Close()
	}
	if len(parts) == 0 {
		return "dump failed"
	}
	return "dumped " + strings.Join(parts, ", ")
}

// writeFlight flushes the flight log as JSONL. No-op when -flight-out
// is unset.
func writeFlight(path string, flightSet *flight.Set) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	events := flightSet.Events()
	if err := flight.WriteJSONL(f, events); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("flight log: %d events -> %s (inspect: msstrace flight %s)\n", len(events), path, path)
}

// writeTrace flushes the collected spans as JSONL. No-op when tracing is
// off; the file is written only after the session closed, so dangling
// spans are already finalized.
func writeTrace(path string, col *span.Collector) {
	if path == "" {
		return
	}
	spans := col.Spans()
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := span.WriteJSONL(f, spans); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("causal trace: %d spans -> %s (view: msstrace perfetto %s)\n", len(spans), path, path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mssplay:", err)
	os.Exit(1)
}
