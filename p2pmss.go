// Package p2pmss is a reproduction of "Distributed Coordination Protocols
// to Realize Scalable Multimedia Streaming in Peer-to-Peer Overlay
// Networks" (Itaya, Hayashibara, Enokido, Takizawa — ICPP 2006).
//
// The paper's multi-source streaming (MSS) model has a set of contents
// peers CP_1..CP_n jointly stream one content to a leaf peer: each sends
// a disjoint division of the parity-enhanced packet sequence, and two
// flooding-based coordination protocols — the redundant DCoP and the
// tree-based TCoP — activate the peers without a central controller.
//
// The package exposes three layers:
//
//   - Simulation: Simulate runs any of the five coordination protocols
//     (DCoP, TCoP, and the broadcast / unicast / centralized baselines of
//     §3.1) on a deterministic discrete-event simulator and reports
//     rounds, control packets, synchronization time and leaf receipt
//     rate.
//
//   - Experiments: Figure10, Figure11, Figure12 and Baselines regenerate
//     the paper's evaluation (§4) as printable tables and CSV.
//
//   - Live streaming: StartLiveNodes runs the same protocols on
//     goroutines over an in-memory fabric, TCP or UDP loopback; each
//     LiveNodeCluster.Open streams one content's real bytes to a leaf
//     with parity recovery and repair.
//
// A quickstart:
//
//	cfg := p2pmss.DefaultSimConfig()
//	cfg.H = 60
//	res, err := p2pmss.Simulate(p2pmss.DCoP, cfg)
//	// res.Rounds, res.ControlPackets, ...
//
// See the examples/ directory for runnable programs and DESIGN.md for the
// system inventory and the per-experiment index.
package p2pmss

import (
	"io"
	"net/http"

	"p2pmss/internal/content"
	"p2pmss/internal/coord"
	"p2pmss/internal/engine"
	"p2pmss/internal/experiment"
	"p2pmss/internal/flight"
	"p2pmss/internal/live"
	"p2pmss/internal/metrics"
	"p2pmss/internal/overlay"
	"p2pmss/internal/schedule"
	"p2pmss/internal/span"
	"p2pmss/internal/transport"
)

// Protocol identifies a coordination protocol by name. One shared set of
// values is accepted by every layer: Simulate (all six) and the live
// runtime (DCoP, TCoP).
type Protocol = engine.Protocol

// Coordination protocol names accepted by Simulate; DCoP and TCoP are
// also the live runtime's protocols.
const (
	// DCoP is the paper's redundant distributed coordination protocol
	// (§3.4): flooding where a peer may be selected by multiple parents.
	DCoP = coord.DCoP
	// TCoP is the non-redundant tree-based coordination protocol (§3.5):
	// a three-round handshake gives every peer at most one parent.
	TCoP = coord.TCoP
	// Broadcast is the §3.1 baseline where the leaf contacts all n peers
	// and peers exchange state in a group communication.
	Broadcast = coord.Broadcast
	// Unicast is the §3.1 chain baseline: one peer informs the next.
	Unicast = coord.Unicast
	// Centralized is the 2PC-style controller protocol of reference [5].
	Centralized = coord.Centralized
	// AMS is the asynchronous multi-source streaming precursor of the
	// paper's references [3–5]: asynchronous start plus periodic
	// all-to-all state exchange over causal group communication.
	AMS = coord.AMS
)

// Protocols lists every implemented coordination protocol.
var Protocols = coord.Protocols

// SimConfig parameterizes a simulated coordination/streaming run. See
// the field documentation for the paper mapping (n, H, h, τ, δ, ρ_s).
type SimConfig = coord.Config

// SimResult carries the metrics of a simulated run.
type SimResult = coord.Result

// PeerID identifies a contents peer in a simulation (0..N-1).
type PeerID = overlay.PeerID

// ChurnSchedule is a simulated run's crash and rejoin schedule
// (SimConfig.Churn), its events run in order.
type ChurnSchedule = coord.ChurnSchedule

// ChurnEvent is one crash or rejoin of a ChurnSchedule.
type ChurnEvent = coord.ChurnEvent

// BurstParams parameterizes the Gilbert–Elliott bursty loss model (§3.2's
// bursty loss), the one burst model of the simulator's links
// (SimConfig.Burst) and the live transports' impairment.
type BurstParams = transport.BurstParams

// DataPlaneMode selects how a simulated run's data plane is executed:
// one DES event per packet (PlanePacket, the default) or closed-form
// per-flow rate arithmetic (PlaneFluid), which makes sweeps up to
// n = 10⁵ peers tractable. See SimConfig.PlaneMode and DESIGN.md §11.
type DataPlaneMode = coord.DataPlaneMode

// Data-plane modes accepted by SimConfig.PlaneMode and
// ExperimentOptions.PlaneMode.
const (
	PlanePacket = coord.PlanePacket
	PlaneFluid  = coord.PlaneFluid
)

// ---- observability --------------------------------------------------------

// Observability bundles every optional observer a run can attach —
// metrics registry, span collector + trace ID, and flight recorder set
// (the event log cmd/msstrace renders) — in one struct accepted by both
// the simulation (SimConfig.Obs) and the live runtime
// (LiveNodesConfig.Obs). The zero value attaches nothing.
type Observability = engine.Observability

// ---- metrics --------------------------------------------------------------

// MetricsRegistry is a concurrency-safe registry of named counters,
// gauges and histograms. A nil registry disables all instrumentation at
// near-zero cost, so Observability.Metrics can be left unset in the
// common case.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.New() }

// DebugHandler is an extra endpoint to mount on MetricsDebugMux, e.g.
// a live population's /debug/overlay and /debug/flight handlers.
type DebugHandler = metrics.DebugHandler

// MetricsDebugMux returns an http.Handler serving the registry's
// Prometheus text on /metrics plus /healthz, expvar on /debug/vars and
// net/http/pprof on /debug/pprof/. Extra handlers (e.g.
// LiveNodeCluster.DebugHandlers) are mounted after the built-ins.
func MetricsDebugMux(r *MetricsRegistry, extras ...DebugHandler) http.Handler {
	return metrics.DebugMux(r, extras...)
}

// DefaultSimConfig returns the paper's evaluation setting (n = 100
// contents peers, reliable links, δ = 1).
func DefaultSimConfig() SimConfig { return coord.DefaultConfig() }

// Simulate runs the named protocol under cfg on the discrete-event
// simulator and returns its metrics.
func Simulate(proto Protocol, cfg SimConfig) (SimResult, error) {
	return coord.Run(proto, cfg)
}

// ---- experiments ---------------------------------------------------------

// ExperimentOptions parameterizes the figure sweeps.
type ExperimentOptions = experiment.Options

// Series is one protocol's sweep over H.
type Series = experiment.Series

// BaselineRow is one protocol's entry in the baseline comparison table.
type BaselineRow = experiment.BaselineRow

// DefaultExperimentOptions returns the paper-scale sweep (n = 100,
// H ∈ {2..100}, 5 seeds).
func DefaultExperimentOptions() ExperimentOptions { return experiment.DefaultOptions() }

// Figure10 regenerates "Rounds and number of control packets in DCoP".
func Figure10(o ExperimentOptions) (Series, error) { return experiment.Figure10(o) }

// Figure11 regenerates "Rounds and number of control packets in TCoP".
func Figure11(o ExperimentOptions) (Series, error) { return experiment.Figure11(o) }

// Figure12 regenerates "Receipt rate of leaf peer" for DCoP and TCoP.
func Figure12(o ExperimentOptions) (dcop, tcop Series, err error) { return experiment.Figure12(o) }

// Baselines compares every coordination protocol at fanout H.
func Baselines(o ExperimentOptions, H int) ([]BaselineRow, error) { return experiment.Baselines(o, H) }

// PrintSeries writes a sweep as an aligned table.
func PrintSeries(w io.Writer, title string, s Series) { experiment.FprintSeries(w, title, s) }

// PrintRateSeries writes a Figure 12 pair as an aligned table.
func PrintRateSeries(w io.Writer, title string, dcop, tcop Series) {
	experiment.FprintRateSeries(w, title, dcop, tcop)
}

// PrintBaselines writes the baseline comparison as an aligned table.
func PrintBaselines(w io.Writer, title string, rows []BaselineRow) {
	experiment.FprintBaselines(w, title, rows)
}

// SeriesCSV renders a sweep as CSV.
func SeriesCSV(s Series) string { return experiment.SeriesCSV(s) }

// ---- causal span tracing --------------------------------------------------

// SpanCollector accumulates causal coordination spans (handshake rounds,
// confirmation waves, commits, hand-offs, streaming intervals, stalls)
// concurrently, attachable as Observability.Spans; a nil collector is
// the disabled state, costing nothing on the engine's hot path.
type SpanCollector = span.Collector

// NewSpanCollector returns an empty span collector.
func NewSpanCollector() *SpanCollector { return span.NewCollector() }

// ---- heterogeneous scheduling (§2) ----------------------------------------

// Channel models a logical channel CC_i with slot length τ_i.
type Channel = schedule.Channel

// Allocation is the result of allocating packets to channels.
type Allocation = schedule.Allocation

// Allocator allocates packets incrementally and supports mid-stream
// bandwidth changes (the paper's §5 heterogeneous extension).
type Allocator = schedule.Allocator

// Allocate assigns packets t_1..t_l to channels with the paper's §2
// algorithm (earliest-finishing initial slot, largest start time).
func Allocate(l int, channels []Channel) Allocation { return schedule.Allocate(l, channels) }

// NewAllocator returns an incremental allocator over the channels.
func NewAllocator(channels []Channel) *Allocator { return schedule.NewAllocator(channels) }

// ProportionalChannels builds channels realizing relative bandwidths
// (e.g. 4:2:1 as in the paper's Figure 1).
func ProportionalChannels(bandwidths ...float64) []Channel {
	return schedule.ProportionalChannels(bandwidths...)
}

// ---- live streaming -------------------------------------------------------

// Content is a multimedia content decomposed into packets (§2).
type Content = content.Content

// NewContent wraps data as a content with the given packet size.
func NewContent(id string, data []byte, packetSize int) *Content {
	return content.New(id, data, packetSize)
}

// Assembler reassembles a content at a leaf from packet arrivals.
type Assembler = content.Assembler

// NewAssembler prepares reassembly of a content of size bytes split into
// packetSize-byte packets.
func NewAssembler(size, packetSize int) *Assembler { return content.NewAssembler(size, packetSize) }

// TransportQueuePolicy selects what the population's bounded in-memory
// fabric does with a send arriving while its queue is full.
type TransportQueuePolicy = transport.QueuePolicy

// Full-queue policies for LiveNodesConfig.QueuePolicy.
const (
	// QueueBlock applies backpressure: the sender waits for a free slot.
	QueueBlock = transport.QueueBlock
	// QueueDropNewest drops the arriving message and counts it.
	QueueDropNewest = transport.QueueDropNewest
)

// TransportImpairment is a seeded loss/duplication/reordering policy for
// a population's in-memory fabric or UDP sockets (LiveNodesConfig.Impair);
// the zero value disables everything.
type TransportImpairment = transport.Impairment

// ContentStore is a peer's catalog of contents, keyed by ID.
type ContentStore = content.Store

// NewContentStore returns an empty content catalog.
func NewContentStore() *ContentStore { return content.NewStore() }

// ---- session-oriented live nodes ------------------------------------------

// LiveSessionConfig describes one leaf session a node opens.
type LiveSessionConfig = live.SessionConfig

// LiveLeafSession is a leaf session hosted on a node.
type LiveLeafSession = live.LeafSession

// LiveNodeCluster is a running node population created by StartLiveNodes.
type LiveNodeCluster = live.NodeCluster

// LiveNodesConfig wires a node population in one call.
type LiveNodesConfig = live.NodesConfig

// Networks for LiveNodesConfig.Network.
const (
	// LiveFabric, the default, runs the nodes on the in-memory fabric.
	LiveFabric = live.Fabric
	// LiveTCP gives every node its own TCP loopback socket.
	LiveTCP = live.TCP
	// LiveUDP gives every node its own UDP loopback socket.
	LiveUDP = live.UDP
)

// StartLiveNodes builds a node population ready to open sessions.
func StartLiveNodes(cfg LiveNodesConfig) (*LiveNodeCluster, error) {
	return live.StartNodes(cfg)
}

// FlightSet is a population of per-peer flight recorders sharing one
// capacity, attachable as Observability.Flight.
type FlightSet = flight.Set

// NewFlightSet returns a recorder population holding up to perPeerCap
// events per peer (0 picks the 512-event default).
func NewFlightSet(perPeerCap int) *FlightSet { return flight.NewSet(perPeerCap) }
