package main

import (
	"strings"

	"p2pmss/internal/parity"
	"p2pmss/internal/transport"
)

// controlTypes are the non-data message types whose handling a session's
// serving peers pay for.
var controlTypes = []string{"request", "control", "confirm", "commit", "repair"}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// sessionTrace gathers what the spans say about one session.
type sessionTrace struct {
	start               int64 // due time of the session span
	firstData, lastData int64
	arrivals            int
	senders             map[int32]bool
	seen                bool // the session span itself was recorded
}

// layers derives the live per-layer numbers from the traced window: the
// Send and Handler wrappers of every node, the Open spans, the leaves'
// own statistics, the queue-wait prober and the direct probes.
func (l *liveWorkload) layers(w window, spans []span) map[string]float64 {
	out := map[string]float64{}
	self := selfTimes(spans)

	var sendData, sendCtl, leafData, openUS []float64
	var sendBusy int64
	peerSelf := map[string][]float64{}
	handled := map[string]int{}
	sessions := map[int32]*sessionTrace{}
	session := func(op int32) *sessionTrace {
		st := sessions[op]
		if st == nil {
			st = &sessionTrace{senders: map[int32]bool{}}
			sessions[op] = st
		}
		return st
	}
	// control→commit, timed where the child receives them.
	type edge struct{ op, child, parent int32 }
	controlAt := map[edge]int64{}
	var controlCommitMS []float64

	for _, sp := range spans {
		switch {
		case sp.Name == spanSession:
			st := session(sp.Op)
			st.start, st.seen = sp.Start, true
		case sp.Name == spanOpen:
			openUS = append(openUS, us(sp.dur()))
		case strings.HasPrefix(sp.Name, sendPrefix):
			sendBusy += sp.dur()
			if sp.Name == sendPrefix+dataType {
				sendData = append(sendData, us(sp.dur()))
				if sp.Op >= 0 {
					session(sp.Op).senders[sp.Node] = true
				}
			} else {
				sendCtl = append(sendCtl, us(sp.dur()))
			}
		case strings.HasPrefix(sp.Name, handlePrefix):
			typ := sp.Name[len(handlePrefix):]
			if typ == dataType {
				leafData = append(leafData, us(sp.dur()))
				if sp.Op >= 0 {
					st := session(sp.Op)
					if st.arrivals == 0 {
						st.firstData = sp.Start
					}
					st.lastData = sp.Start
					st.arrivals++
				}
				continue
			}
			handled[typ]++
			peerSelf[typ] = append(peerSelf[typ], us(self[sp.ID]))
			e := edge{sp.Op, sp.Node, sp.Peer}
			switch typ {
			case "control":
				if _, dup := controlAt[e]; !dup {
					controlAt[e] = sp.Start
				}
			case "commit":
				if t0, ok := controlAt[e]; ok {
					controlCommitMS = append(controlCommitMS, float64(sp.Start-t0)/1e6)
				}
			}
		}
	}

	// transport, seen from the Send wrapper.
	out["transport.send_calls"] = float64(len(sendData) + len(sendCtl))
	out["transport.send_busy_s"] = float64(sendBusy) / 1e9
	out["transport.send_data_mean_us"] = mean(sendData)
	out["transport.send_data_p95_us"] = quantile(sortedCopy(sendData), 0.95)
	out["transport.send_ctl_mean_us"] = mean(sendCtl)
	var sendErrors, dataBytes int64
	var captured *transport.Msg
	for _, ln := range l.nodes {
		sendErrors += ln.trace.sendErrors.Load()
		dataBytes += ln.trace.dataBytes.Load()
		if captured == nil {
			captured = ln.trace.firstData.Load()
		}
	}
	out["transport.send_errors"] = float64(sendErrors)
	if len(sendData) > 0 {
		out["transport.wire_bytes_per_pkt"] = float64(dataBytes) / float64(len(sendData))
	}
	if l.fabric != nil {
		out["transport.queue_drops"] = float64(l.fabric.QueueDrops())
	}
	for _, im := range l.impairers {
		st := im.Stats()
		out["transport.impair_dropped"] += float64(st.Dropped)
		out["transport.impair_reordered"] += float64(st.Held)
	}
	waits := l.probe.waits()
	out["transport.probe_wait_p50_us"] = quantile(waits, 0.50)
	out["transport.probe_wait_p95_us"] = quantile(waits, 0.95)

	// live control plane: handler self time is the span minus the control
	// sends it issued.
	out["live.open_call_p50_us"] = quantile(sortedCopy(openUS), 0.50)
	var peerBusyUS float64
	n := float64(max(1, l.sessions))
	for _, typ := range controlTypes {
		out["live.peer_handle_"+typ+"_mean_us"] = mean(peerSelf[typ])
		out["live."+typ+"_per_session"] = float64(handled[typ]) / n
		peerBusyUS += sum(peerSelf[typ])
	}
	out["live.peer_busy_s"] = peerBusyUS / 1e6
	cc := sortedCopy(controlCommitMS)
	out["live.control_commit_p50_ms"] = quantile(cc, 0.50)
	out["live.control_commit_p95_ms"] = quantile(cc, 0.95)

	// live data plane: only leaves receive data, and handling it never
	// sends, so the span is all self time.
	out["live.leaf_handle_data_mean_us"] = mean(leafData)
	out["live.leaf_handle_data_p95_us"] = quantile(sortedCopy(leafData), 0.95)
	out["live.leaf_busy_s"] = sum(leafData) / 1e6

	ideal := parity.ReceiptRate(l.spec.rate, liveInterval)
	var ttfpMS, rateRatio, activePeers []float64
	for _, st := range sessions {
		if !st.seen {
			continue // began in the untraced slice or is a warm-up
		}
		activePeers = append(activePeers, float64(len(st.senders)))
		if st.arrivals > 0 {
			ttfpMS = append(ttfpMS, float64(st.firstData-st.start)/1e6)
		}
		if st.arrivals > 1 && st.lastData > st.firstData {
			rate := float64(st.arrivals-1) / (float64(st.lastData-st.firstData) / 1e9)
			rateRatio = append(rateRatio, rate/ideal)
		}
	}
	out["live.active_peers_per_session"] = mean(activePeers)
	tt := sortedCopy(ttfpMS)
	out["live.ttfp_p50_ms"] = quantile(tt, 0.50)
	out["live.ttfp_p95_ms"] = quantile(tt, 0.95)
	out["live.ttfp_p99_ms"] = quantile(tt, 0.99)
	out["live.receipt_rate_ratio"] = median(rateRatio)
	ops := sortedCopy(w.opMS)
	out["live.session_p95_ms"] = quantile(ops, 0.95)
	out["live.session_p99_ms"] = quantile(ops, 0.99)

	// what the leaves say they received.
	if l.leafTotal > 0 {
		wanted := float64(l.sessions) * float64((len(l.data[0])+l.spec.packetSize-1)/l.spec.packetSize)
		out["live.leaf_useful_ratio"] = wanted / float64(l.leafTotal)
		out["live.leaf_dup_share"] = float64(l.leafDup) / float64(l.leafTotal)
		out["live.leaf_recovered_share"] = float64(l.leafRecovered) / wanted
		out["live.data_per_session"] = float64(l.leafTotal) / float64(l.sessions)
	}
	if wall := w.wall(); wall > 0 {
		out["live.goodput_mbps"] = w.units * float64(l.spec.packetSize) * 8 / 1e6 / wall
	}

	probeLive(probe{l.scale}, l, captured, out)
	return out
}
