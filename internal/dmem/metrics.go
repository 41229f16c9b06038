package dmem

import (
	"fmt"

	"afmm/internal/metrics"
)

// Live series for the distributed runtime, registered when a recorder
// with an enabled registry is attached (SetRecorder). Per-node busy and
// comm distributions are labeled by node id; the totals and gauges are
// cluster-wide.
type dmemMetrics struct {
	reg        *metrics.Registry
	nodes      metrics.Gauge
	imbalance  metrics.Gauge
	hiddenFrac metrics.Gauge
	reparts    metrics.Counter
	losses     metrics.Counter
	bytes      metrics.Counter
	msgs       metrics.Counter
	ghosts     metrics.Counter
	busy       []metrics.Histogram
	comm       []metrics.Histogram

	// Link-layer series: delivery-protocol counters, per-link RTT
	// histograms (lazily created as links first carry traffic), and the
	// failure detector's per-node suspicion gauges.
	retries       metrics.Counter
	dropped       metrics.Counter
	corrupt       metrics.Counter
	netTimeouts   metrics.Counter
	rerequests    metrics.Counter
	degraded      metrics.Counter
	detectLatency metrics.Histogram
	linkRTT       map[[2]int]metrics.Histogram
	suspicion     []metrics.Gauge
}

// rttBuckets spans 1µs..~32ms doubling — frame round trips live at
// microsecond scale, far below DefBuckets' 250µs floor resolution.
func rttBuckets() []float64 {
	b := make([]float64, 16)
	v := 1e-6
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}

func newDmemMetrics(reg *metrics.Registry, p int) *dmemMetrics {
	m := &dmemMetrics{
		reg: reg,
		nodes: reg.Gauge("afmm_dmem_nodes",
			"Alive virtual cluster nodes."),
		imbalance: reg.Gauge("afmm_dmem_imbalance",
			"Max/mean per-node compute time over alive nodes."),
		hiddenFrac: reg.Gauge("afmm_dmem_hidden_comm_frac",
			"Fraction of communication time hidden under local near-field work."),
		reparts: reg.Counter("afmm_dmem_repartitions_total",
			"Cost-driven ownership repartitions applied."),
		losses: reg.Counter("afmm_dmem_node_losses_total",
			"Virtual node fail-stop losses absorbed."),
		bytes: reg.Counter("afmm_dmem_bytes_on_wire_total",
			"Modeled bytes moved across the interconnect."),
		msgs: reg.Counter("afmm_dmem_messages_total",
			"Aggregated peer-to-peer messages delivered."),
		ghosts: reg.Counter("afmm_dmem_ghost_leaves_total",
			"Source leaves shipped as ghost bodies (near-field neighbours and directly summed accepted leaves)."),
		retries: reg.Counter("afmm_dmem_retries_total",
			"Frame retransmissions after ack timeout or nack."),
		dropped: reg.Counter("afmm_dmem_frames_dropped_total",
			"Frames lost on the injected lossy links."),
		corrupt: reg.Counter("afmm_dmem_corrupt_rejects_total",
			"Frames rejected by receiver checksum and nacked."),
		netTimeouts: reg.Counter("afmm_dmem_net_timeouts_total",
			"Flow receives that exhausted their phase deadline."),
		rerequests: reg.Counter("afmm_dmem_rerequests_total",
			"Expansion flows recovered by explicit re-request."),
		degraded: reg.Counter("afmm_dmem_degraded_flows_total",
			"Ghost flows recovered by host-side re-execution."),
		detectLatency: reg.Histogram("afmm_dmem_detect_latency_seconds",
			"Heartbeat failure-detector latency per node loss.",
			metrics.DefBuckets()),
		linkRTT: make(map[[2]int]metrics.Histogram),
	}
	buckets := metrics.DefBuckets()
	m.busy = make([]metrics.Histogram, p)
	m.comm = make([]metrics.Histogram, p)
	m.suspicion = make([]metrics.Gauge, p)
	for k := 0; k < p; k++ {
		node := fmt.Sprint(k)
		m.busy[k] = reg.Histogram("afmm_dmem_node_busy_seconds",
			"Per-node modeled compute time per step.", buckets, "node", node)
		m.comm[k] = reg.Histogram("afmm_dmem_node_comm_seconds",
			"Per-node modeled communication time per step.", buckets, "node", node)
		m.suspicion[k] = reg.Gauge("afmm_dmem_suspicion",
			"Failure-detector suspicion level per node (>=1 means dead).",
			"node", node)
	}
	return m
}

// observe records one step's report into the live series.
func (m *dmemMetrics) observe(rep *StepReport, alive []bool) {
	if m == nil {
		return
	}
	n := 0
	for _, a := range alive {
		if a {
			n++
		}
	}
	m.nodes.Set(float64(n))
	m.imbalance.Set(rep.Imbalance)
	var comm, hidden float64
	for k := range rep.PerNode {
		if !alive[k] {
			continue
		}
		nt := &rep.PerNode[k]
		m.busy[k].Observe(nt.Compute)
		m.comm[k].Observe(nt.CommTime)
		comm += nt.CommTime
		hidden += nt.Hidden
	}
	if comm > 0 {
		m.hiddenFrac.Set(hidden / comm)
	}
	m.bytes.Add(rep.TotalBytes)
	m.msgs.Add(rep.TotalMsgs)
	m.ghosts.Add(rep.GhostLeaves)
}

// observeNet folds one step's link-layer counters into the live series.
// The per-step NetStats are deltas (each step runs its own transport), so
// they feed the counters directly.
func (m *dmemMetrics) observeNet(net *NetStats) {
	if m == nil || net == nil {
		return
	}
	m.retries.Add(net.Retries)
	m.dropped.Add(net.FramesDropped)
	m.corrupt.Add(net.CorruptRejects)
	m.netTimeouts.Add(net.Timeouts)
	m.rerequests.Add(net.Rerequests)
	m.degraded.Add(net.DegradedGhostFlows)
	for _, ls := range net.PerLink {
		if ls.RTTCount == 0 {
			continue
		}
		key := [2]int{ls.From, ls.To}
		h, ok := m.linkRTT[key]
		if !ok {
			h = m.reg.Histogram("afmm_dmem_link_rtt_seconds",
				"Frame round-trip time per directed link.", rttBuckets(),
				"link", fmt.Sprintf("%d-%d", ls.From, ls.To))
			m.linkRTT[key] = h
		}
		// One observation at the step's mean RTT per delivered frame keeps
		// the histogram's count meaningful without per-frame plumbing.
		mean := float64(ls.RTTNs) / float64(ls.RTTCount) / 1e9
		for i := int64(0); i < ls.RTTCount; i++ {
			h.Observe(mean)
		}
	}
}

// setSuspicion publishes the failure detector's current view of node k.
// Dead nodes pin at 1 so the gauge does not grow without bound.
func (m *dmemMetrics) setSuspicion(k int, v float64, alive bool) {
	if m == nil || k >= len(m.suspicion) {
		return
	}
	if !alive || v > 1 {
		v = 1
	}
	m.suspicion[k].Set(v)
}
