// Package dmem extends the single-node heterogeneous AFMM to a simulated
// distributed-memory cluster — the extension the paper anticipates in §II
// ("we expect the method can be extended to a distributed memory cluster
// using techniques such as those in [13, 9]").
//
// The model follows the classical partitioned-tree design of Lashuk et al.
// [13]: bodies are ordered by the adaptive tree's DFS (space-filling)
// order and split into contiguous ranges, one per virtual node; every node
// owns the visible tree cells whose bodies start inside its range. A cell
// interaction is computed by the owner of the *target* cell; source data
// owned elsewhere must be communicated first:
//
//   - a translated V-list (M2L) source cell owned remotely ships its
//     multipole expansion — the locally essential tree exchange;
//   - a near-field (P2P) source leaf owned remotely — a U-list neighbour, or
//     an accepted leaf the tree's Direct predicate sums directly — ships
//     its bodies: the ghost-particle exchange.
//
// Every step executes as one step graph (Runtime): the nodes' shares of
// it, joined by the plan's flows, the essential set — a ghost leaf's bodies
// stand in for its multipole, which the receiver forms itself. The
// measured volumes go to an alpha-beta network model. Per-node compute
// times come from the single-node machine's own models: the far-field
// graph restricted to the node's cells, and the node's rows split over its
// devices by interaction count. Every cell is computed wholly by one node
// through the shared-memory solver's own operators, so distributed results
// are bit-identical to single-node results.
package dmem

import (
	"fmt"
	"math"
	"slices"

	"afmm/internal/core"
	"afmm/internal/costmodel"
	"afmm/internal/fault"
	"afmm/internal/particle"
	"afmm/internal/sim"
	"afmm/internal/sphharm"
	"afmm/internal/telemetry"
	"afmm/internal/vcpu"
	"afmm/internal/vgpu"
)

// NetworkSpec is the alpha-beta communication model of the interconnect.
type NetworkSpec struct {
	// Latency per aggregated peer-to-peer message, seconds.
	Latency float64
	// Bandwidth in bytes/second per node.
	Bandwidth float64
	// BytesPerBody transferred for one ghost particle.
	BytesPerBody int
}

// DefaultNetwork models a commodity cluster interconnect (~2 us latency,
// ~5 GB/s effective per node).
func DefaultNetwork() NetworkSpec {
	return NetworkSpec{Latency: 2e-6, Bandwidth: 5e9, BytesPerBody: 32}
}

// NodeSpec is one virtual compute node: a CPU plus an optional device
// cluster, identical in kind to the single-node machine.
type NodeSpec struct {
	CPU     vcpu.Spec
	GPUs    int
	GPUSpec vgpu.Spec
}

// Config assembles a distributed solver.
type Config struct {
	// Core configures the underlying (numerically authoritative) solver.
	Core core.Config
	// Nodes describes each cluster node. Homogeneous clusters can use
	// HomogeneousNodes.
	Nodes []NodeSpec
	// Net is the interconnect model.
	Net NetworkSpec
	// Execute is accepted and ignored: every step runs the partitioned
	// tree (Runtime). The field survives only because
	// benchmark/workloads.go, which a non-benchmark change may not edit,
	// sets it in keyed literals; no code reads it, and the next benchmark
	// change drops it.
	Execute bool
	// NodeFaults injects node-level fail-stop events into RunWith
	// (parse specs like "node2:failstop@step12" with
	// fault.ParseNodeEvents). The event only silences the node's
	// heartbeat; the heartbeat detector finds the loss on the modeled
	// clock, then the node's range is repartitioned over the survivors
	// and the capacity epoch advances.
	NodeFaults []fault.NodeEvent
	// LinkFaults injects per-link chaos into the runtime's transport
	// (parse specs like "link0-2:drop0.05@step3" with
	// fault.ParseLinkEvents, or mixed node+link specs with
	// fault.ParseClusterEvents). Any schedule — within or beyond the
	// retry budget — leaves results bit-identical to the fault-free
	// single-node run; faults cost frames and modeled time only, and the
	// same schedule and seed replay the same counts and times.
	LinkFaults *fault.LinkSchedule
	// LinkSeed seeds the deterministic per-frame and per-beat fault
	// verdicts.
	LinkSeed int64
}

// HomogeneousNodes returns n identical node specs.
func HomogeneousNodes(n int, spec NodeSpec) []NodeSpec {
	out := make([]NodeSpec, n)
	for i := range out {
		out[i] = spec
	}
	return out
}

// NodeTimes is one node's share of a step.
type NodeTimes struct {
	Compute  float64 // max(local CPU far field, local GPU near field)
	CPUTime  float64
	GPUTime  float64
	CommTime float64
	// Hidden is the part of CommTime overlapped with local-source near
	// field work (min(CommTime, local near time) — the halo-hiding
	// schedule executes local P2P rows while remote data is in flight).
	Hidden float64
	// BytesIn and Messages are the measured payload bytes (expansion
	// coefficients at 16 bytes/complex, ghost bodies at
	// NetworkSpec.BytesPerBody) and messages received, one per
	// sender/kind/level flow.
	BytesIn  int64
	Messages int64
	Bodies   int     // bodies owned
	OpShare  float64 // fraction of the global op cost owned
}

// StepReport summarizes a distributed step.
type StepReport struct {
	PerNode []NodeTimes
	// StepTime is the slowest alive node's compute + unhidden comm.
	StepTime float64
	// Imbalance is max node compute over mean node compute (alive nodes).
	Imbalance float64
	// TotalBytes moved across the interconnect.
	TotalBytes int64
	// TotalMsgs is the aggregated peer-to-peer message count.
	TotalMsgs int64
	// AliveNodes is the number of nodes that participated.
	AliveNodes int
	// CapacityEpoch advances whenever the cluster topology changes (node
	// loss); per-node capacity estimates re-derive from 1 afterwards.
	CapacityEpoch int64
	// Net is the step's link-layer delivery activity.
	Net telemetry.NetSample
	// GhostLeaves counts the (receiver, source leaf) ghost-body shipments
	// of the step's exchange plan: U-list neighbours plus the accepted
	// leaves summed directly.
	GhostLeaves int64
	// GraphNodes and GraphEdges size the step graph: every node's share,
	// unpacks, P2Ms and sends, and one edge per flow joining them.
	GraphNodes, GraphEdges int
}

// Solver runs the AFMM on a simulated cluster.
type Solver struct {
	Cfg   Config
	Inner *core.Solver
	// cuts[i] is the first body index owned by node i; cuts has length
	// len(Nodes)+1 with cuts[0]=0 and cuts[last]=N.
	cuts []int32
	// costWeights from the last step's observed coefficients drive
	// Rebalance.
	lastLeafCost []float64
	lastLeaves   []int32

	// alive[k] is false once node k fail-stopped; caps[k] is node k's
	// capacity estimate (EWMA of observed throughput, mean-1 normalized
	// over alive nodes), reset to 1 whenever capEpoch advances.
	alive    []bool
	caps     []float64
	capEpoch int64

	// clusters[k] is GPU node k's device cluster (nil on a CPU-only
	// node): the model splits the node's near-field rows over it.
	clusters []*vgpu.Cluster
	// rt executes the partitioned tree.
	rt *Runtime
	// stepIdx is the next Solve's step index into the link-fault
	// schedule (RunWith pins it to the run step).
	stepIdx int
}

// NewSolver builds the distributed gravity solver over sys.
func NewSolver(sys *particle.System, cfg Config) (*Solver, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("dmem: no nodes configured")
	}
	if cfg.Core.P > sphharm.MaxOrder {
		return nil, fmt.Errorf("dmem: expansion order %d above the supported %d", cfg.Core.P, sphharm.MaxOrder)
	}
	for _, ev := range cfg.NodeFaults {
		if ev.Node < 0 || ev.Node >= len(cfg.Nodes) {
			return nil, fmt.Errorf("dmem: fault for unknown node %d", ev.Node)
		}
	}
	if cfg.LinkFaults.Faulty() {
		for _, ev := range cfg.LinkFaults.Events {
			if ev.From >= len(cfg.Nodes) || ev.To >= len(cfg.Nodes) {
				return nil, fmt.Errorf("dmem: link fault for unknown link %d-%d", ev.From, ev.To)
			}
		}
	}
	return newOver(core.NewSolver(sys, cfg.Core), cfg), nil
}

// newOver distributes whatever single-node solver it is given (cfg.Core is
// not read): the field the node engines copy is inner's, gravity or
// Stokes. The node specs are defaulted on a copy, and the body partition
// starts as an equal-count split of the tree-ordered bodies.
func newOver(inner *core.Solver, cfg Config) *Solver {
	if cfg.Net.Bandwidth == 0 {
		cfg.Net = DefaultNetwork()
	}
	p := len(cfg.Nodes)
	cfg.Nodes = slices.Clone(cfg.Nodes)
	s := &Solver{Cfg: cfg, Inner: inner}
	s.alive = make([]bool, p)
	s.caps = make([]float64, p)
	s.clusters = make([]*vgpu.Cluster, p)
	for k := 0; k < p; k++ {
		s.alive[k] = true
		s.caps[k] = 1
		n := &s.Cfg.Nodes[k]
		n.CPU = n.CPU.Normalized()
		if n.GPUs > 0 {
			if n.GPUSpec.SMs == 0 {
				n.GPUSpec = vgpu.DefaultSpec()
			}
			s.clusters[k] = vgpu.NewCluster(n.GPUs, n.GPUSpec)
		}
	}
	s.equalCountCuts()
	s.rt = newRuntime(inner, &s.Cfg)
	return s
}

// SetRecorder attaches a telemetry recorder: one span per node and step
// lands on the dmem track — the union of its graph nodes' wall intervals —
// and every step carries its link-layer sample.
func (s *Solver) SetRecorder(rec *telemetry.Recorder) { s.Inner.SetRecorder(rec) }

// Alive reports which nodes are still participating.
func (s *Solver) Alive() []bool { return append([]bool(nil), s.alive...) }

// CapacityEpoch returns the current topology epoch (advances on node
// loss).
func (s *Solver) CapacityEpoch() int64 { return s.capEpoch }

// Cuts exposes the current ownership boundaries (body indices).
func (s *Solver) Cuts() []int32 { return append([]int32(nil), s.cuts...) }

func (s *Solver) equalCountCuts() {
	p := len(s.Cfg.Nodes)
	n := s.Inner.Sys.Len()
	s.cuts = make([]int32, p+1)
	for i := 0; i <= p; i++ {
		s.cuts[i] = int32(i * n / p)
	}
}

// Solve runs one distributed step over the leaf-aligned cuts: the nodes'
// shares of the step graph produce the accumulators themselves — the inner
// solver's numerics never run — and the model is attributed over what they
// measured. The step index feeds the link-fault schedule; bare Solve calls
// advance it monotonically, and RunWith pins it to the run step.
func (s *Solver) Solve() StepReport {
	s.alignCuts()
	rep := s.rt.Step(s.cuts, s.alive, s.stepIdx)
	s.stepIdx++
	s.attribute(&rep)
	rep.AliveNodes = s.aliveCount()
	rep.CapacityEpoch = s.capEpoch
	return rep
}

func (s *Solver) aliveCount() int {
	n := 0
	for _, a := range s.alive {
		if a {
			n++
		}
	}
	return n
}

// alignCuts snaps every interior ownership cut to the nearest visible
// leaf End (monotonicity enforced), so a range owner always owns whole
// leaves — the invariant the exchange plan and the near-field row
// attribution rely on.
func (s *Solver) alignCuts() {
	t := s.Inner.Tree
	p := len(s.Cfg.Nodes)
	s.cuts[0] = 0
	for k := 1; k < p; k++ {
		c := t.SnapToLeafEnd(s.cuts[k])
		if c < s.cuts[k-1] {
			c = s.cuts[k-1]
		}
		s.cuts[k] = c
	}
	s.cuts[p] = int32(s.Inner.Sys.Len())
}

// attribute completes the step's report, which carries its measured
// exchange volumes, with the model: compute times, comm times and halo
// hiding.
func (s *Solver) attribute(rep *StepReport) {
	t := s.Inner.Tree
	p := len(s.Cfg.Nodes)
	sch := t.NearField()
	owner := cellOwners(t, s.cuts)

	// Per-node far-field graphs: the single-node graph restricted to each
	// node's cells. Cross-node tree dependencies are carried by the
	// exchange, so each graph keeps only intra-node precedence.
	bases := make([]costmodel.Coefficients, p)
	for k := range bases {
		bases[k] = s.Cfg.Nodes[k].CPU.Base
	}
	graphs := vcpu.BuildNodeGraphs(t, bases, owner, vcpu.FMMGraphOptions{FarFieldPasses: s.Inner.Field.Width()})

	// Near field, from the schedule rows — their U-list entries: like the
	// single-node virtual machine, the modeled cluster keeps the paper's
	// operator assignment. Each row belongs to its target leaf's owner
	// (whose GPUs run it); remote source leaves ship their bodies as
	// ghosts. Interactions split by source ownership — ghost sends are
	// roots of the node's step graph, on the wire before any compute, so
	// while halos are in flight a node works through the interactions
	// whose sources it already owns. That locally-sourced volume is the
	// halo-hiding budget; the remotely-sourced remainder gates on arrival.
	rows := make([][]int32, p)
	localBy := make([]int64, p)
	remoteBy := make([]int64, p)
	for r, li := range sch.Leaves {
		k := owner[li]
		rows[k] = append(rows[k], int32(r))
		cnt := int64(t.Nodes[li].Count())
		sch.PricedRow(r, func(si int32, src int64) {
			if owner[si] != k {
				remoteBy[k] += cnt * src
			} else {
				localBy[k] += cnt * src
			}
		})
	}

	var totalOps float64
	var maxEnd float64
	var sumCompute float64
	nAlive := 0
	throughput := make([]float64, p)
	s.lastLeaves = s.lastLeaves[:0]
	s.lastLeafCost = s.lastLeafCost[:0]
	for k := 0; k < p; k++ {
		if !s.alive[k] {
			continue
		}
		nAlive++
		spec := s.Cfg.Nodes[k].CPU
		res := spec.Simulate(graphs[k])
		nt := &rep.PerNode[k]
		nt.CPUTime = res.Makespan
		localInts, remoteInts := localBy[k], remoteBy[k]
		var nearLocal float64
		if cl := s.clusters[k]; cl != nil {
			cl.PartitionRows(sch, rows[k])
			nt.GPUTime = cl.Execute(t)
			if tot := localInts + remoteInts; tot > 0 {
				nearLocal = nt.GPUTime * float64(localInts) / float64(tot)
			}
		} else {
			// CPU-only node: near field joins the CPU side; approximate
			// by serializing it over the cores after the far field.
			k2 := math.Max(1, float64(spec.Cores))
			nt.CPUTime += float64(localInts+remoteInts) * spec.Base[costmodel.P2P] / k2
			nearLocal = float64(localInts) * spec.Base[costmodel.P2P] / k2
		}
		nt.Compute = math.Max(nt.CPUTime, nt.GPUTime)
		nt.CommTime = float64(nt.Messages)*s.Cfg.Net.Latency +
			float64(nt.BytesIn)/s.Cfg.Net.Bandwidth
		// Halo hiding: comm overlaps the local-source near rows, so only
		// the excess serializes into the node's step.
		nt.Hidden = math.Min(nt.CommTime, nearLocal)
		nt.Bodies = int(s.cuts[k+1] - s.cuts[k])
		nt.OpShare = res.TotalBusy
		totalOps += res.TotalBusy
		if nt.Compute > 0 {
			throughput[k] = res.TotalBusy / nt.Compute
		}
		rep.TotalBytes += nt.BytesIn
		rep.TotalMsgs += nt.Messages
		sumCompute += nt.Compute
		if end := nt.Compute + nt.CommTime - nt.Hidden; end > maxEnd {
			maxEnd = end
		}
	}
	for k := range rep.PerNode {
		if totalOps > 0 {
			rep.PerNode[k].OpShare /= totalOps
		}
	}
	rep.StepTime = maxEnd
	mean := sumCompute / math.Max(1, float64(nAlive))
	if mean > 0 {
		var maxC float64
		for _, nt := range rep.PerNode {
			maxC = math.Max(maxC, nt.Compute)
		}
		rep.Imbalance = maxC / mean
	}
	s.updateCaps(throughput)

	// Record per-leaf cost estimates for Rebalance (the schedule's rows are
	// the visible leaves in DFS order).
	model := s.Inner.Model
	for r, ni := range sch.Leaves {
		n := &t.Nodes[ni]
		c := float64(n.Count())*(model.Coef[costmodel.P2M]+model.Coef[costmodel.L2P]) +
			float64(len(n.V))*model.Coef[costmodel.M2L] +
			float64(sch.Priced(r))*model.Coef[costmodel.P2P]
		s.lastLeaves = append(s.lastLeaves, ni)
		s.lastLeafCost = append(s.lastLeafCost, c)
	}
}

// updateCaps folds the step's observed per-node throughput (virtual ops
// per second of compute) into the capacity estimates: an EWMA normalized
// to mean 1 over the alive nodes. The estimates weight the shares in the
// next repartition, so a slow node's range shrinks even when the leaf
// cost model is perfect. Nodes with no observed work keep their prior.
func (s *Solver) updateCaps(throughput []float64) {
	var sum float64
	n := 0
	for k, th := range throughput {
		if th > 0 && s.alive[k] {
			sum += th
			n++
		}
	}
	if n == 0 {
		return
	}
	mean := sum / float64(n)
	for k, th := range throughput {
		if th > 0 && s.alive[k] {
			s.caps[k] = 0.5*s.caps[k] + 0.5*th/mean
		}
	}
}

// Rebalance moves the ownership cuts so each node receives a share of
// the measured per-leaf cost proportional to its capacity estimate (the
// inter-node analogue of the paper's intra-node balancing). It returns
// the predicted improvement ratio (old max-node-cost / new max-node-
// cost, >= 1 when it helped) and requires a prior Solve.
func (s *Solver) Rebalance() float64 {
	if len(s.lastLeaves) == 0 {
		return 1
	}
	t := s.Inner.Tree
	p := len(s.Cfg.Nodes)
	total := 0.0
	for _, c := range s.lastLeafCost {
		total += c
	}
	if total == 0 {
		return 1
	}
	newCuts := s.capacityCuts(s.lastLeaves, s.lastLeafCost)

	maxCost := func(cuts []int32) float64 {
		var worst float64
		for k := 0; k < p; k++ {
			var sum float64
			for i, li := range s.lastLeaves {
				start := t.Nodes[li].Start
				if start >= cuts[k] && start < cuts[k+1] {
					sum += s.lastLeafCost[i]
				}
			}
			worst = math.Max(worst, sum)
		}
		return worst
	}
	oldMax := maxCost(s.cuts)
	newMax := maxCost(newCuts)
	s.cuts = newCuts
	if newMax <= 0 {
		return 1
	}
	return oldMax / newMax
}

// RunResult aggregates a distributed multi-step run.
type RunResult struct {
	Steps      []StepReport
	TotalTime  float64
	TotalBytes int64
	Rebalances int
	// NodeLosses counts fail-stop events absorbed; RecoveryTime is the
	// detection + repartition-broadcast time charged for them.
	NodeLosses   int
	RecoveryTime float64
	// DetectLatencies are the heartbeat detector's modeled detection
	// latencies, seconds, one per node loss: whole heartbeat intervals,
	// exactly 25 ms when the survivors' beats cross clean links.
	DetectLatencies []float64
	// Net aggregates the run's link-layer delivery activity.
	Net telemetry.NetSample
}

// RunConfig parameterizes RunWith.
type RunConfig struct {
	Steps  int
	Dt     float64
	Policy RebalancePolicy
	// StartStep offsets the run's step indices (fault schedules are
	// absolute-step-indexed), e.g. when resuming from a checkpoint.
	StartStep int
	// OnStep, when non-nil, runs after each step's integration and
	// refill — the checkpoint/observation hook.
	OnStep func(step int)
}

// RunWith advances the simulation under an explicit repartition policy,
// absorbing any configured node faults at step boundaries: the dead
// node's range is redistributed over the survivors, the capacity epoch
// advances (capacity estimates re-derive from 1), and the step is
// charged the heartbeat detector's detection latency plus a repartition
// broadcast.
func (s *Solver) RunWith(rc RunConfig) RunResult {
	var res RunResult
	pol := rc.Policy
	rec := s.Inner.Cfg.Rec
	for step := rc.StartStep; step < rc.StartStep+rc.Steps; step++ {
		s.stepIdx = step
		recovery := s.applyNodeFaults(step, &res)
		rec.StartStep(step)
		rep := s.Solve()
		rep.StepTime += recovery
		observeNet(rec, step, rep.Net)
		rec.EndStep()
		sim.KickDrift(s.Inner.Sys, rc.Dt)
		s.Inner.Refill()
		if pol.Threshold > 0 && rep.Imbalance > pol.Threshold {
			s.Rebalance()
			res.Rebalances++
		}
		res.Steps = append(res.Steps, rep)
		res.TotalTime += rep.StepTime
		res.TotalBytes += rep.TotalBytes
		addNet(&res.Net, &rep.Net)
		if rc.OnStep != nil {
			rc.OnStep(step)
		}
	}
	return res
}

// observeNet lands the step's link-layer activity on the telemetry
// record and flags flows whose retry budget ran out: an EventNetTimeout
// makes the flight recorder dump the last 32 step records — each
// carrying its per-link retry counts — under the "net-timeout" reason.
func observeNet(rec *telemetry.Recorder, step int, net telemetry.NetSample) {
	rec.Update(func(r *telemetry.StepRecord) {
		n := net
		r.Net = &n
	})
	if net.Timeouts > 0 {
		rec.EmitEvent(telemetry.EventNetTimeout, net.Timeouts, int64(step),
			float64(net.Retries), float64(net.Rerequests+net.DegradedGhostFlows))
	}
}

// applyNodeFaults fail-stops every node whose event armed at this step:
// the node leaves the alive set, its range is repartitioned over the
// survivors (using the last observed leaf costs when available), and the
// capacity epoch advances so per-node capacity estimates re-derive.
// Returns the recovery time to charge to this step.
//
// The fault only silences the node's heartbeat; the detector's latency
// (detectLatency, a function of the step, the alive set, the schedule and
// the seed) is charged and recorded. The node never participates in a
// step between its silencing and its detection: detection completes
// before the step executes, so bit-identity is preserved (the survivors
// compute everything).
func (s *Solver) applyNodeFaults(step int, res *RunResult) float64 {
	var recovery float64
	for _, ev := range s.Cfg.NodeFaults {
		if ev.Step != step || !s.alive[ev.Node] {
			continue
		}
		if s.aliveCount() <= 1 {
			continue // never kill the last node
		}
		detect := detectLatency(step, ev.Node, s.alive, s.Cfg.LinkFaults, s.Cfg.LinkSeed).Seconds()
		res.DetectLatencies = append(res.DetectLatencies, detect)
		s.alive[ev.Node] = false
		s.capEpoch++
		for k := range s.caps {
			s.caps[k] = 1
		}
		s.repartitionSurvivors()
		charge := detect + float64(len(s.Cfg.Nodes))*s.Cfg.Net.Latency
		recovery += charge
		res.NodeLosses++
		res.RecoveryTime += charge
	}
	return recovery
}

// repartitionSurvivors rebuilds the cuts over the alive nodes, weighting
// by the last observed per-leaf costs when they match the current leaf
// set and by leaf body counts otherwise.
func (s *Solver) repartitionSurvivors() {
	t := s.Inner.Tree
	leaves := t.VisibleLeaves()
	costs := s.lastLeafCost
	if len(costs) != len(leaves) {
		costs = make([]float64, len(leaves))
		for i, li := range leaves {
			costs[i] = float64(t.Nodes[li].Count())
		}
	}
	s.cuts = s.capacityCuts(leaves, costs)
}

// capacityCuts splits the DFS-ordered leaves, weighted by costs, over the
// alive nodes in proportion to their capacity estimates.
func (s *Solver) capacityCuts(leaves []int32, costs []float64) []int32 {
	p := len(s.Cfg.Nodes)
	leafEnds := make([]int32, len(leaves))
	for i, li := range leaves {
		leafEnds[i] = s.Inner.Tree.Nodes[li].End
	}
	shares := make([]float64, p)
	for k := range shares {
		if s.alive[k] {
			shares[k] = s.caps[k]
		}
	}
	cuts := computeCuts(leafEnds, costs, shares, p)
	cuts[p] = int32(s.Inner.Sys.Len())
	return cuts
}
