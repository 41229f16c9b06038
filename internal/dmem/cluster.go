package dmem

import (
	"fmt"

	"afmm/internal/fault"
	"afmm/internal/stokes"
	"afmm/internal/telemetry"
)

// StokesCluster executes a Stokes solver's partitioned tree on the
// distributed runtime: the LET/ghost exchange, the graph machinery and
// the node engine are the gravity path's; only the field the engines copy
// differs (four harmonic passes, force charges, velocity combine). The
// numerics are bit-identical to stokes.Solver.Solve.
type StokesCluster struct {
	sv    *stokes.Solver
	rt    *Runtime
	cuts  []int32
	alive []bool
	step  int
}

// NewStokesCluster wraps an existing Stokes solver in an n-node
// distributed execution with an equal-count initial partition.
func NewStokesCluster(sv *stokes.Solver, nodes int, net NetworkSpec) (*StokesCluster, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("dmem: no nodes configured")
	}
	if net.Bandwidth == 0 {
		net = DefaultNetwork()
	}
	c := &StokesCluster{
		sv:    sv,
		rt:    newRuntime(sv.Solver, nodes, net),
		alive: make([]bool, nodes),
	}
	for k := range c.alive {
		c.alive[k] = true
	}
	return c, nil
}

// SetRecorder routes the cluster's node/comm spans to rec.
func (c *StokesCluster) SetRecorder(rec *telemetry.Recorder) {
	c.sv.SetRecorder(rec)
}

// SetLinkFaults arms a deterministic link-fault schedule on the
// cluster's transport. Faults cost retries and deadlines, never values.
func (c *StokesCluster) SetLinkFaults(sch *fault.LinkSchedule, seed int64, cfg LinkConfig) {
	c.rt.linkSch = sch
	c.rt.linkSeed = seed
	c.rt.link = cfg
}

// Fail marks a node fail-stopped; its range moves to the survivors on
// the next Solve. The last alive node cannot be failed.
func (c *StokesCluster) Fail(node int) {
	n := 0
	for _, a := range c.alive {
		if a {
			n++
		}
	}
	if node >= 0 && node < len(c.alive) && n > 1 {
		c.alive[node] = false
	}
}

// Solve executes one distributed Stokes step; on return Sys.Acc holds
// the velocities, bit-identical to the single-node solver.
func (c *StokesCluster) Solve() *ExecStats {
	t := c.sv.Tree
	t.BuildLists()
	// Equal-count leaf-aligned cuts over the alive nodes, recomputed per
	// step so failed nodes drop out.
	leaves := t.VisibleLeaves()
	leafEnds := make([]int32, len(leaves))
	costs := make([]float64, len(leaves))
	for i, li := range leaves {
		leafEnds[i] = t.Nodes[li].End
		costs[i] = float64(t.Nodes[li].Count())
	}
	shares := make([]float64, len(c.alive))
	for k, a := range c.alive {
		if a {
			shares[k] = 1
		}
	}
	c.cuts = computeCuts(leafEnds, costs, shares, len(c.alive))
	c.cuts[len(c.alive)] = int32(c.sv.Sys.Len())
	ownerOf := func(i int32) int32 {
		lo, hi := 0, len(c.cuts)-1
		for lo+1 < hi {
			mid := (lo + hi) / 2
			if c.cuts[mid] <= i {
				lo = mid
			} else {
				hi = mid
			}
		}
		return int32(lo)
	}
	step := c.step
	c.step++
	return c.rt.Step(ownerOf, c.alive, step)
}
