package core

import (
	"afmm/internal/expansion"
	"afmm/internal/geom"
	"afmm/internal/octree"
)

// sqrt3Const mirrors the octree's separation constant (bounding-sphere
// radius of a cube of half-width 1).
const sqrt3Const = 1.7320508075688772

// EvaluateAt computes the gravitational potential and field at arbitrary
// probe points (visualization grids, tracer particles, ...) using the
// multipoles of the last Solve: each probe walks the visible tree with the
// solver's multipole acceptance criterion — far cells accumulate into a
// probe-centered degree-1 local expansion (potential + exact gradient),
// near leaves sum directly. Cost is O(len(points) x log N); accuracy
// matches the solver's (same MAC, same order).
//
// Solve must have run since the last tree modification (it fills the
// multipoles this walk consumes). Gravity only: the walk reads the gravity
// field's multipoles.
func (s *Solver) EvaluateAt(points []geom.Vec3) (phi []float64, field []geom.Vec3) {
	phi = make([]float64, len(points))
	field = make([]geom.Vec3, len(points))
	if len(points) == 0 || s.Tree.Nodes[s.Tree.Root].Count() == 0 {
		return phi, field
	}
	g := s.Cfg.Pool.NewGroup()
	chunk := (len(points) + 4*s.Cfg.Pool.Workers() - 1) / (4 * s.Cfg.Pool.Workers())
	if chunk < 1 {
		chunk = 1
	}
	for lo := 0; lo < len(points); lo += chunk {
		hi := lo + chunk
		if hi > len(points) {
			hi = len(points)
		}
		lo, hi := lo, hi
		g.Spawn(func() {
			w := s.ws.Get()
			defer s.ws.Put(w)
			local := expansion.NewExpansion(1)
			for i := lo; i < hi; i++ {
				phi[i], field[i] = s.evaluateOne(w, local, points[i])
			}
		})
	}
	g.Wait()
	return phi, field
}

// evaluateOne walks the visible tree for a single probe.
func (s *Solver) evaluateOne(w *expansion.Workspace, local expansion.Expansion, x geom.Vec3) (float64, geom.Vec3) {
	t := s.Tree
	f := s.Field.(*GravityField)
	gconst := f.Kernel.G
	local.Zero()
	var phiNear float64
	var accNear geom.Vec3
	var walk func(ni int32)
	walk = func(ni int32) {
		n := &t.Nodes[ni]
		if n.Count() == 0 {
			return
		}
		d := x.Sub(n.Box.Center).Norm()
		// Point target: accept the cell's multipole when the probe is
		// outside the cell's scaled bounding sphere.
		if t.Cfg.MAC*d > sqrt3Const*n.Box.Half {
			w.M2L(local, x, f.Mpole(0, ni), n.Box.Center)
			return
		}
		if n.IsVisibleLeaf() {
			for i := n.Start; i < n.End; i++ {
				p, a := f.Kernel.Accumulate(x, s.Sys.Pos[i], s.Sys.Mass[i])
				phiNear += p
				accNear = accNear.Add(a)
			}
			return
		}
		for _, ci := range n.Children {
			if ci != octree.NilNode {
				walk(ci)
			}
		}
	}
	walk(t.Root)
	// The far field sits in the probe-centered local expansion: evaluate
	// it (and its exact gradient) at the center.
	pFar, gFar := w.L2P(local, x, x)
	phi := phiNear - gconst*pFar
	acc := accNear.Add(gFar.Scale(gconst))
	return phi, acc
}
