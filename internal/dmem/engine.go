package dmem

import (
	"math"

	"afmm/internal/core"
	"afmm/internal/expansion"
	"afmm/internal/geom"
	"afmm/internal/kernels"
	"afmm/internal/octree"
	"afmm/internal/particle"
	"afmm/internal/sphharm"
	"afmm/internal/stokes"
)

// A nodeEngine holds one virtual cluster node's private numeric state —
// expansion slabs, ghost-body copies, workspace pool — and executes the
// per-cell operators in exactly the shared-memory solvers' operation
// order. The tree, the interaction lists and the particle arrays are
// shared read-only (the "wire" only carries copies: multipoles, locals
// and ghost bodies land in the engine's private storage); accumulators
// are written only for the node's owned body ranges. Because every cell
// is computed wholly by one engine with the single-node operator order,
// and ghost copies are bit-for-bit the owner's values, the distributed
// result is bit-identical to the single-node result.
type nodeEngine interface {
	// prepare sizes and zeroes the private slabs for the current tree and
	// adopts the step's ownership map (owner[cell] = owning node or -1).
	prepare(owner []int32, me int)
	// expLen is the number of complex coefficients shipped per cell
	// (packed length × harmonic passes).
	expLen() int

	upCell(w *expansion.Workspace, ni int32)
	downCell(w *expansion.Workspace, ni int32)
	leafL2P(w *expansion.Workspace, ni int32)
	nearRow(sch *octree.NearSchedule, r int)

	packMpole(ni int32, dst []complex128)
	loadMpole(ni int32, src []complex128)
	packLocal(ni int32, dst []complex128)
	loadLocal(ni int32, src []complex128)
	packGhost(ni int32) ghostLeaf
	loadGhost(ni int32, gl ghostLeaf)

	getWS() *expansion.Workspace
	putWS(w *expansion.Workspace)
}

// ghostLeaf is one U-list source leaf's body copies as shipped by the
// ghost-particle exchange: positions plus the kernel's source payload
// (masses for gravity, forces for Stokes).
type ghostLeaf struct {
	pos  []geom.Vec3
	mass []float64
	aux  []geom.Vec3
}

// engineBase is the engine state shared by both kernels.
type engineBase struct {
	tree   *octree.Tree
	sys    *particle.System
	p      int
	packed int
	rot    bool
	me     int32
	owner  []int32
	ghosts []ghostLeaf
	ws     chan *expansion.Workspace
	// m2l is the runtime's M2L class table, shared by all node engines
	// and read-only while they run (like the tree).
	m2l *core.SharedM2L
}

func (e *engineBase) init(t *octree.Tree, sys *particle.System, p int, rot bool, m2l *core.SharedM2L) {
	e.tree, e.sys = t, sys
	e.p, e.packed, e.rot = p, sphharm.PackedLen(p), rot
	e.ws = make(chan *expansion.Workspace, 32)
	e.m2l = m2l
}

func (e *engineBase) prepareBase(owner []int32, me int) {
	e.owner = owner
	e.me = int32(me)
	n := len(e.tree.Nodes)
	if cap(e.ghosts) < n {
		e.ghosts = make([]ghostLeaf, n)
	} else {
		e.ghosts = e.ghosts[:n]
		for i := range e.ghosts {
			e.ghosts[i] = ghostLeaf{}
		}
	}
}

func (e *engineBase) getWS() *expansion.Workspace {
	select {
	case w := <-e.ws:
		return w
	default:
		return expansion.NewWorkspace(e.p)
	}
}

func (e *engineBase) putWS(w *expansion.Workspace) {
	select {
	case e.ws <- w:
	default:
	}
}

// sizeSlab grows (and zeroes) one expansion slab to n complex values.
func sizeSlab(slab []complex128, n int) []complex128 {
	if cap(slab) < n {
		return make([]complex128, n)
	}
	slab = slab[:n]
	for i := range slab {
		slab[i] = 0
	}
	return slab
}

// gravityEngine mirrors core.Solver's per-cell numerics over private
// slabs. The operation order inside each method is copied verbatim from
// the solver (upNode / downNode / leafL2P / nearFieldChunk), which is
// the bit-identity argument.
type gravityEngine struct {
	engineBase
	kernel kernels.Gravity
	mpoles []complex128
	locals []complex128
}

func newGravityEngine(sv *core.Solver, m2l *core.SharedM2L) *gravityEngine {
	e := &gravityEngine{kernel: sv.Cfg.Kernel}
	e.init(sv.Tree, sv.Sys, sv.Cfg.P, sv.Cfg.UseRotatedTranslations, m2l)
	return e
}

func (e *gravityEngine) prepare(owner []int32, me int) {
	e.prepareBase(owner, me)
	n := len(e.tree.Nodes) * e.packed
	e.mpoles = sizeSlab(e.mpoles, n)
	e.locals = sizeSlab(e.locals, n)
}

func (e *gravityEngine) expLen() int { return e.packed }

func (e *gravityEngine) mpole(ni int32) expansion.Expansion {
	off := int(ni) * e.packed
	return expansion.Expansion{P: e.p, C: e.mpoles[off : off+e.packed]}
}

func (e *gravityEngine) local(ni int32) expansion.Expansion {
	off := int(ni) * e.packed
	return expansion.Expansion{P: e.p, C: e.locals[off : off+e.packed]}
}

func (e *gravityEngine) upCell(w *expansion.Workspace, ni int32) {
	t := e.tree
	n := &t.Nodes[ni]
	m := e.mpole(ni)
	if n.IsVisibleLeaf() {
		for i := n.Start; i < n.End; i++ {
			w.P2M(m, n.Box.Center, e.sys.Pos[i], e.sys.Mass[i])
		}
		return
	}
	for _, ci := range n.Children {
		if ci != octree.NilNode && t.Nodes[ci].Count() > 0 {
			if e.rot {
				w.M2MRotated(m, n.Box.Center, e.mpole(ci), t.Nodes[ci].Box.Center)
			} else {
				w.M2M(m, n.Box.Center, e.mpole(ci), t.Nodes[ci].Box.Center)
			}
		}
	}
}

func (e *gravityEngine) downCell(w *expansion.Workspace, ni int32) {
	t := e.tree
	n := &t.Nodes[ni]
	l := e.local(ni)
	if parent := n.Parent; parent != octree.NilNode {
		if e.rot {
			w.L2LRotated(l, n.Box.Center, e.local(parent), t.Nodes[parent].Box.Center)
		} else {
			w.L2L(l, n.Box.Center, e.local(parent), t.Nodes[parent].Box.Center)
		}
	}
	if len(n.V) > 0 {
		srcs := w.Sources(len(n.V))
		for _, vi := range n.V {
			srcs = append(srcs, expansion.M2LSource{M: e.mpole(vi), From: t.Nodes[vi].Box.Center})
		}
		e.m2l.M2L(w, l, t, ni, srcs)
	}
}

func (e *gravityEngine) leafL2P(w *expansion.Workspace, ni int32) {
	n := &e.tree.Nodes[ni]
	l := e.local(ni)
	g := e.kernel.G
	for i := n.Start; i < n.End; i++ {
		phi, grad := w.L2P(l, n.Box.Center, e.sys.Pos[i])
		e.sys.Phi[i] += -g * phi
		e.sys.Acc[i] = e.sys.Acc[i].Add(grad.Scale(g))
	}
}

func (e *gravityEngine) nearRow(sch *octree.NearSchedule, r int) {
	t, sys := e.tree, e.sys
	tn := &t.Nodes[sch.Leaves[r]]
	xt := sys.Pos[tn.Start:tn.End]
	pot := sys.Phi[tn.Start:tn.End]
	acc := sys.Acc[tn.Start:tn.End]
	for k := sch.RowPtr[r]; k < sch.RowPtr[r+1]; k++ {
		if si := sch.Srcs[k]; e.owner[si] != e.me {
			gl := &e.ghosts[si]
			e.kernel.P2P(xt, pot, acc, gl.pos, gl.mass)
		} else {
			e.kernel.P2P(xt, pot, acc,
				sys.Pos[sch.SrcStart[k]:sch.SrcEnd[k]],
				sys.Mass[sch.SrcStart[k]:sch.SrcEnd[k]])
		}
	}
}

func (e *gravityEngine) packMpole(ni int32, dst []complex128) {
	copy(dst, e.mpole(ni).C)
}

func (e *gravityEngine) loadMpole(ni int32, src []complex128) {
	copy(e.mpole(ni).C, src)
}

func (e *gravityEngine) packLocal(ni int32, dst []complex128) {
	copy(dst, e.local(ni).C)
}

func (e *gravityEngine) loadLocal(ni int32, src []complex128) {
	copy(e.local(ni).C, src)
}

func (e *gravityEngine) packGhost(ni int32) ghostLeaf {
	n := &e.tree.Nodes[ni]
	return ghostLeaf{
		pos:  append([]geom.Vec3(nil), e.sys.Pos[n.Start:n.End]...),
		mass: append([]float64(nil), e.sys.Mass[n.Start:n.End]...),
	}
}

func (e *gravityEngine) loadGhost(ni int32, gl ghostLeaf) { e.ghosts[ni] = gl }

// stokesPasses is the Stokeslet solver's harmonic pass count.
const stokesPasses = 4

// stokesEngine mirrors stokes.Solver's four-pass per-cell numerics over
// private per-pass slabs (operation order copied verbatim from
// upNode / downNode / leafL2P / nearFieldChunk).
type stokesEngine struct {
	engineBase
	kernel kernels.Stokeslet
	mpoles [stokesPasses][]complex128
	locals [stokesPasses][]complex128
}

func newStokesEngine(sv *stokes.Solver, m2l *core.SharedM2L) *stokesEngine {
	e := &stokesEngine{kernel: sv.Cfg.Kernel}
	e.init(sv.Tree, sv.Sys, sv.Cfg.P, sv.Cfg.UseRotatedTranslations, m2l)
	return e
}

func (e *stokesEngine) prepare(owner []int32, me int) {
	e.prepareBase(owner, me)
	n := len(e.tree.Nodes) * e.packed
	for k := 0; k < stokesPasses; k++ {
		e.mpoles[k] = sizeSlab(e.mpoles[k], n)
		e.locals[k] = sizeSlab(e.locals[k], n)
	}
}

func (e *stokesEngine) expLen() int { return e.packed * stokesPasses }

func (e *stokesEngine) mpole(k int, ni int32) expansion.Expansion {
	off := int(ni) * e.packed
	return expansion.Expansion{P: e.p, C: e.mpoles[k][off : off+e.packed]}
}

func (e *stokesEngine) local(k int, ni int32) expansion.Expansion {
	off := int(ni) * e.packed
	return expansion.Expansion{P: e.p, C: e.locals[k][off : off+e.packed]}
}

func (e *stokesEngine) mpoles4(ni int32) (m [stokesPasses]expansion.Expansion) {
	for k := range m {
		m[k] = e.mpole(k, ni)
	}
	return m
}

func (e *stokesEngine) locals4(ni int32) (l [stokesPasses]expansion.Expansion) {
	for k := range l {
		l[k] = e.local(k, ni)
	}
	return l
}

func (e *stokesEngine) upCell(w *expansion.Workspace, ni int32) {
	t := e.tree
	n := &t.Nodes[ni]
	if n.IsVisibleLeaf() {
		m := e.mpoles4(ni)
		for i := n.Start; i < n.End; i++ {
			w.P2M4(&m, n.Box.Center, e.sys.Pos[i], stokes.Charges(e.sys.Aux[i], e.sys.Pos[i]))
		}
		return
	}
	for k := 0; k < stokesPasses; k++ {
		m := e.mpole(k, ni)
		for _, ci := range n.Children {
			if ci != octree.NilNode && t.Nodes[ci].Count() > 0 {
				if e.rot {
					w.M2MRotated(m, n.Box.Center, e.mpole(k, ci), t.Nodes[ci].Box.Center)
				} else {
					w.M2M(m, n.Box.Center, e.mpole(k, ci), t.Nodes[ci].Box.Center)
				}
			}
		}
	}
}

func (e *stokesEngine) downCell(w *expansion.Workspace, ni int32) {
	t := e.tree
	n := &t.Nodes[ni]
	l := e.locals4(ni)
	if parent := n.Parent; parent != octree.NilNode {
		for k := range l {
			if e.rot {
				w.L2LRotated(l[k], n.Box.Center, e.local(k, parent), t.Nodes[parent].Box.Center)
			} else {
				w.L2L(l[k], n.Box.Center, e.local(k, parent), t.Nodes[parent].Box.Center)
			}
		}
	}
	if len(n.V) > 0 {
		srcs := w.Sources4(len(n.V))
		for _, vi := range n.V {
			srcs = append(srcs, expansion.M2LSource4{M: e.mpoles4(vi), From: t.Nodes[vi].Box.Center})
		}
		e.m2l.M2L4(w, &l, t, ni, srcs)
	}
}

func (e *stokesEngine) leafL2P(w *expansion.Workspace, ni int32) {
	n := &e.tree.Nodes[ni]
	l := e.locals4(ni)
	c0 := 1 / (8 * math.Pi * e.kernel.Mu)
	for i := n.Start; i < n.End; i++ {
		x := e.sys.Pos[i]
		phi, grad := w.L2P4(&l, n.Box.Center, x)
		e.sys.Acc[i] = e.sys.Acc[i].Add(stokes.Combine(x, &phi, &grad).Scale(c0))
	}
}

func (e *stokesEngine) nearRow(sch *octree.NearSchedule, r int) {
	t, sys := e.tree, e.sys
	tn := &t.Nodes[sch.Leaves[r]]
	xt := sys.Pos[tn.Start:tn.End]
	vel := sys.Acc[tn.Start:tn.End]
	for k := sch.RowPtr[r]; k < sch.RowPtr[r+1]; k++ {
		if si := sch.Srcs[k]; e.owner[si] != e.me {
			gl := &e.ghosts[si]
			e.kernel.P2P(xt, vel, gl.pos, gl.aux)
		} else {
			e.kernel.P2P(xt, vel,
				sys.Pos[sch.SrcStart[k]:sch.SrcEnd[k]],
				sys.Aux[sch.SrcStart[k]:sch.SrcEnd[k]])
		}
	}
}

func (e *stokesEngine) packMpole(ni int32, dst []complex128) {
	for k := 0; k < stokesPasses; k++ {
		copy(dst[k*e.packed:(k+1)*e.packed], e.mpole(k, ni).C)
	}
}

func (e *stokesEngine) loadMpole(ni int32, src []complex128) {
	for k := 0; k < stokesPasses; k++ {
		copy(e.mpole(k, ni).C, src[k*e.packed:(k+1)*e.packed])
	}
}

func (e *stokesEngine) packLocal(ni int32, dst []complex128) {
	for k := 0; k < stokesPasses; k++ {
		copy(dst[k*e.packed:(k+1)*e.packed], e.local(k, ni).C)
	}
}

func (e *stokesEngine) loadLocal(ni int32, src []complex128) {
	for k := 0; k < stokesPasses; k++ {
		copy(e.local(k, ni).C, src[k*e.packed:(k+1)*e.packed])
	}
}

func (e *stokesEngine) packGhost(ni int32) ghostLeaf {
	n := &e.tree.Nodes[ni]
	return ghostLeaf{
		pos: append([]geom.Vec3(nil), e.sys.Pos[n.Start:n.End]...),
		aux: append([]geom.Vec3(nil), e.sys.Aux[n.Start:n.End]...),
	}
}

func (e *stokesEngine) loadGhost(ni int32, gl ghostLeaf) { e.ghosts[ni] = gl }
