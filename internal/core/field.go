package core

import (
	"math"
	"slices"

	"afmm/internal/expansion"
	"afmm/internal/geom"
	"afmm/internal/kernels"
	"afmm/internal/octree"
	"afmm/internal/particle"
	"afmm/internal/sphharm"
)

// Field is a kernel on a tree: the six FMM operators (P2M and M2M in Up,
// M2L and L2L in Down, L2P, P2P in Near and Fold) over expansion slabs the
// value owns. It is implemented once per kernel — GravityField here,
// stokes.Field for the regularized Stokeslet — and everything that
// executes a step calls these methods and nothing else for numerics: the
// solver's step graph, and each dmem node through a Private copy.
//
// Every method computes its cell (or row) wholly, in a fixed operation
// order, so the result's bits do not depend on who calls it when, as long
// as the callers respect the data dependences (internal/dag).
type Field interface {
	// Width is the number of expansions per cell (1 for gravity, 4 for the
	// Stokeslet's harmonic passes); PackMpole/PackLocal move Width packed
	// expansions per cell.
	Width() int
	// PairFlops is the flop count of one near-field pair of the kernel:
	// the virtual CPU prices the field's P2P relative to gravity's by it.
	PairFlops() int
	// Reset sizes the multipole/local slabs to the tree and zeroes them.
	Reset()
	// Up computes cell ni's multipoles: P2M at a visible leaf, M2M from
	// the occupied children above. A leaf whose entry in ghosts holds
	// bodies is formed from there (a dmem node's copy of a remote leaf, as
	// in Near); nil ghosts means every leaf is local.
	Up(w *expansion.Workspace, ni int32, ghosts []GhostLeaf)
	// Down computes the locals of a run of one level's cells: into each,
	// L2L from the parent, then the translated pairs of its V list through
	// the shared M2L table. A cell's bits do not depend on the run it is
	// in.
	Down(w *expansion.Workspace, nodes []int32)
	// L2P evaluates leaf ni's finalized locals at its bodies: per body
	// exactly one addition onto the near-field-accumulated value — the
	// only far-field write into the body accumulators.
	L2P(w *expansion.Workspace, ni int32)
	// Near executes chunk c of the near-field schedule
	// (octree.NearSchedule.Chunk) for the share that owns the bodies
	// [lo, hi): the one numeric near-field entry point, called by the step
	// graph's near nodes on every configuration (simulated devices only
	// price the rows). Every field's near field is mutual (Near.Run): it
	// writes the accumulators of the share's rows in the chunk and the
	// chunk's reaction buffer; a remote source is read from its entry in
	// ghosts (a dmem node's copies of remote leaves); nil ghosts means
	// every source is local.
	Near(sch *octree.NearSchedule, c int, lo, hi int32, ghosts []GhostLeaf)
	// Fold adds leaf ni's reactions to its bodies, chunk by chunk in
	// order (Near.Fold), after every chunk writing them ran and before
	// L2P; the step graph waits for exactly those chunks.
	Fold(sch *octree.NearSchedule, ni int32)

	// Pack/Load copy cell ni's Width packed expansions to and from a
	// buffer: the dmem wire format.
	PackMpole(ni int32, dst []complex128)
	LoadMpole(ni int32, src []complex128)
	PackLocal(ni int32, dst []complex128)
	LoadLocal(ni int32, src []complex128)
	// PackGhost copies leaf ni's bodies with the kernel's source payload.
	PackGhost(ni int32) GhostLeaf

	// Poison overwrites one accumulator of the body with NaN: the fault
	// injector's silent-data-corruption stand-in, which the Validate guard
	// must catch before integration.
	Poison(body int32)
	// Private returns a field over the same tree, bodies and M2L table
	// with slabs of its own (one per dmem node).
	Private() Field
}

// GhostLeaf is one source leaf's bodies as a dmem node holds them after
// the ghost exchange: positions plus the kernel's source payload (masses
// for gravity, forces for Stokes). Copies are bit-for-bit the owner's
// values.
type GhostLeaf struct {
	Pos  []geom.Vec3
	Mass []float64
	Aux  []geom.Vec3
}

// Ghost returns the copy of leaf ni that ghosts holds, nil when ni's
// bodies are read from the shared particle arrays.
func Ghost(ghosts []GhostLeaf, ni int32) *GhostLeaf {
	if ghosts == nil || ghosts[ni].Pos == nil {
		return nil
	}
	return &ghosts[ni]
}

// Cells is what the kernels' fields share: the tree and bodies they read,
// the expansion order, the M2L table, and one multipole and one local
// slab per expansion column. Fields embed it and add the kernel.
type Cells struct {
	Tree *octree.Tree
	Sys  *particle.System
	P    int
	// M2L holds the translation tables of Tree's lists and levels: prepared
	// by the step's driver before any Up or Down runs, read-only afterwards.
	M2L *SharedM2L

	packed         int
	mpoles, locals [][]complex128
}

// NewCells returns the shared state of a width-column field.
func NewCells(t *octree.Tree, sys *particle.System, p, width int, m2l *SharedM2L) Cells {
	return Cells{
		Tree: t, Sys: sys, P: p, M2L: m2l,
		packed: sphharm.PackedLen(p),
		mpoles: make([][]complex128, width),
		locals: make([][]complex128, width),
	}
}

func (c *Cells) Width() int { return len(c.mpoles) }

func (c *Cells) Reset() {
	need := len(c.Tree.Nodes) * c.packed
	for _, slabs := range [2][][]complex128{c.mpoles, c.locals} {
		for k, s := range slabs {
			if cap(s) < need {
				slabs[k] = make([]complex128, need)
				continue
			}
			s = s[:need]
			for i := range s {
				s[i] = 0
			}
			slabs[k] = s
		}
	}
}

// Mpole and Local return column k of cell ni's multipole / local
// expansion, aliasing the slab.
func (c *Cells) Mpole(k int, ni int32) expansion.Expansion { return c.cell(c.mpoles[k], ni) }
func (c *Cells) Local(k int, ni int32) expansion.Expansion { return c.cell(c.locals[k], ni) }

func (c *Cells) cell(slab []complex128, ni int32) expansion.Expansion {
	off := int(ni) * c.packed
	return expansion.Expansion{P: c.P, C: slab[off : off+c.packed]}
}

// M2M accumulates the occupied children's multipoles into cell ni's,
// child by child in slot order.
func (c *Cells) M2M(w *expansion.Workspace, ni int32) {
	t := c.Tree
	n := &t.Nodes[ni]
	for slot, ci := range n.Children {
		if ci != octree.NilNode && t.Nodes[ci].Count() > 0 {
			c.shift(w, c.mpoles, ni, ci, expansion.ShiftM2M, slot, n.Box.Half/2)
		}
	}
}

// L2L shifts the parent's locals into cell ni's; the root has none to
// shift.
func (c *Cells) L2L(w *expansion.Workspace, ni int32) {
	t := c.Tree
	if parent := t.Nodes[ni].Parent; parent != octree.NilNode {
		pn := &t.Nodes[parent]
		c.shift(w, c.locals, ni, parent, expansion.ShiftL2L, slices.Index(pn.Children[:], ni), pn.Box.Half/2)
	}
}

// shift accumulates into cell dst's expansions in slabs the kind
// translation of cell src's (expansion.Workspace.ChildShift): at width 4
// in one four-column pass, else column by column.
func (c *Cells) shift(w *expansion.Workspace, slabs [][]complex128, dst, src int32, kind expansion.Shift, slot int, h float64) {
	if len(slabs) == 4 {
		var d, s [4]expansion.Expansion
		for k := range d {
			d[k], s[k] = c.cell(slabs[k], dst), c.cell(slabs[k], src)
		}
		w.ChildShift4(&d, &s, kind, slot, h, &c.M2L.Shifts)
		return
	}
	for _, slab := range slabs {
		w.ChildShift(c.cell(slab, dst), c.cell(slab, src), kind, slot, h, &c.M2L.Shifts)
	}
}

func (c *Cells) pack(slabs [][]complex128, ni int32, dst []complex128) {
	off := int(ni) * c.packed
	for k, s := range slabs {
		copy(dst[k*c.packed:(k+1)*c.packed], s[off:off+c.packed])
	}
}

func (c *Cells) load(slabs [][]complex128, ni int32, src []complex128) {
	off := int(ni) * c.packed
	for k, s := range slabs {
		copy(s[off:off+c.packed], src[k*c.packed:(k+1)*c.packed])
	}
}

func (c *Cells) PackMpole(ni int32, dst []complex128) { c.pack(c.mpoles, ni, dst) }
func (c *Cells) LoadMpole(ni int32, src []complex128) { c.load(c.mpoles, ni, src) }
func (c *Cells) PackLocal(ni int32, dst []complex128) { c.pack(c.locals, ni, dst) }
func (c *Cells) LoadLocal(ni int32, src []complex128) { c.load(c.locals, ni, src) }

// Workspaces is a free-list of long-lived operator workspaces, one per
// concurrently executing chunk. Unlike a sync.Pool it never discards
// entries, so the scratch inside the workspaces survives across levels and
// across solves.
type Workspaces struct {
	p    int
	free chan *expansion.Workspace
}

// NewWorkspaces returns a free-list of order-p workspaces keeping up to
// keep of them.
func NewWorkspaces(p, keep int) Workspaces {
	return Workspaces{p: p, free: make(chan *expansion.Workspace, keep)}
}

func (ws Workspaces) Get() *expansion.Workspace {
	select {
	case w := <-ws.free:
		return w
	default:
		return expansion.NewWorkspace(ws.p)
	}
}

func (ws Workspaces) Put(w *expansion.Workspace) {
	select {
	case ws.free <- w:
	default:
	}
}

// GravityField is the width-1 field of the softened Newtonian kernel:
// masses are the charges, potentials and accelerations the result. Its
// near field is mutual (Near): each unordered pair of rows is evaluated
// once, by the chunk holding the lower row, and the reaction waits in that
// chunk's buffer for Fold.
type GravityField struct {
	Cells
	Kernel kernels.Gravity
	near   Near[kernels.GravitySpan, kernels.GravityPair, [4]float64]
}

// NewGravityField returns the gravity field of t's cells and sys's bodies.
func NewGravityField(t *octree.Tree, sys *particle.System, p int, k kernels.Gravity, m2l *SharedM2L) *GravityField {
	return &GravityField{Cells: NewCells(t, sys, p, 1, m2l), Kernel: k}
}

func (f *GravityField) Private() Field {
	return NewGravityField(f.Tree, f.Sys, f.P, f.Kernel, f.M2L)
}

func (f *GravityField) PairFlops() int { return kernels.FlopsPerGravityInteraction }

func (f *GravityField) Up(w *expansion.Workspace, ni int32, ghosts []GhostLeaf) {
	n := &f.Tree.Nodes[ni]
	if !n.IsVisibleLeaf() {
		f.M2M(w, ni)
		return
	}
	pos, mass := f.Sys.Pos[n.Start:n.End], f.Sys.Mass[n.Start:n.End]
	if g := Ghost(ghosts, ni); g != nil {
		pos, mass = g.Pos, g.Mass
	}
	w.P2MLeaf(f.Mpole(0, ni), n.Box.Center, pos, mass)
}

// Down shifts every parent's locals into the run's cells, then translates
// the run's V pairs as one theta-batched M2L (SharedM2L.M2L): a quad of
// the packed kernel may take pairs of several cells, and each cell still
// takes its pairs in the one canonical order.
func (f *GravityField) Down(w *expansion.Workspace, nodes []int32) {
	for _, ni := range nodes {
		f.L2L(w, ni)
	}
	f.M2L.M2L(w, &f.Cells, nodes)
}

func (f *GravityField) L2P(w *expansion.Workspace, ni int32) {
	n := &f.Tree.Nodes[ni]
	l := f.Local(0, ni)
	g := f.Kernel.G
	sys := f.Sys
	w.L2PLeaf(l, n.Box.Center, sys.Pos[n.Start:n.End], func(k int, phi float64, grad geom.Vec3) {
		i := int(n.Start) + k
		sys.Phi[i] += -g * phi
		sys.Acc[i] = sys.Acc[i].Add(grad.Scale(g))
	})
}

// Near runs chunk c through the mutual walk (Near.Run).
func (f *GravityField) Near(sch *octree.NearSchedule, c int, lo, hi int32, ghosts []GhostLeaf) {
	f.near.Run((*gravityNear)(f), f.Tree, sch, c, lo, hi, ghosts)
}

// Fold adds leaf ni's reactions to its potentials and accelerations.
func (f *GravityField) Fold(sch *octree.NearSchedule, ni int32) {
	f.near.Fold((*gravityNear)(f), f.Tree, sch, ni)
}

// gravityNear is the gravity field seen as its NearKernel: masses are the
// payload, potential and acceleration the accumulators and the reaction.
type gravityNear GravityField

func (f *gravityNear) Span(lo, hi int32) kernels.GravitySpan {
	return kernels.GravitySpan{Pos: f.Sys.Pos[lo:hi], Mass: f.Sys.Mass[lo:hi]}
}

func (f *gravityNear) GhostSpan(g *GhostLeaf) kernels.GravitySpan {
	return kernels.GravitySpan{Pos: g.Pos, Mass: g.Mass}
}

func (f *gravityNear) Pair(lo, hi int32, react [][4]float64) kernels.GravityPair {
	return kernels.GravityPair{Pos: f.Sys.Pos[lo:hi], Mass: f.Sys.Mass[lo:hi], React: react}
}

func (f *gravityNear) P2PRow(lo, hi int32, spans []kernels.GravitySpan) {
	sys := f.Sys
	f.Kernel.P2PRow(sys.Pos[lo:hi], sys.Phi[lo:hi], sys.Acc[lo:hi], spans)
}

func (f *gravityNear) P2PPair(lo, hi int32, pairs []kernels.GravityPair, lanes *kernels.PairLanes) {
	sys := f.Sys
	f.Kernel.P2PPair(sys.Pos[lo:hi], sys.Mass[lo:hi], sys.Phi[lo:hi], sys.Acc[lo:hi], pairs, lanes)
}

func (f *gravityNear) P2PReact(g *GhostLeaf, pairs []kernels.GravityPair, lanes *kernels.PairLanes) {
	f.Kernel.P2PReact(g.Pos, g.Mass, pairs, lanes)
}

func (f *gravityNear) Fold(lo, hi int32, react [][4]float64) {
	phi, acc := f.Sys.Phi[lo:hi], f.Sys.Acc[lo:hi]
	for j := range phi {
		phi[j] += react[j][0]
		acc[j].X += react[j][1]
		acc[j].Y += react[j][2]
		acc[j].Z += react[j][3]
	}
}

func (f *GravityField) PackGhost(ni int32) GhostLeaf {
	n := &f.Tree.Nodes[ni]
	return GhostLeaf{
		Pos:  append([]geom.Vec3(nil), f.Sys.Pos[n.Start:n.End]...),
		Mass: append([]float64(nil), f.Sys.Mass[n.Start:n.End]...),
	}
}

func (f *GravityField) Poison(body int32) { f.Sys.Phi[body] = math.NaN() }
