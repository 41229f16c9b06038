package expansion

import (
	"cmp"
	"math"
	"math/cmplx"
	"slices"
	"sync"
	"sync/atomic"

	"afmm/internal/geom"
	"afmm/internal/sphharm"
)

// M2L translation-class table: the per-direction setup of the rotated M2L
// — Wigner stack, azimuthal phases, radial powers — precomputed for every
// translation class (see octree.M2LClassSchedule) into a table shared
// read-only by every worker.
//
// The operator factors by what each piece actually depends on, and each
// factor is keyed by exactly that:
//
//   - the pre-signed Wigner d-matrices depend only on the polar angle
//     theta of the class direction;
//   - the phases e^{im phi} only on the azimuth phi;
//   - the radial powers rho^-(i+1) only on the length rho;
//   - the axial coefficients sk * A_n^k * A_j^k * (j+n)! on nothing but
//     the order (axialBase, shared by every table and workspace).
//
// A class is three row indices into three flat slabs. Distinct theta, phi
// and rho are each far fewer than distinct directions (the same angle or
// length recurs across levels, octants and scales), so the table covers
// every class for a few thousand rows per slab. Keys are the exact float64
// bits d.Spherical() returns, and every stored factor is the expression
// the uncached form (M2LBatch) evaluates, in its order (the
// basis-conversion signs are ±1, so folding them into the Wigner entries
// is exact): a table translation is bit-identical to M2LBatch.
//
// The theta slab stores half stacks (halfStackInto): the kernel works in
// real arithmetic on Hermitian-packed coefficients, so per degree it needs
// only sums and differences of the signed entries' +m and -m columns for
// rows m' >= 0 — halfLen(p) floats a row, not stackLen(p). Only this slab
// is large, so it alone is bounded, by a fixed byte budget: when the
// distinct theta outgrow it (p >= ~19 on large trees) the least
// pair-weighted ones spill. A spill class folds its half stack into the
// workspace scratch and runs the same kernel on the same values.
//
// Plan lays a table out for a class list; Extend appends the classes a
// list repair added to it (the schedule keeps its numbering across a
// repair), planning and building only their new rows.
type M2LTable struct {
	p   int
	ops []m2lOp // per class
	// thetas holds the distinct polar angles, pair weight descending
	// (angle ascending on ties); the first nStack have a row in stacks.
	thetas []thetaKey
	nStack int
	hl     int          // halfLen(p)
	stacks []float64    // nStack rows of hl: half stacks of d^l(theta), l = 0..p
	zph    []complex128 // per distinct phi: e^{i m phi}, m = 0..p; laneSlack spare capacity
	rpow   []float64    // per distinct rho: rho^-(i+1), i = 0..2p+1; laneSlack spare capacity

	thetaBudget int // bytes; m2lThetaBudget outside tests

	// Key indexes (exact bits -> slab row; theta's hold ranked rows after a
	// Plan) and ranking scratch, kept across list epochs: Extend looks rows
	// up in them, and a re-plan does not allocate.
	thetaRow, phiRow, rhoRow rowIndex
	rank                     []int32    // first-seen row -> ranked row
	byValue                  []thetaKey // the thetas in angle order, seen = slab row
	// ord is, per theta row, the rank of its angle among the distinct
	// theta in ascending order: the bucket of M2LBatchTheta.
	ord []int32

	// Full-stack scratch of BuildRotRange, one per concurrent range.
	mu   sync.Mutex
	free []*rotWorkspace

	// The phase and radial rows as four columns that share them (colGeom's
	// layout, every column the row): what M2LBatchTable4 hands the kernel,
	// so a Stokeslet pair pays no per-pair layout. Made by the first
	// four-column call after a Plan or Extend (wideOK), under mu.
	wideOK      atomic.Bool
	zph4, rpow4 [][4]float64
}

// m2lOp is one class: its rows in the theta, phi and rho slabs.
type m2lOp struct{ theta, phi, rho int32 }

// thetaKey is one distinct theta, with what Plan ranks it by: its pair
// weight, and its first-seen row.
type thetaKey struct {
	theta  float64
	weight int64
	seen   int32
}

// m2lThetaBudget bounds the theta slab. At p=8 a row is 5.6 KB (712
// floats, 570 of them matrix entries and the rest lane padding) and a
// 100k-body Plummer tree has ~3000 distinct theta (16.9 MB); the budget is
// reached near p=19, where a row is 49 KB and 2654 fit.
const m2lThetaBudget = 128 << 20

// NewM2LTable creates an empty table for order-p translations.
func NewM2LTable(p int) *M2LTable {
	return &M2LTable{p: p, hl: halfLen(p), thetaBudget: m2lThetaBudget}
}

// Rotations returns the number of Wigner stacks the last Plan or Extend
// kept (the expensive part of the table).
func (tb *M2LTable) Rotations() int { return tb.nStack }

// HasRot reports whether class c translates through a precomputed Wigner
// stack (false means its theta spilled out of the byte budget).
func (tb *M2LTable) HasRot(c int) bool { return int(tb.ops[c].theta) < tb.nStack }

// stackLen is the float count of a flat Wigner stack of degrees 0..p:
// degree l is a dense (2l+1)x(2l+1) block, blocks in degree order.
func stackLen(p int) int { return (p + 1) * (2*p + 1) * (2*p + 3) / 3 }

// laneWidth is the number of float64 lanes of the packed M2L body; the
// half stack and the axial rows are laid out in groups of laneWidth
// outputs whether or not the host runs that body (one layout, read by
// index where there are no lanes).
const laneWidth = 4

// laneSlack is what a last, partly filled lane group may touch beyond the
// outputs it owns. The split scratch vectors and the merge's zip vector
// have that many writable entries after their coefficients; a row of
// radial powers and a row of phases have that many readable ones (the next
// row of the slab, or spare capacity behind the last).
const laneSlack = laneWidth - 1

// lanePad rounds a row count up to whole lane groups.
func lanePad(h int) int { return (h + laneWidth - 1) &^ (laneWidth - 1) }

// halfLen is the float count of a half stack of degrees 0..p: degree l has
// l+1 columns, each lanePad(l+1) P entries followed by as many Q entries.
func halfLen(p int) int {
	n := 0
	for l := 0; l <= p; l++ {
		n += 2 * (l + 1) * lanePad(l+1)
	}
	return n
}

var axialBases [sphharm.MaxOrder + 1]struct {
	once sync.Once
	axb  []float64
}

// axialBase returns sk * Anm(n,k) * Anm(j,k) * Fact[j+n], the leading
// factors of the axial M2L term (the kernel multiplies in the radial
// power), as an axial row (laneRowInto). Built once per order.
func axialBase(p int) []float64 {
	e := &axialBases[p]
	e.once.Do(func() {
		t := sphharm.NewTables(p)
		e.axb = make([]float64, axialLen(p))
		laneRowInto(e.axb, p, func(j, k, n int) float64 {
			sk := 1.0
			if (j+k)%2 == 1 {
				sk = -1
			}
			return sk * t.Anm(n, k) * t.Anm(j, k) * t.Fact[j+n]
		})
	})
	return e.axb
}

// axialLen is the float count of an axial row: per order k, lanePad(p-k+1)
// degrees times p-k+1 terms.
func axialLen(p int) int {
	n := 0
	for k := 0; k <= p; k++ {
		n += lanePad(p-k+1) * (p - k + 1)
	}
	return n
}

// laneRowInto lays the axial factors factor(j, k, n) out lane-major, as
// every axial row the kernel takes is laid out: per order k, per group of
// laneWidth consecutive degrees j = k+4g.., per term n = k..p, the group's
// laneWidth factors (+0 where j > p).
func laneRowInto(dst []float64, p int, factor func(j, k, n int) float64) {
	i := 0
	for k := 0; k <= p; k++ {
		for j0 := k; j0 <= p; j0 += laneWidth {
			for n := k; n <= p; n++ {
				for j := j0; j < j0+laneWidth; j++ {
					dst[i] = 0
					if j <= p {
						dst[i] = factor(j, k, n)
					}
					i++
				}
			}
		}
	}
}

// rowIndex maps the exact bits of a float64 to a slab row: open addressing
// with a fixed hash over slices kept across plans, so a re-plan that meets
// no more keys than the last one allocates nothing. (A Go map's clear
// reseeds its hash, and the same keys can then need more room.)
type rowIndex struct {
	keys []uint64
	rows []int32 // parallel to keys; -1 marks an empty slot
	n    int
}

// reset empties the index, keeping its slots.
func (x *rowIndex) reset() {
	for i := range x.rows {
		x.rows[i] = -1
	}
	x.n = 0
}

// slot returns k's slot, or the empty slot where it would go.
func (x *rowIndex) slot(k uint64) int {
	mask := len(x.rows) - 1
	for i := int((k*0x9e3779b97f4a7c15)>>32) & mask; ; i = (i + 1) & mask {
		if x.rows[i] < 0 || x.keys[i] == k {
			return i
		}
	}
}

// set maps k to row, doubling the slots when half full.
func (x *rowIndex) set(k uint64, row int32) {
	if 2*(x.n+1) > len(x.rows) {
		keys, rows := x.keys, x.rows
		x.keys = make([]uint64, max(16, 2*len(rows)))
		x.rows = make([]int32, len(x.keys))
		x.reset()
		for i, r := range rows {
			if r >= 0 {
				x.set(keys[i], r)
			}
		}
	}
	i := x.slot(k)
	if x.rows[i] < 0 {
		x.n++
	}
	x.keys[i], x.rows[i] = k, row
}

// rowOf returns the slab row keyed by the exact bits of x, assigning the
// next row (first-seen order, so the layout is deterministic) when new.
func rowOf(rows *rowIndex, x float64) (row int32, isNew bool) {
	k := math.Float64bits(x)
	if len(rows.rows) > 0 {
		if i := rows.slot(k); rows.rows[i] >= 0 {
			return rows.rows[i], false
		}
	}
	row = int32(rows.n)
	rows.set(k, row)
	return row, true
}

// Plan sizes the table for the class directions, fills the phase and
// radial slabs and the per-class rows, and elects the theta that get a
// Wigner stack: all of them, unless the byte budget forces the least
// pair-weighted out. It returns the number of stacks to build; the caller
// then builds them (concurrently, if desired) with BuildRotRange before
// first use. pairsPerClass weights the ranking (the schedule's per-class
// pair counts); nil weights every class equally. The last argument was
// the rotation-count cap the byte budget superseded; it is ignored.
func (tb *M2LTable) Plan(dirs []geom.Vec3, pairsPerClass []int64, _ int) int {
	p := tb.p
	tb.ops = slices.Grow(tb.ops[:0], len(dirs))[:len(dirs)]
	tb.zph, tb.rpow = tb.zph[:0], tb.rpow[:0]
	tb.thetaRow.reset()
	tb.phiRow.reset()
	tb.rhoRow.reset()
	keys := tb.thetas[:0] // first-seen order, ranked below
	for ci, d := range dirs {
		rho, theta, phi := d.Spherical()
		op := &tb.ops[ci]
		var isNew bool
		if op.theta, isNew = rowOf(&tb.thetaRow, theta); isNew {
			keys = append(keys, thetaKey{theta: theta, seen: op.theta})
		}
		if pairsPerClass != nil {
			keys[op.theta].weight += pairsPerClass[ci]
		} else {
			keys[op.theta].weight++
		}
		if op.phi, isNew = rowOf(&tb.phiRow, phi); isNew {
			tb.zph = slices.Grow(tb.zph, p+1+laneSlack)[:len(tb.zph)+p+1]
			fillPhases(tb.zph[len(tb.zph)-(p+1):], phi)
		}
		if op.rho, isNew = rowOf(&tb.rhoRow, rho); isNew {
			tb.rpow = slices.Grow(tb.rpow, 2*p+2+laneSlack)[:len(tb.rpow)+2*p+2]
			fillInvPowers(tb.rpow[len(tb.rpow)-(2*p+2):], rho)
		}
	}
	// Rank theta by pair weight, angle as tie-break, and renumber.
	slices.SortFunc(keys, func(a, b thetaKey) int {
		return cmp.Or(cmp.Compare(b.weight, a.weight), cmp.Compare(a.theta, b.theta))
	})
	tb.thetas = keys
	tb.rank = slices.Grow(tb.rank[:0], len(keys))[:len(keys)]
	for r, k := range keys {
		tb.rank[k.seen] = int32(r)
	}
	for ci := range tb.ops {
		tb.ops[ci].theta = tb.rank[tb.ops[ci].theta]
	}
	for r, k := range keys { // key -> ranked row, for Extend
		tb.thetaRow.set(math.Float64bits(k.theta), int32(r))
	}
	tb.nStack = min(len(tb.thetas), tb.thetaBudget/(8*tb.hl))
	tb.stacks = slices.Grow(tb.stacks[:0], tb.nStack*tb.hl)[:tb.nStack*tb.hl]
	tb.ordThetas()
	tb.wideOK.Store(false)
	return tb.nStack
}

// ordThetas sets every theta row's ord: its rank in ascending angle. The
// keys are distinct float64 values, so the order is strict.
func (tb *M2LTable) ordThetas() {
	byValue := append(tb.byValue[:0], tb.thetas...)
	for r := range byValue {
		byValue[r].seen = int32(r) // the slab row
	}
	slices.SortFunc(byValue, func(a, b thetaKey) int { return cmp.Compare(a.theta, b.theta) })
	tb.ord = slices.Grow(tb.ord[:0], len(byValue))[:len(byValue)]
	for o, k := range byValue {
		tb.ord[k.seen] = int32(o)
	}
	tb.byValue = byValue
}

// Extend plans the classes dirs[from:] on top of the from classes the
// table was last planned (or extended) for, without touching a planned
// row: a theta, phi or rho seen before reuses its row through the kept key
// maps, a new one gets the next row of its slab. It returns the new theta
// rows [lo, hi), which the caller builds with BuildRotRange before first
// use. A row holds the same bits wherever it sits (it is a function of the
// key alone), so an extended table translates exactly as a fresh Plan of
// dirs would. When some theta already spilled, a new theta would cross the
// byte budget, or from is not the planned class count, Extend re-plans
// instead (pairsPerClass weighting the ranking as in Plan) and returns
// [0, Rotations()).
func (tb *M2LTable) Extend(dirs []geom.Vec3, pairsPerClass []int64, from int) (lo, hi int) {
	if from != len(tb.ops) || tb.nStack < len(tb.thetas) {
		return 0, tb.Plan(dirs, pairsPerClass, 0)
	}
	p, lo := tb.p, tb.nStack
	tb.ops = slices.Grow(tb.ops, len(dirs)-from)
	for _, d := range dirs[from:] {
		rho, theta, phi := d.Spherical()
		var op m2lOp
		var isNew bool
		if op.theta, isNew = rowOf(&tb.thetaRow, theta); isNew {
			if 8*tb.hl*(len(tb.thetas)+1) > tb.thetaBudget {
				return 0, tb.Plan(dirs, pairsPerClass, 0)
			}
			tb.thetas = append(tb.thetas, thetaKey{theta: theta})
		}
		if op.phi, isNew = rowOf(&tb.phiRow, phi); isNew {
			tb.zph = slices.Grow(tb.zph, p+1+laneSlack)[:len(tb.zph)+p+1]
			fillPhases(tb.zph[len(tb.zph)-(p+1):], phi)
		}
		if op.rho, isNew = rowOf(&tb.rhoRow, rho); isNew {
			tb.rpow = slices.Grow(tb.rpow, 2*p+2+laneSlack)[:len(tb.rpow)+2*p+2]
			fillInvPowers(tb.rpow[len(tb.rpow)-(2*p+2):], rho)
		}
		tb.ops = append(tb.ops, op)
	}
	tb.nStack = len(tb.thetas)
	tb.stacks = slices.Grow(tb.stacks, (tb.nStack-lo)*tb.hl)[:tb.nStack*tb.hl]
	tb.ordThetas()
	tb.wideOK.Store(false)
	return lo, tb.nStack
}

// BuildRotRange fills half stacks [lo, hi) from their planned angles.
// Distinct ranges may build concurrently.
func (tb *M2LTable) BuildRotRange(lo, hi int) {
	tb.mu.Lock()
	var r *rotWorkspace
	if n := len(tb.free); n > 0 {
		r, tb.free = tb.free[n-1], tb.free[:n-1]
	}
	tb.mu.Unlock()
	if r == nil {
		r = newRotWorkspace(tb.p)
	}
	for ri := lo; ri < hi; ri++ {
		r.halfStackInto(tb.stacks[ri*tb.hl:(ri+1)*tb.hl], tb.p, tb.thetas[ri].theta)
	}
	tb.mu.Lock()
	tb.free = append(tb.free, r)
	tb.mu.Unlock()
}

// stackViews points views[l] at degree l's block of the flat stack.
func stackViews(views [][]float64, flat []float64) {
	off := 0
	for l := range views {
		views[l] = flat[off : off+(2*l+1)*(2*l+1)]
		off += (2*l + 1) * (2*l + 1)
	}
}

// fillPhases sets dst[m] = e^{i m phi}.
func fillPhases(dst []complex128, phi float64) {
	for m := range dst {
		dst[m] = cmplx.Exp(complex(0, float64(m)*phi))
	}
}

// fillInvPowers sets dst[i] = rho^-(i+1) by repeated multiplication.
func fillInvPowers(dst []float64, rho float64) {
	inv := 1 / rho
	dst[0] = inv
	for i := 1; i < len(dst); i++ {
		dst[i] = dst[i-1] * inv
	}
}

// signedWignerInto fills the per-degree blocks stack[0..p] (views of one
// flat stack, see stackViews) with the pre-signed Wigner stack of theta:
// entry (m', m) times sigma(m') sigma(m). The sign matrix is symmetric, so
// the same stack serves the transposed forward rotation and the
// untransposed back rotation.
func signedWignerInto(stack [][]float64, p int, theta float64) {
	WignerStackInto(stack, p, theta)
	for n := 0; n <= p; n++ {
		dim := 2*n + 1
		d := stack[n]
		for i := 0; i < dim; i++ {
			si := sigma(i - n)
			for j := 0; j < dim; j++ {
				d[i*dim+j] = d[i*dim+j] * si * sigma(j-n)
			}
		}
	}
}

// halfStackInto is the one fold every M2L path builds its rotation with:
// it computes the full signed stack of theta into r's scratch and folds it
// into dst (halfLen(p) floats). With
//
//	P[m'][m] = w(m',m) + w(m',-m),  Q[m'][m] = w(m',m) - w(m',-m)   (m >= 1)
//
// and w(m',0) in column 0 of both, Re out = P Re in and Im out = Q Im in
// for Hermitian-packed coefficients (rotateHalf). The layout is lane-major:
// per degree n, column after column (m = 0..n), a column being its P
// entries for rows m' = 0..lanePad(n+1)-1 followed by its Q entries, so
// that laneWidth consecutive outputs of the rotation read one contiguous
// group. Rows m' > n are padding, written as +0 on every call (dst may be
// a recycled table slab).
func (r *rotWorkspace) halfStackInto(dst []float64, p int, theta float64) {
	signedWignerInto(r.stack, p, theta)
	off := 0
	for n := 0; n <= p; n++ {
		h, dim := n+1, 2*n+1
		hp := lanePad(h)
		blk := dst[off : off+2*hp*h] // column m at blk[2*hp*m:], its Q entries hp on
		off += len(blk)
		for mp := 0; mp <= n; mp++ {
			row := r.stack[n][(mp+n)*dim:][:dim] // w(m', -n..n)
			blk[mp], blk[hp+mp] = row[n], row[n]
			for m, o := 1, 2*hp+mp; m <= n; m, o = m+1, o+2*hp {
				blk[o], blk[o+hp] = row[n+m]+row[n-m], row[n+m]-row[n-m]
			}
		}
		for o := h; o < len(blk); o += hp { // the padding rows of every P and Q run
			clear(blk[o : o+hp-h])
		}
	}
}

// M2LBatchTable accumulates into l the local expansions at the target of
// every source multipole in srcs through the class table: classes[i] is
// the translation class of srcs[i] (from the octree class schedule).
// The target center is not needed (every class carries its geometry); the
// parameter keeps M2LBatch's call shape. Results are bit-identical to
// M2LBatch for the same sources.
func (w *Workspace) M2LBatchTable(l Expansion, _ geom.Vec3, srcs []M2LSource, classes []int32, tb *M2LTable) {
	for i := range srcs {
		half, zph, rpow := tb.setup(w.rot, classes[i])
		w.m2lApply(l, srcs[i].M.C, half, zph, rpow, w.axb)
	}
}

// M2LBatchTable4 is M2LBatchTable at kernel width 4: srcs[i].M[c]
// translates into l[c], one class lookup (and, for a spilled theta, one
// fold) per pair serving all four columns. l[c] ends bit-identical to
// M2LBatchTable over column c's sources alone.
func (w *Workspace) M2LBatchTable4(l *[4]Expansion, srcs []M2LSource4, classes []int32, tb *M2LTable) {
	p := tb.p
	tb.widen()
	for i := range srcs {
		op := tb.ops[classes[i]]
		w.m2lApply4(l, &srcs[i].M, tb.halfStack(w.rot, int(op.theta)),
			tb.zph4[int(op.phi)*(2*p+2):][:2*p+2], tb.rpow4[int(op.rho)*(2*p+2):][:2*p+2], w.axb)
	}
}

// widen makes zph4 and rpow4 for the rows of the last Plan or Extend, once.
func (tb *M2LTable) widen() {
	if tb.wideOK.Load() {
		return
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if tb.wideOK.Load() {
		return
	}
	n := 2*tb.p + 2
	tb.zph4 = slices.Grow(tb.zph4[:0], len(tb.zph)/(tb.p+1)*n)[:len(tb.zph)/(tb.p+1)*n]
	for i, z := range tb.zph {
		c, s := real(z), imag(z)
		tb.zph4[2*i], tb.zph4[2*i+1] = [4]float64{c, c, c, c}, [4]float64{s, s, s, s}
	}
	tb.rpow4 = slices.Grow(tb.rpow4[:0], len(tb.rpow))[:len(tb.rpow)]
	for i, r := range tb.rpow {
		tb.rpow4[i] = [4]float64{r, r, r, r}
	}
	tb.wideOK.Store(true)
}

// M2LPair is one translated pair of a theta-batched M2L: the multipole of
// cell M translates into the local of cell L through table class Class.
// Cells index slabs of PackedLen(p) coefficients a cell.
type M2LPair struct{ L, M, Class int32 }

// thetaPair is a pair as M2LBatchTheta runs it, in bucket order: its cells
// and its class's phi and rho rows (the bucket names the theta row).
type thetaPair struct{ l, m, phi, rho int32 }

// Pairs returns the workspace's reusable pair scratch, emptied, with room
// for n pairs (and M2LBatchTheta's scratch sized for as many).
func (w *Workspace) Pairs(n int) []M2LPair {
	w.pairs, w.sorted = slices.Grow(w.pairs[:0], n), slices.Grow(w.sorted[:0], n)
	return w.pairs
}

// M2LBatchTheta accumulates every pair's translation into its target
// through the class table, in theta batches; locals and mpoles are the
// slabs the pairs' cells index. The pairs are bucketed by the polar angle
// of their class, buckets in ascending angle, each keeping the pairs in
// the order given. A bucket shares one half stack (a spilled theta is
// folded once for the bucket); four consecutive pairs of it run as one
// four-column translation over that stack, each column with its own phases
// and radial powers, and the one to three left over run at width 1. A
// target therefore takes its translations in one order, theta ascending
// and then the order given, whatever else shares the call: it ends
// bit-identical to M2LBatchTable over its own pairs sorted stably by theta.
func (w *Workspace) M2LBatchTheta(locals, mpoles []complex128, pairs []M2LPair, tb *M2LTable) {
	// Counting sort by ord: end[b] counts up to bucket b's end.
	nb := len(tb.thetas)
	end := slices.Grow(w.bucket[:0], nb+1)[:nb+1]
	clear(end)
	for _, pr := range pairs {
		end[tb.ord[tb.ops[pr.Class].theta]+1]++
	}
	for b := 1; b <= nb; b++ {
		end[b] += end[b-1]
	}
	sorted := slices.Grow(w.sorted[:0], len(pairs))[:len(pairs)]
	for _, pr := range pairs {
		op := tb.ops[pr.Class]
		b := &end[tb.ord[op.theta]]
		sorted[*b] = thetaPair{pr.L, pr.M, op.phi, op.rho}
		*b++
	}
	w.bucket, w.sorted = end, sorted

	p, pl := tb.p, sphharm.PackedLen(tb.p)
	cell := func(slab []complex128, i int32) Expansion {
		return Expansion{P: p, C: slab[int(i)*pl:][:pl]}
	}
	zph := func(pr thetaPair) []complex128 { return tb.zph[int(pr.phi)*(p+1):][:p+1] }
	rpow := func(pr thetaPair) []float64 { return tb.rpow[int(pr.rho)*(2*p+2):][:2*p+2] }
	g := w.rot.wide(p)
	lo := int32(0)
	for b, hi := range end[:nb] {
		if lo == hi {
			continue
		}
		half := tb.halfStack(w.rot, int(tb.byValue[b].seen))
		k := lo
		for ; k+4 <= hi; k += 4 {
			var l, m [4]Expansion
			var zr [4][]complex128
			var rr [4][]float64
			for c, pr := range sorted[k : k+4] {
				l[c], m[c], zr[c], rr[c] = cell(locals, pr.l), cell(mpoles, pr.m), zph(pr), rpow(pr)
			}
			g.fill(&zr, &rr)
			w.m2lApply4(&l, &m, half, g.zph, g.rpow, w.axb)
		}
		for _, pr := range sorted[k:hi] {
			w.m2lApply(cell(locals, pr.l), mpoles[int(pr.m)*pl:][:pl], half, zph(pr), rpow(pr), w.axb)
		}
		lo = hi
	}
}

// halfStack returns theta row ti's half stack: its slab row, or for a
// spilled theta the same values folded into r's scratch.
func (tb *M2LTable) halfStack(r *rotWorkspace, ti int) []float64 {
	if ti < tb.nStack {
		return tb.stacks[ti*tb.hl : (ti+1)*tb.hl]
	}
	r.halfStackInto(r.half, tb.p, tb.thetas[ti].theta)
	return r.half
}

// setup returns the kernel's per-direction factors for class c; a spilled
// theta folds its half stack, the same values, into r's scratch.
func (tb *M2LTable) setup(r *rotWorkspace, c int32) (half []float64, zph []complex128, rpow []float64) {
	p, op := tb.p, tb.ops[c]
	return tb.halfStack(r, int(op.theta)),
		tb.zph[int(op.phi)*(p+1) : int(op.phi+1)*(p+1)],
		tb.rpow[int(op.rho)*(2*p+2) : int(op.rho+1)*(2*p+2)]
}
