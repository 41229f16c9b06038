package expansion

import (
	"cmp"
	"math"
	"math/cmplx"
	"slices"
	"sync"

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
type M2LTable struct {
	p   int
	ops []m2lOp // per class
	// thetas holds the distinct polar angles, pair weight descending
	// (angle ascending on ties); the first nStack have a row in stacks.
	thetas []thetaKey
	nStack int
	stacks []float64    // nStack rows of halfLen(p): half stacks of d^l(theta), l = 0..p
	zph    []complex128 // per distinct phi: e^{i m phi}, m = 0..p
	rpow   []float64    // per distinct rho: rho^-(i+1), i = 0..2p+1

	thetaBudget int // bytes; m2lThetaBudget outside tests

	// Plan scratch, kept across list epochs so a re-plan does not allocate.
	thetaRow, phiRow, rhoRow map[uint64]int32
	rank                     []int32 // first-seen row -> ranked row

	// Full-stack scratch of BuildRotRange, one per concurrent range.
	mu   sync.Mutex
	free []*rotWorkspace
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

// m2lThetaBudget bounds the theta slab. At p=8 a row is 4.5 KB and a
// 100k-body Plummer tree has ~3000 distinct theta (13.6 MB); the budget is
// reached near p=19.
const m2lThetaBudget = 128 << 20

// NewM2LTable creates an empty table for order-p translations.
func NewM2LTable(p int) *M2LTable {
	return &M2LTable{p: p, thetaBudget: m2lThetaBudget,
		thetaRow: map[uint64]int32{}, phiRow: map[uint64]int32{}, rhoRow: map[uint64]int32{}}
}

// Rotations returns the number of Wigner stacks the last Plan kept (the
// expensive part of the table).
func (tb *M2LTable) Rotations() int { return tb.nStack }

// HasRot reports whether class c translates through a precomputed Wigner
// stack (false means its theta spilled out of the byte budget).
func (tb *M2LTable) HasRot(c int) bool { return int(tb.ops[c].theta) < tb.nStack }

// stackLen is the float count of a flat Wigner stack of degrees 0..p:
// degree l is a dense (2l+1)x(2l+1) block, blocks in degree order.
func stackLen(p int) int { return (p + 1) * (2*p + 1) * (2*p + 3) / 3 }

// halfLen is the float count of a half stack of degrees 0..p: degree l
// holds l+1 row pairs (P row, Q row) of l+1 entries.
func halfLen(p int) int { return (p + 1) * (p + 2) * (2*p + 3) / 3 }

var axialBases [sphharm.MaxOrder + 1]struct {
	once sync.Once
	axb  []float64
}

// axialBase returns sk * Anm(n,k) * Anm(j,k) * Fact[j+n] flattened over
// the axial loop (j = 0..p, k = 0..j, n = k..p): the leading factors of
// the axial M2L term in evaluation order; the kernel multiplies in the
// radial power. Built once per order.
func axialBase(p int) []float64 {
	e := &axialBases[p]
	e.once.Do(func() {
		t := sphharm.NewTables(p)
		for j := 0; j <= p; j++ {
			sj := 1.0
			if j%2 == 1 {
				sj = -1
			}
			for k := 0; k <= j; k++ {
				sk := sj
				if k%2 == 1 {
					sk = -sk
				}
				ajk := t.Anm(j, k)
				for n := k; n <= p; n++ {
					e.axb = append(e.axb, sk*t.Anm(n, k)*ajk*t.Fact[j+n])
				}
			}
		}
	})
	return e.axb
}

// rowOf returns the slab row keyed by the exact bits of x, assigning the
// next row (first-seen order, so the layout is deterministic) when new.
func rowOf(rows map[uint64]int32, x float64) (row int32, isNew bool) {
	k := math.Float64bits(x)
	row, ok := rows[k]
	if !ok {
		row = int32(len(rows))
		rows[k] = row
	}
	return row, !ok
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
	clear(tb.thetaRow)
	clear(tb.phiRow)
	clear(tb.rhoRow)
	keys := tb.thetas[:0] // first-seen order, ranked below
	for ci, d := range dirs {
		rho, theta, phi := d.Spherical()
		op := &tb.ops[ci]
		var isNew bool
		if op.theta, isNew = rowOf(tb.thetaRow, theta); isNew {
			keys = append(keys, thetaKey{theta: theta, seen: op.theta})
		}
		if pairsPerClass != nil {
			keys[op.theta].weight += pairsPerClass[ci]
		} else {
			keys[op.theta].weight++
		}
		if op.phi, isNew = rowOf(tb.phiRow, phi); isNew {
			tb.zph = slices.Grow(tb.zph, p+1)[:len(tb.zph)+p+1]
			fillPhases(tb.zph[len(tb.zph)-(p+1):], phi)
		}
		if op.rho, isNew = rowOf(tb.rhoRow, rho); isNew {
			tb.rpow = slices.Grow(tb.rpow, 2*p+2)[:len(tb.rpow)+2*p+2]
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
	hl := halfLen(p)
	tb.nStack = min(len(tb.thetas), tb.thetaBudget/(8*hl))
	tb.stacks = slices.Grow(tb.stacks[:0], tb.nStack*hl)[:tb.nStack*hl]
	return tb.nStack
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
	hl := halfLen(tb.p)
	for ri := lo; ri < hi; ri++ {
		r.halfStackInto(tb.stacks[ri*hl:(ri+1)*hl], tb.p, tb.thetas[ri].theta)
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
// into dst (halfLen(p) floats). Per degree n and row m' = 0..n it stores
//
//	P[m'][m] = w(m',m) + w(m',-m),  Q[m'][m] = w(m',m) - w(m',-m)   (m >= 1)
//
// and w(m',0) in column 0 of both, row pair after row pair, so that for
// Hermitian-packed coefficients Re out = P Re in and Im out = Q Im in
// (rotateHalf).
func (r *rotWorkspace) halfStackInto(dst []float64, p int, theta float64) {
	signedWignerInto(r.stack, p, theta)
	off := 0
	for n := 0; n <= p; n++ {
		h := n + 1
		for mp := 0; mp <= n; mp++ {
			row := r.stack[n][(mp+n)*(2*n+1):][:2*n+1] // w(m', -n..n)
			pr, qr := dst[off:off+h], dst[off+h:off+2*h]
			off += 2 * h
			pr[0], qr[0] = row[n], row[n]
			for m := 1; m <= n; m++ {
				pr[m], qr[m] = row[n+m]+row[n-m], row[n+m]-row[n-m]
			}
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
	p := l.P
	hl := halfLen(p)
	for i := range srcs {
		op := tb.ops[classes[i]]
		var half []float64
		if ti := int(op.theta); ti < tb.nStack {
			half = tb.stacks[ti*hl : (ti+1)*hl]
		} else {
			// Spilled theta: same values, folded into the scratch.
			half = w.rot.half
			w.rot.halfStackInto(half, p, tb.thetas[ti].theta)
		}
		w.m2lApply(l, srcs[i].M.C, half,
			tb.zph[int(op.phi)*(p+1):int(op.phi+1)*(p+1)],
			tb.rpow[int(op.rho)*(2*p+2):int(op.rho+1)*(2*p+2)])
	}
}

// M2LBatchTable4 is M2LBatchTable at kernel width 4: srcs[i].M[c]
// translates into l[c], one class lookup (and, for a spilled theta, one
// fold) per pair serving all four columns. l[c] ends bit-identical to
// M2LBatchTable over column c's sources alone.
func (w *Workspace) M2LBatchTable4(l *[4]Expansion, srcs []M2LSource4, classes []int32, tb *M2LTable) {
	p := l[0].P
	hl := halfLen(p)
	for i := range srcs {
		op := tb.ops[classes[i]]
		var half []float64
		if ti := int(op.theta); ti < tb.nStack {
			half = tb.stacks[ti*hl : (ti+1)*hl]
		} else {
			half = w.rot.half
			w.rot.halfStackInto(half, p, tb.thetas[ti].theta)
		}
		w.m2lApply4(l, &srcs[i].M, half,
			tb.zph[int(op.phi)*(p+1):int(op.phi+1)*(p+1)],
			tb.rpow[int(op.rho)*(2*p+2):int(op.rho+1)*(2*p+2)])
	}
}
