package expansion

import (
	"math"
	"math/cmplx"
	"slices"
	"sort"
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
// Only the theta slab is large (stackLen(p) floats per row), so it alone
// is bounded, by a fixed byte budget: when the distinct theta outgrow it
// (p >= ~16 on large trees) the least pair-weighted ones spill. A spill
// class computes its stack into the workspace scratch and runs the same
// kernel on the same values.
type M2LTable struct {
	p   int
	ops []m2lOp // per class
	// thetas holds the distinct polar angles, pair weight descending
	// (angle ascending on ties); the first nStack have a row in stacks.
	thetas []float64
	nStack int
	stacks []float64    // nStack rows of stackLen(p): pre-signed d^l(theta), l = 0..p
	zph    []complex128 // per distinct phi: e^{i m phi}, m = 0..p
	rpow   []float64    // per distinct rho: rho^-(i+1), i = 0..2p+1

	thetaBudget int // bytes; m2lThetaBudget outside tests
}

// m2lOp is one class: its rows in the theta, phi and rho slabs.
type m2lOp struct{ theta, phi, rho int32 }

// m2lThetaBudget bounds the theta slab. At p=8 a row is 7.6 KB and a
// 100k-body Plummer tree has ~3000 distinct theta (23 MB); the budget is
// reached near p=16.
const m2lThetaBudget = 128 << 20

// NewM2LTable creates an empty table for order-p translations.
func NewM2LTable(p int) *M2LTable { return &M2LTable{p: p, thetaBudget: m2lThetaBudget} }

// Rotations returns the number of Wigner stacks the last Plan kept (the
// expensive part of the table).
func (tb *M2LTable) Rotations() int { return tb.nStack }

// HasRot reports whether class c translates through a precomputed Wigner
// stack (false means its theta spilled out of the byte budget).
func (tb *M2LTable) HasRot(c int) bool { return int(tb.ops[c].theta) < tb.nStack }

// stackLen is the float count of a flat Wigner stack of degrees 0..p:
// degree l is a dense (2l+1)x(2l+1) block, blocks in degree order.
func stackLen(p int) int { return (p + 1) * (2*p + 1) * (2*p + 3) / 3 }

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
	if cap(tb.ops) < len(dirs) {
		tb.ops = make([]m2lOp, len(dirs))
	}
	tb.ops = tb.ops[:len(dirs)]
	tb.zph, tb.rpow = tb.zph[:0], tb.rpow[:0]
	thetaRow := make(map[uint64]int32, 1024)
	phiRow := make(map[uint64]int32, 1024)
	rhoRow := make(map[uint64]int32, 1024)
	var thetas []float64 // first-seen order, ranked below
	var weight []int64
	for ci, d := range dirs {
		rho, theta, phi := d.Spherical()
		op := &tb.ops[ci]
		var isNew bool
		if op.theta, isNew = rowOf(thetaRow, theta); isNew {
			thetas = append(thetas, theta)
			weight = append(weight, 0)
		}
		if pairsPerClass != nil {
			weight[op.theta] += pairsPerClass[ci]
		} else {
			weight[op.theta]++
		}
		if op.phi, isNew = rowOf(phiRow, phi); isNew {
			tb.zph = slices.Grow(tb.zph, p+1)[:len(tb.zph)+p+1]
			fillPhases(tb.zph[len(tb.zph)-(p+1):], phi)
		}
		if op.rho, isNew = rowOf(rhoRow, rho); isNew {
			tb.rpow = slices.Grow(tb.rpow, 2*p+2)[:len(tb.rpow)+2*p+2]
			fillInvPowers(tb.rpow[len(tb.rpow)-(2*p+2):], rho)
		}
	}
	// Rank theta by pair weight, angle as tie-break, and renumber.
	order := make([]int32, len(thetas))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if weight[i] != weight[j] {
			return weight[i] > weight[j]
		}
		return thetas[i] < thetas[j]
	})
	rank := make([]int32, len(order))
	tb.thetas = tb.thetas[:0]
	for r, i := range order {
		rank[i] = int32(r)
		tb.thetas = append(tb.thetas, thetas[i])
	}
	for ci := range tb.ops {
		tb.ops[ci].theta = rank[tb.ops[ci].theta]
	}
	sl := stackLen(p)
	tb.nStack = min(len(tb.thetas), tb.thetaBudget/(8*sl))
	if cap(tb.stacks) < tb.nStack*sl {
		tb.stacks = make([]float64, tb.nStack*sl)
	}
	tb.stacks = tb.stacks[:tb.nStack*sl]
	return tb.nStack
}

// BuildRotRange fills Wigner stacks [lo, hi) from their planned angles.
// Distinct ranges may build concurrently.
func (tb *M2LTable) BuildRotRange(lo, hi int) {
	sl := stackLen(tb.p)
	views := make([][]float64, tb.p+1)
	for ri := lo; ri < hi; ri++ {
		stackViews(views, tb.stacks[ri*sl:(ri+1)*sl])
		signedWignerInto(views, tb.p, tb.thetas[ri])
	}
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

// M2LBatchTable accumulates into l the local expansions at the target of
// every source multipole in srcs through the class table: classes[i] is
// the translation class of srcs[i] (from the octree class schedule).
// The target center is not needed (every class carries its geometry); the
// parameter keeps M2LBatch's call shape. Results are bit-identical to
// M2LBatch for the same sources.
func (w *Workspace) M2LBatchTable(l Expansion, _ geom.Vec3, srcs []M2LSource, classes []int32, tb *M2LTable) {
	p := l.P
	sl := stackLen(p)
	for i := range srcs {
		op := tb.ops[classes[i]]
		var stack []float64
		if ti := int(op.theta); ti < tb.nStack {
			stack = tb.stacks[ti*sl : (ti+1)*sl]
		} else {
			// Spilled theta: same values, computed into the scratch.
			stack = w.rot.flat
			signedWignerInto(w.rot.stack, p, tb.thetas[ti])
		}
		w.m2lApply(l, srcs[i].M.C, stack,
			tb.zph[int(op.phi)*(p+1):int(op.phi+1)*(p+1)],
			tb.rpow[int(op.rho)*(2*p+2):int(op.rho+1)*(2*p+2)])
	}
}
