package expansion

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"afmm/internal/geom"
	"afmm/internal/octree"
	"afmm/internal/sphharm"
)

// The M2L contracts, each checked by one harness over one set of inputs
// (m2lCases, thetaCases, checkPlans). Every input row names the test that
// carries it, so each harness runs once per row:
//
//   - bit identity (formsHarness): every form equals the uncached
//     reference M2LBatch bit for bit under both dispatch states, and the
//     reference leaves the same bits in both;
//   - the oracle (oracleHarness): every translation equals the complex
//     oracle of commit 14d1dcf to rounding;
//   - allocation (allocHarness): once warm, no form allocates.

func randomExpansion(p int, rng *rand.Rand) Expansion {
	e := NewExpansion(p)
	for i := range e.C {
		e.C[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	// m = 0 coefficients of a real potential are real.
	for n := 0; n <= p; n++ {
		i := sphharm.Idx(n, 0)
		e.C[i] = complex(real(e.C[i]), 0)
	}
	return e
}

// randomQuads draws four random source columns over the given centers: the
// pairs as the four-column kernel takes them, and column by column as the
// single-column forms do.
func randomQuads(p int, rng *rand.Rand, froms []geom.Vec3) (quads []M2LSource4, cols [4][]M2LSource) {
	for _, from := range froms {
		var q M2LSource4
		for c := range cols {
			q.M[c] = randomExpansion(p, rng)
			cols[c] = append(cols[c], M2LSource{M: q.M[c], From: from})
		}
		quads = append(quads, q)
	}
	return quads, cols
}

// randomLocals returns four locals with random content, and a copy.
func randomLocals(p int, rng *rand.Rand) (a, b [4]Expansion) {
	for c := range a {
		a[c], b[c] = randomExpansion(p, rng), NewExpansion(p)
		copy(b[c].C, a[c].C)
	}
	return a, b
}

// firstDiff returns the first coefficient whose bits differ between a and
// b, or -1.
func firstDiff(a, b []complex128) int {
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return i
		}
	}
	return -1
}

// tableFor builds a table and class indices for translations from froms to
// to: one class per distinct offset, as the octree schedule keys them,
// weighted by the translations' weights (nil: one each). rotCap > 0 shrinks
// the theta byte budget to rotCap stacks, so the remaining theta spill
// (0: the production budget).
func tableFor(p int, to geom.Vec3, froms []geom.Vec3, weight []int64, rotCap int) (*M2LTable, []int32) {
	byDir := map[geom.Vec3]int32{}
	var dirs []geom.Vec3
	var pairs []int64
	classes := make([]int32, len(froms))
	for i, from := range froms {
		d := from.Sub(to)
		c, ok := byDir[d]
		if !ok {
			c = int32(len(dirs))
			byDir[d] = c
			dirs, pairs = append(dirs, d), append(pairs, 0)
		}
		pairs[c]++
		if weight != nil {
			pairs[c] += weight[i] - 1
		}
		classes[i] = c
	}
	return buildTable(p, dirs, pairs, rotCap), classes
}

func buildTable(p int, dirs []geom.Vec3, pairs []int64, rotCap int) *M2LTable {
	tb := NewM2LTable(p)
	if rotCap > 0 {
		tb.thetaBudget = rotCap * 8 * halfLen(p)
	}
	tb.BuildRotRange(0, tb.Plan(dirs, pairs, 0))
	return tb
}

// checkPlan asserts the stack election of tableFor's table for the
// translations of classes weighing weight: in budget every theta has a
// stack, squeezed to rotCap stacks exactly that many stay, and no spilled
// theta carries more pairs than a kept one.
func checkPlan(t *testing.T, name string, tb *M2LTable, classes []int32, weight []int64, rotCap int) {
	t.Helper()
	want := len(tb.thetas)
	if rotCap > 0 {
		want = min(want, rotCap)
	}
	if tb.Rotations() != want {
		t.Fatalf("%s rotCap=%d: %d stacks for %d theta, want %d", name, rotCap, tb.Rotations(), len(tb.thetas), want)
	}
	pairs := make([]int64, len(tb.thetas))
	for i, c := range classes {
		if pairs[tb.ops[c].theta]++; weight != nil {
			pairs[tb.ops[c].theta] += weight[i] - 1
		}
	}
	kept, spilled := pairs[:tb.Rotations()], pairs[tb.Rotations():]
	if len(kept) > 0 && len(spilled) > 0 && slices.Min(kept) < slices.Max(spilled) {
		t.Fatalf("%s rotCap=%d: a kept theta carries %d pairs, a spilled one %d", name, rotCap, slices.Min(kept), slices.Max(spilled))
	}
}

// fusedClassStride thins the real trees' sampled classes above p = 4 for
// the bit-identity harness, which runs every form on each of them (the
// oracle harness visits them all).
const fusedClassStride = 8

// m2lCase is one input of the translation harnesses: one translation from
// each of froms to to at order p, of four random source columns onto
// random nonzero locals.
type m2lCase struct {
	name   string
	p      int
	to     geom.Vec3
	froms  []geom.Vec3
	weight []int64 // per translation, its class's pair count (nil: one each)
	spill  int     // the stacks a squeezed table keeps
	forms  string  // the test that runs it through the bit-identity harness
	oracle string  // the test that runs it through the oracle harness ("": none),
	direct bool    // summing it through the direct M2L as well
	seed   int64
}

// The tests the input rows name.
const (
	bitIdentical  = "TestM2LBatchTableBitIdentical"
	randomTrees   = "TestM2LBatchTableRandomTrees"
	realTrees     = "TestM2LTableRealTrees"
	fused         = "TestM2LFusedMatchesSingle"
	packedScalar  = "TestM2LPackedMatchesScalar"
	thetaSorted   = "TestM2LBatchThetaMatchesSortedTable"
	quadSingle    = "TestM2LQuadMatchesSingle"
	kernelOracle  = "TestM2LKernelMatchesOracle"
	rotatedOracle = "TestM2LBatchMatchesRotated"
	directOracle  = "TestM2LBatchMatchesDirect"
)

// m2lCases returns the translation inputs: the golden batch at every
// oracle order; the axial offsets, random offsets and the first V-list
// offsets of a real tree at every packed order; the sampled classes of the
// three real trees at every oracle order (above p = 4 every
// fusedClassStride-th when thin); lattice batches, random batches of
// repeated directions under random budgets, and the batches of the
// rotated and direct oracles.
func m2lCases(thin bool) (cases []m2lCase) {
	add := func(c m2lCase) { c.seed = int64(len(cases)); cases = append(cases, c) }
	for _, p := range packedOrders {
		oracle := ""
		if slices.Contains(oracleOrders, p) {
			oracle = kernelOracle
			to, srcs := goldenBatch(p)
			golden := m2lCase{name: "golden", p: p, to: to, spill: 5, forms: fused, oracle: oracle}
			for _, s := range srcs {
				golden.froms = append(golden.froms, s.From)
			}
			add(golden)
		}
		add(m2lCase{name: "axial", p: p, froms: axialOffsets, spill: 2, forms: packedScalar, oracle: oracle})
	}
	for _, tc := range treeCases {
		tr := octree.Build(tc.sys(), octree.Config{S: 24})
		tr.BuildLists()
		cls := tr.M2LClasses()
		for _, p := range oracleOrders {
			c := m2lCase{name: tc.name, p: p, spill: 5, forms: realTrees, oracle: kernelOracle}
			for i, ci := range sampledClasses(cls.Classes(), p) {
				if !thin || p <= 4 || i%fusedClassStride == 0 {
					c.froms, c.weight = append(c.froms, cls.Dirs[ci]), append(c.weight, cls.PairsPerClass[ci])
				}
			}
			add(c)
		}
		if tc.name == treeCases[0].name {
			var vlist []geom.Vec3 // the first 400 V-list offsets
			for ni := 0; ni < len(tr.Nodes) && len(vlist) < 400; ni++ {
				for _, vi := range tr.Nodes[ni].V {
					vlist = append(vlist, tr.Nodes[vi].Box.Center.Sub(tr.Nodes[ni].Box.Center))
				}
			}
			for _, p := range packedOrders {
				stride := 1 // O(p^3) a translation
				if p > 8 {
					stride = 1 + p*p*p/200
				}
				if testing.Short() {
					stride *= 4
				}
				c := m2lCase{name: "tree V lists", p: p, spill: 3, forms: packedScalar}
				for i := 0; i < len(vlist); i += stride {
					c.froms = append(c.froms, vlist[i])
				}
				add(c)
			}
		}
	}
	rng := rand.New(rand.NewSource(21))
	lattice := []geom.Vec3{{X: 3}, {Y: 3, Z: 1.5}, {X: -3, Y: 3, Z: -3}, {X: 2, Y: -2, Z: 2}}
	for _, p := range []int{2, 3, 5, 8, 12} {
		c := m2lCase{name: "lattice", p: p, to: geom.Vec3{X: 0.3, Y: -0.1, Z: 0.2}, spill: 3, forms: bitIdentical}
		for rep := 0; rep < 3; rep++ {
			for _, d := range lattice {
				c.froms = append(c.froms, c.to.Add(d))
			}
		}
		for i := 0; i < 6; i++ {
			c.froms = append(c.froms, c.to.Add(geom.Vec3{X: 3 + rng.Float64(), Y: -2 + rng.Float64(), Z: 2 + rng.Float64()}))
		}
		add(c)
	}
	rng = rand.New(rand.NewSource(22))
	for trial := 0; trial < 50; trial++ {
		c := m2lCase{name: fmt.Sprintf("random %d", trial), p: 6, to: geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}, forms: randomTrees}
		dirs := make([]geom.Vec3, 1+rng.Intn(8))
		for i := range dirs { // well separated, as the MAC guarantees
			sign := func() float64 { return float64(1 - 2*rng.Intn(2)) }
			dirs[i] = geom.Vec3{X: (2 + 3*rng.Float64()) * sign(), Y: (2 + 3*rng.Float64()) * sign(), Z: (2 + 3*rng.Float64()) * sign()}
		}
		for i := 0; i < 1+rng.Intn(20); i++ {
			c.froms = append(c.froms, c.to.Add(dirs[rng.Intn(len(dirs))]))
		}
		c.spill = 1 + rng.Intn(len(dirs)+2)
		add(c)
	}
	rng = rand.New(rand.NewSource(5))
	for _, p := range []int{2, 4, 8, 12} {
		c := m2lCase{name: "rotated", p: p, to: geom.Vec3{X: 0.1, Y: -0.2, Z: 0.05}, spill: 2, forms: bitIdentical, oracle: rotatedOracle, direct: true}
		for rep := 0; rep < 4; rep++ {
			for _, d := range []geom.Vec3{{X: 3}, {Y: 3, Z: 1.5}, {X: -3, Y: 3, Z: -3}} {
				c.froms = append(c.froms, c.to.Add(d))
			}
		}
		for i := 0; i < 5; i++ {
			c.froms = append(c.froms, c.to.Add(geom.Vec3{X: 4 + rng.Float64(), Y: -3 + rng.Float64(), Z: 2 + rng.Float64()}))
		}
		add(c)
	}
	rng = rand.New(rand.NewSource(9))
	direct := m2lCase{name: "direct", p: 8, spill: 2, forms: bitIdentical, oracle: directOracle, direct: true}
	for i := 0; i < 10; i++ {
		direct.froms = append(direct.froms, geom.Vec3{X: 3 + rng.Float64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()})
	}
	add(direct)
	for _, p := range packedOrders {
		add(m2lCase{name: "random offsets", p: p, froms: benchDirs(rand.New(rand.NewSource(int64(90+p))), 24), spill: 2, forms: packedScalar})
	}
	return cases
}

// checkForms holds every form to the reference on case c in the current
// dispatch state. Per translation M2LBatch makes the reference of column 0
// once, and the table in budget and squeezed to c.spill stacks (whose
// election checkPlan asserts) must reproduce it at width 1; the width-1
// table then gives the other columns, and the four-column form from both
// tables must reproduce all four. refs holds the reference's hashes from
// the first state run, so the second checks the states agree.
func checkForms(t *testing.T, c m2lCase, refs map[string][]uint64) {
	t.Helper()
	p, key := c.p, fmt.Sprintf("%s p=%d", c.name, c.p)
	rng := rand.New(rand.NewSource(c.seed))
	quads, cols := randomQuads(p, rng, c.froms)
	start, _ := randomLocals(p, rng)
	var tables [2]*M2LTable
	var classes []int32
	for k, rotCap := range []int{0, c.spill} {
		tables[k], classes = tableFor(p, c.to, c.froms, c.weight, rotCap)
		checkPlan(t, key, tables[k], classes, c.weight, rotCap)
	}
	w := NewWorkspace(p)
	var ref, got [4]Expansion
	for k := range ref {
		ref[k], got[k] = NewExpansion(p), NewExpansion(p)
	}
	reset := func(l *[4]Expansion) {
		for k := range l {
			copy(l[k].C, start[k].C)
		}
	}
	hashes, seen := refs[key], refs[key] != nil
	for i := range c.froms {
		one, cl := func(k int) []M2LSource { return cols[k][i : i+1] }, classes[i:i+1]
		fail := func(form string, k, at int) {
			t.Fatalf("%s offset %v column %d coefficient %d: %s %v, reference %v",
				key, c.froms[i].Sub(c.to), k, at, form, got[k].C[at], ref[k].C[at])
		}
		reset(&ref)
		w.M2LBatch(ref[0], c.to, one(0))
		if h := hashCoeffs(ref[0].C); !seen {
			hashes = append(hashes, h)
		} else if h != hashes[i] {
			t.Fatalf("%s offset %v: M2LBatch leaves different bits under the two dispatch states", key, c.froms[i].Sub(c.to))
		}
		for k, tb := range tables {
			reset(&got)
			w.M2LBatchTable(got[0], c.to, one(0), cl, tb)
			if at := firstDiff(got[0].C, ref[0].C); at >= 0 {
				fail([]string{"table", "squeezed table"}[k], 0, at)
			}
		}
		for k := 1; k < 4; k++ {
			w.M2LBatchTable(ref[k], c.to, one(k), cl, tables[0])
		}
		for k, tb := range tables {
			reset(&got)
			w.M2LBatchTable4(&got, quads[i:i+1], cl, tb)
			for col := range got {
				if at := firstDiff(got[col].C, ref[col].C); at >= 0 {
					fail([]string{"four-column table", "squeezed four-column table"}[k], col, at)
				}
			}
		}
	}
	refs[key] = hashes
}

// checkElection holds the stack election of the three real trees' class
// schedules at p = 4: the table in budget and squeezed to five stacks
// elects its stacks as checkPlan asserts.
func checkElection(t *testing.T) {
	const p = 4
	for _, tc := range treeCases {
		tr := octree.Build(tc.sys(), octree.Config{S: 24})
		tr.BuildLists()
		cls := tr.M2LClasses()
		classes := make([]int32, cls.Classes())
		for c := range classes {
			classes[c] = int32(c)
		}
		for _, rotCap := range []int{0, 5} {
			checkPlan(t, tc.name, buildTable(p, cls.Dirs, cls.PairsPerClass, rotCap), classes, cls.PairsPerClass, rotCap)
		}
	}
}

// checkPlans holds Extend to Plan at p = 4: a table carried by Extend
// through eight list repairs of each real tree, the way core.SharedM2L
// carries it while the class schedule keeps its Gen, sets up every class
// with the bits of a table freshly planned for the same directions; and
// Extend re-plans a Plummer tree's table whose budget spilled, was exactly
// full, or would overflow by one theta, setting up the bits of a fresh
// Plan under that budget. A table's translations are a function of those
// bits (checkForms); the re-planned tables are returned for
// checkTranslations.
func checkPlans(t *testing.T) (replanned []replan) {
	const p = 4
	for _, tc := range treeCases {
		tr := octree.Build(tc.sys(), octree.Config{S: 24})
		tr.BuildLists()
		cls := tr.M2LClasses()
		rng := rand.New(rand.NewSource(43))
		tb := buildTable(p, cls.Dirs, cls.PairsPerClass, 0)
		gen, planned, extended := cls.Gen, cls.Classes(), 0
		for epoch := 0; epoch < 8; epoch++ {
			repairEpoch(tr, rng)
			cls = tr.M2LClasses()
			var lo, hi int
			if cls.Gen == gen {
				if lo, hi = tb.Extend(cls.Dirs, cls.PairsPerClass, planned); lo != 0 {
					extended++
				}
			} else {
				hi = tb.Plan(cls.Dirs, cls.PairsPerClass, 0)
			}
			tb.BuildRotRange(lo, hi)
			gen, planned = cls.Gen, cls.Classes()
			if tb.Rotations() != len(tb.thetas) {
				t.Fatalf("%s epoch %d: in-budget table spilled", tc.name, epoch)
			}
			requireSetupBits(t, tb, buildTable(p, cls.Dirs, cls.PairsPerClass, 0), cls.Classes(), fmt.Sprintf("%s epoch %d", tc.name, epoch))
		}
		if extended == 0 {
			t.Fatalf("%s: no epoch extended the table", tc.name)
		}
	}

	for _, squeeze := range []string{"spilled", "full", "full-one-theta"} {
		rng := rand.New(rand.NewSource(44))
		tr := octree.Build(treeCases[0].sys(), octree.Config{S: 24})
		tr.BuildLists()
		cls := tr.M2LClasses()
		tb := buildTable(p, cls.Dirs, cls.PairsPerClass, 5)
		if squeeze != "spilled" {
			tb = buildTable(p, cls.Dirs, cls.PairsPerClass, 0)
			tb.thetaBudget = tb.Rotations() * 8 * tb.hl
		}
		// Repair until the schedule appends a class with an unseen theta.
		newTheta := func(dirs []geom.Vec3) bool {
			return slices.ContainsFunc(dirs, func(d geom.Vec3) bool {
				return !slices.ContainsFunc(tb.thetas, func(k thetaKey) bool { return k.theta == polarAngle(d) })
			})
		}
		gen, planned := cls.Gen, cls.Classes()
		for epoch := 0; cls.Gen != gen || !newTheta(cls.Dirs[planned:]); epoch++ {
			if epoch == 50 {
				t.Fatalf("%s: no repair met a new theta in 50 epochs", squeeze)
			}
			if cls.Gen != gen {
				gen, planned = cls.Gen, cls.Classes()
				tb.BuildRotRange(0, tb.Plan(cls.Dirs, cls.PairsPerClass, 0))
			}
			repairEpoch(tr, rng)
			cls = tr.M2LClasses()
		}
		// full-one-theta extends through the first class with an unseen
		// theta only: one theta past a full budget re-plans too.
		end := len(cls.Dirs)
		if squeeze == "full-one-theta" {
			end = planned + 1 + slices.IndexFunc(cls.Dirs[planned:], func(d geom.Vec3) bool { return newTheta([]geom.Vec3{d}) })
		}
		lo, hi := tb.Extend(cls.Dirs[:end], cls.PairsPerClass[:end], planned)
		if lo != 0 || hi != tb.Rotations() || tb.Rotations() == len(tb.thetas) {
			t.Fatalf("%s: Extend kept [%d, %d) of %d stacks for %d theta instead of re-planning",
				squeeze, lo, hi, tb.Rotations(), len(tb.thetas))
		}
		if end < len(cls.Dirs) { // the spilled table re-plans for the rest
			lo, hi = tb.Extend(cls.Dirs, cls.PairsPerClass, end)
		}
		tb.BuildRotRange(lo, hi)
		fresh := NewM2LTable(p)
		fresh.thetaBudget = tb.thetaBudget
		fresh.BuildRotRange(0, fresh.Plan(cls.Dirs, cls.PairsPerClass, 0))
		requireSetupBits(t, tb, fresh, cls.Classes(), "squeezed, "+squeeze)
		replanned = append(replanned, replan{"squeezed, " + squeeze, tb, cls.Dirs})
	}
	return replanned
}

// replan is a table Extend re-planned, and the directions of its classes.
type replan struct {
	name string
	tb   *M2LTable
	dirs []geom.Vec3
}

// checkTranslations holds a table to the uncached M2LBatch over the
// direction of each of its classes: one random source onto a random local
// a class, bit for bit, in the current dispatch state.
func checkTranslations(t *testing.T, tb *M2LTable, dirs []geom.Vec3, stage string) {
	t.Helper()
	p := tb.p
	rng := rand.New(rand.NewSource(45))
	w := NewWorkspace(p)
	got, want := NewExpansion(p), NewExpansion(p)
	for c, d := range dirs {
		src := []M2LSource{{M: randomExpansion(p, rng), From: d}}
		start := randomExpansion(p, rng)
		copy(got.C, start.C)
		copy(want.C, start.C)
		w.M2LBatchTable(got, geom.Vec3{}, src, []int32{int32(c)}, tb)
		w.M2LBatch(want, geom.Vec3{}, src)
		if at := firstDiff(got.C, want.C); at >= 0 {
			t.Fatalf("%s: class %d offset %v coefficient %d: table %v, reference %v", stage, c, d, at, got.C[at], want.C[at])
		}
	}
}

func polarAngle(d geom.Vec3) float64 {
	_, theta, _ := d.Spherical()
	return theta
}

// thetaCase is one theta-batched call at order p: pairs over cells of
// random multipoles and locals, through the classes of dirs, the table
// squeezed to spill stacks (0: in budget).
type thetaCase struct {
	name  string
	p     int
	dirs  []geom.Vec3
	pairs []M2LPair
	spill int
	test  string // the test that runs it
}

// thetaCases returns the theta-batched inputs: pairs of six targets over
// classes four to a theta and singletons, so buckets hold full quads,
// remainders and lone pairs, in budget and with some theta spilled; and
// single quads of four classes sharing a theta — axial, or random with
// each column its own azimuth and length — into four distinct targets,
// one target four times, and two targets twice.
func thetaCases() (cases []thetaCase) {
	for _, p := range []int{3, 8} {
		rng := rand.New(rand.NewSource(int64(170 + p)))
		dirs := append(thetaQuads(benchDirs(rng, 12)), benchDirs(rng, 10)...)
		for _, spill := range []int{0, 9} {
			for trial := 0; trial < 4; trial++ {
				c := thetaCase{name: fmt.Sprintf("mixed spill=%d trial %d", spill, trial), p: p, dirs: dirs, spill: spill, test: thetaSorted}
				for i := 0; i < 200; i++ {
					c.pairs = append(c.pairs, M2LPair{L: int32(rng.Intn(6)), M: int32(rng.Intn(24)), Class: int32(rng.Intn(len(dirs)))})
				}
				cases = append(cases, c)
			}
		}
	}
	for _, p := range []int{0, 1, 2, 3, 4, 5, 6, 8, 12, 20} {
		rng := rand.New(rand.NewSource(int64(150 + p)))
		for trial := 0; trial < 6; trial++ {
			theta := math.Pi * rng.Float64()
			if trial == 0 {
				theta = 0 // axial: the stack is the identity's signs
			}
			st, ct := math.Sincos(theta)
			sp, cp := math.Sincos(2*math.Pi*rng.Float64() - math.Pi)
			rho := 1 + 3*rng.Float64()
			// (x, y) swaps keep theta to the bit, and so does scaling by
			// a power of two: each column its own azimuth and length.
			dirs := thetaQuads([]geom.Vec3{{X: rho * st * cp, Y: rho * st * sp, Z: rho * ct}})
			for c := range dirs {
				if dirs[c] = dirs[c].Scale(float64(int(1) << c)); polarAngle(dirs[c]) != polarAngle(dirs[0]) {
					panic(fmt.Sprintf("quad column %d has theta %v, column 0 %v", c, polarAngle(dirs[c]), polarAngle(dirs[0])))
				}
			}
			for _, targets := range [][4]int32{{0, 1, 2, 3}, {2, 2, 2, 2}, {0, 3, 0, 3}, {3, 2, 1, 0}} {
				c := thetaCase{name: fmt.Sprintf("quad trial %d targets %v", trial, targets), p: p, dirs: dirs, test: quadSingle}
				for k, l := range targets {
					c.pairs = append(c.pairs, M2LPair{L: l, M: int32(k), Class: int32(k)})
				}
				cases = append(cases, c)
			}
		}
	}
	return cases
}

// checkTheta runs c's pairs through one M2LBatchTheta call and holds every
// target to M2LBatch over its own pairs sorted stably by theta.
func checkTheta(t *testing.T, c thetaCase, seed int64) {
	t.Helper()
	p, pl := c.p, sphharm.PackedLen(c.p)
	rng := rand.New(rand.NewSource(seed))
	var cells int32
	for _, pr := range c.pairs {
		cells = max(cells, pr.L+1, pr.M+1)
	}
	var mslab, start []complex128
	for range cells {
		mslab, start = append(mslab, randomExpansion(p, rng).C...), append(start, randomExpansion(p, rng).C...)
	}
	cell := func(slab []complex128, i int32) Expansion { return Expansion{P: p, C: slab[int(i)*pl:][:pl]} }
	polar := func(pr M2LPair) float64 { return polarAngle(c.dirs[pr.Class]) }
	tb := buildTable(p, c.dirs, nil, c.spill)
	w := NewWorkspace(p)
	got, want := slices.Clone(start), slices.Clone(start)
	w.M2LBatchTheta(got, mslab, c.pairs, tb)
	sorted := slices.Clone(c.pairs)
	slices.SortStableFunc(sorted, func(a, b M2LPair) int { return cmp.Compare(polar(a), polar(b)) })
	for l := range cells {
		var srcs []M2LSource
		for _, pr := range sorted {
			if pr.L == l {
				srcs = append(srcs, M2LSource{M: cell(mslab, pr.M), From: c.dirs[pr.Class]})
			}
		}
		w.M2LBatch(cell(want, l), geom.Vec3{}, srcs)
		if at := firstDiff(cell(got, l).C, cell(want, l).C); at >= 0 {
			t.Fatalf("p=%d %s: target %d coefficient %d: batched %v, sorted reference %v",
				p, c.name, l, at, cell(got, l).C[at], cell(want, l).C[at])
		}
	}
}

// The harnesses' inputs, built once for the tests that share them: the
// translation rows with the real trees thinned (bit identity) and whole
// (the oracle), and the theta-batched rows.
var (
	thinCases  = sync.OnceValue(func() []m2lCase { return m2lCases(true) })
	wholeCases = sync.OnceValue(func() []m2lCase { return m2lCases(false) })
	allThetas  = sync.OnceValue(thetaCases)
)

// formsHarness is the bit-identity harness over the rows of m2lCases and
// thetaCases that name the calling test: in both dispatch states the table
// at widths 1 and 4, in budget and squeezed (checkForms), and the
// theta-batched form (checkTheta) equal the uncached M2LBatch bit for bit,
// and M2LBatch is the same in both states.
func formsHarness(t *testing.T) {
	test, refs := t.Name(), map[string][]uint64{}
	eachDispatch(t, func(t *testing.T) {
		rows := 0
		for _, c := range thinCases() {
			if c.forms == test {
				checkForms(t, c, refs)
				rows++
			}
		}
		for i, c := range allThetas() {
			if c.test == test {
				checkTheta(t, c, int64(i))
				rows++
			}
		}
		if rows == 0 {
			t.Fatalf("no input row names %s", test)
		}
	})
}

// TestM2LBatchTableBitIdentical: lattice batches of repeated and fresh
// directions at p = 2 to 12, and the batches of the rotated and direct
// oracles.
func TestM2LBatchTableBitIdentical(t *testing.T) { formsHarness(t) }

// TestM2LBatchTableRandomTrees: 50 random batches of one to eight
// directions repeated up to 20 times, each under a random theta budget.
func TestM2LBatchTableRandomTrees(t *testing.T) { formsHarness(t) }

// TestM2LFusedMatchesSingle: the golden batch at every oracle order.
func TestM2LFusedMatchesSingle(t *testing.T) { formsHarness(t) }

// TestM2LPackedMatchesScalar: exactly axial and equatorial offsets, random
// offsets and the first V-list offsets of a real tree at every packed
// order.
func TestM2LPackedMatchesScalar(t *testing.T) { formsHarness(t) }

// TestM2LTableRealTrees: the sampled classes of the three real trees at
// every oracle order, and their schedules' stack election (checkElection).
func TestM2LTableRealTrees(t *testing.T) {
	checkElection(t)
	formsHarness(t)
}

// TestM2LBatchThetaMatchesSortedTable: pairs of six targets over classes
// four to a theta and singletons, in budget and with some theta spilled.
func TestM2LBatchThetaMatchesSortedTable(t *testing.T) { formsHarness(t) }

// TestM2LQuadMatchesSingle: single quads of four classes sharing a theta
// into distinct, repeated and paired targets.
func TestM2LQuadMatchesSingle(t *testing.T) { formsHarness(t) }

// TestM2LTableExtendMatchesPlan: Extend sets up what Plan does
// (checkPlans), and the tables it re-planned translate every class as
// M2LBatch does, in both dispatch states.
func TestM2LTableExtendMatchesPlan(t *testing.T) {
	replanned := checkPlans(t)
	eachDispatch(t, func(t *testing.T) {
		for _, r := range replanned {
			checkTranslations(t, r.tb, r.dirs, r.name)
		}
	})
}

// The allocation harness's tests.
const (
	batchAlloc  = "TestM2LBatchAllocationFree"
	tableAlloc  = "TestM2LBatchTableAllocationFree"
	table4Alloc = "TestM2LBatchTable4AllocationFree"
	replanAlloc = "TestM2LTableReplanAllocationFree"
)

// allocHarness is the allocation harness: once its scratch holds the
// batch, no M2L form allocates — M2LBatch over repeated and fresh
// directions and the theta-batched form (TestM2LBatchAllocationFree), the
// table over a real tree's longest V list in budget and spilled at width 1
// (TestM2LBatchTableAllocationFree) and width 4
// (TestM2LBatchTable4AllocationFree) — and neither does re-planning a
// table for the directions it served nor extending one by classes whose
// theta, phi and rho it knows (TestM2LTableReplanAllocationFree: what a
// dynamic run pays per list rebuild), in both dispatch states. It runs the
// rows of the calling test; where they translate through M2LBatch, a used
// workspace translates as a fresh one.
func allocHarness(t *testing.T) {
	const q, p = 6, 4 // the free batches' order, the real tree's
	test := t.Name()
	rng := rand.New(rand.NewSource(11))
	wq := NewWorkspace(q)
	var srcs []M2LSource
	for i := 0; i < 40; i++ {
		srcs = append(srcs, M2LSource{
			M:    randomExpansion(q, rng),
			From: geom.Vec3{X: 3 + float64(i%4), Y: 1 + rng.Float64(), Z: float64(i%3) - 1},
		})
	}
	lq := NewExpansion(q)
	rows := map[string]map[string]func(){} // by test, by name
	row := func(test, name string, run func()) {
		if rows[test] == nil {
			rows[test] = map[string]func(){}
		}
		rows[test][name] = run
	}
	row(batchAlloc, "M2LBatch", func() { wq.M2LBatch(lq, geom.Vec3{}, srcs) })

	dirs := thetaQuads(benchDirs(rng, 20))
	tq := buildTable(q, dirs, nil, 0)
	slab := make([]complex128, 8*sphharm.PackedLen(q))
	pairs := wq.Pairs(300)
	for i := 0; i < 300; i++ {
		pairs = append(pairs, M2LPair{L: int32(rng.Intn(8)), M: int32(rng.Intn(8)), Class: int32(rng.Intn(len(dirs)))})
	}
	row(batchAlloc, "M2LBatchTheta", func() { wq.M2LBatchTheta(slab, slab, pairs, tq) })

	w := NewWorkspace(p)
	l, _ := randomLocals(p, rng)

	for k, tc := range treeCases {
		tr := octree.Build(tc.sys(), octree.Config{S: 24})
		tr.BuildLists()
		cls := tr.M2LClasses()
		n := cls.Classes()
		known := append(slices.Clone(cls.Dirs), cls.Dirs[:64]...)
		te := buildTable(p, known, nil, 0)
		te.Plan(known[:n], nil, 0)
		row(replanAlloc, "Extend by known keys, "+tc.name, func() {
			te.ops = te.ops[:n] // undoes such an Extend exactly
			if lo, hi := te.Extend(known, nil, n); lo != hi || len(te.ops) != len(known) {
				t.Errorf("%s: Extend by known keys added theta rows [%d, %d)", tc.name, lo, hi)
			}
		})
		if k > 0 {
			continue
		}
		tb := buildTable(p, cls.Dirs, cls.PairsPerClass, 0)
		stacks := slices.Clone(tb.stacks)
		row(replanAlloc, "re-plan", func() {
			if tb.BuildRotRange(0, tb.Plan(cls.Dirs, cls.PairsPerClass, 0)); !slices.Equal(tb.stacks, stacks) {
				t.Error("re-planned table differs from the first build")
			}
		})
		ni := int32(0)
		for i := range tr.Nodes {
			if len(tr.Nodes[i].V) > len(tr.Nodes[ni].V) {
				ni = int32(i)
			}
		}
		var froms []geom.Vec3
		for _, vi := range tr.Nodes[ni].V {
			froms = append(froms, tr.Nodes[vi].Box.Center)
		}
		quads, cols := randomQuads(p, rng, froms)
		for _, rotCap := range []int{0, 2} {
			tv := buildTable(p, cls.Dirs, cls.PairsPerClass, rotCap)
			if spilled := slices.ContainsFunc(cls.Row(ni), func(c int32) bool { return !tv.HasRot(int(c)) }); spilled != (rotCap > 0) {
				t.Fatalf("rotCap=%d: the V list spills: %v", rotCap, spilled)
			}
			row(tableAlloc, fmt.Sprintf("M2LBatchTable rotCap=%d", rotCap), func() {
				w.M2LBatchTable(l[0], tr.Nodes[ni].Box.Center, cols[0], cls.Row(ni), tv)
			})
			row(table4Alloc, fmt.Sprintf("M2LBatchTable4 rotCap=%d", rotCap), func() { w.M2LBatchTable4(&l, quads, cls.Row(ni), tv) })
		}
	}
	if len(rows[test]) == 0 {
		t.Fatalf("no allocation row names %s", test)
	}
	eachDispatch(t, func(t *testing.T) {
		for name, run := range rows[test] {
			if a := testing.AllocsPerRun(5, run); a != 0 {
				t.Errorf("%s allocates %v times per call, want 0", name, a)
			}
		}
		if test != batchAlloc {
			return
		}
		used, fresh := NewExpansion(q), NewExpansion(q)
		wq.M2LBatch(used, geom.Vec3{}, srcs)
		NewWorkspace(q).M2LBatch(fresh, geom.Vec3{}, srcs)
		if at := firstDiff(used.C, fresh.C); at >= 0 {
			t.Fatalf("coefficient %d: used workspace %v, fresh %v", at, used.C[at], fresh.C[at])
		}
	})
}

func TestM2LBatchAllocationFree(t *testing.T)       { allocHarness(t) }
func TestM2LBatchTableAllocationFree(t *testing.T)  { allocHarness(t) }
func TestM2LBatchTable4AllocationFree(t *testing.T) { allocHarness(t) }
func TestM2LTableReplanAllocationFree(t *testing.T) { allocHarness(t) }
