package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"afmm/internal/core/neartest"
	"afmm/internal/distrib"
	"afmm/internal/expansion"
	"afmm/internal/geom"
	"afmm/internal/kernels"
	"afmm/internal/octree"
	"afmm/internal/particle"
	"afmm/internal/sched"
	"afmm/internal/sphharm"
	"afmm/internal/telemetry"
)

// serialStep is the reference every execution test compares the step graph
// with: one whole step of s's field on the calling goroutine — the near
// field in the tree's order (mutualNear), up sweep from the deepest level,
// down sweep from the root one cell at a time, leaf evaluation, less the
// phases s.Cfg skips — with no dag, no sched, no M2L table (s never
// Solves; its down sweep is referenceDown) and none of the field's chunk
// code.
func serialStep(s *Solver) {
	f := s.Field.(*GravityField)
	sweep(s, func(w *expansion.Workspace, ni int32) { f.Up(w, ni, nil) },
		func(w *expansion.Workspace, ni int32) { referenceDown(w, &f.Cells, ni) })
}

// referenceDown is the gravity down sweep of cell ni without the M2L
// table: the parent's locals shifted in, then the cell's translated V
// pairs, sorted stably by theta as the theta batches order them, through
// the uncached M2LBatch.
func referenceDown(w *expansion.Workspace, c *Cells, ni int32) {
	c.L2L(w, ni)
	t := c.Tree
	n := &t.Nodes[ni]
	var srcs []expansion.M2LSource
	for j, vi := range n.V {
		if !t.DirectMask(ni)[j] {
			srcs = append(srcs, expansion.M2LSource{M: c.Mpole(0, vi), From: t.Nodes[vi].Box.Center})
		}
	}
	polar := func(s expansion.M2LSource) float64 {
		_, theta, _ := s.From.Sub(n.Box.Center).Spherical()
		return theta
	}
	slices.SortStableFunc(srcs, func(a, b expansion.M2LSource) int { return cmp.Compare(polar(a), polar(b)) })
	w.M2LBatch(c.Local(0, ni), n.Box.Center, srcs)
}

// sweep runs the step serially with up and down as the sweep operators.
func sweep(s *Solver, up, down func(w *expansion.Workspace, ni int32)) {
	t, f := s.Tree, s.Field
	t.BuildLists()
	sch := t.NearField()
	s.Sys.ResetAccumulators()
	f.Reset()
	w := expansion.NewWorkspace(s.Cfg.P)
	if !s.Cfg.SkipNearField {
		mutualNear(s.Sys, t, sch, f.(*GravityField).Kernel)
	}
	if s.Cfg.SkipFarField {
		return // no sweeps, no leaf evaluation: the graph has no far nodes
	}
	levels := t.LevelOrder()
	for lv := len(levels) - 1; lv >= 0; lv-- {
		for _, ni := range levels[lv] {
			up(w, ni)
		}
	}
	for _, nodes := range levels {
		for _, ni := range nodes {
			down(w, ni)
		}
	}
	for _, ni := range t.VisibleLeaves() {
		f.L2P(w, ni)
	}
}

// mutualNear is the gravity near field in the order the tree fixes
// (neartest.Mutual) from the scalar kernels: P2PScalar one-way, and
// P2PPairScalar, its targets' half discarded, for the reactions.
func mutualNear(sys *particle.System, t *octree.Tree, sch *octree.NearSchedule, k kernels.Gravity) {
	bodies := func(ni int32) (int32, int32) { return t.Nodes[ni].Start, t.Nodes[ni].End }
	neartest.Mutual(t, sch, func(a, b int32) {
		lo, hi := bodies(a)
		slo, shi := bodies(b)
		k.P2PScalar(sys.Pos[lo:hi], sys.Phi[lo:hi], sys.Acc[lo:hi], sys.Pos[slo:shi], sys.Mass[slo:shi])
	}, func(a, b int32, slots [][4]float64) {
		lo, hi := bodies(a)
		blo, bhi := bodies(b)
		k.P2PPairScalar(sys.Pos[lo:hi], sys.Mass[lo:hi], make([]float64, hi-lo), make([]geom.Vec3, hi-lo),
			sys.Pos[blo:bhi], sys.Mass[blo:bhi], slots)
	}, func(b int32, slots [][4]float64) {
		lo, _ := bodies(b)
		for j, v := range slots {
			i := int(lo) + j
			sys.Phi[i] += v[0]
			sys.Acc[i].X += v[1]
			sys.Acc[i].Y += v[2]
			sys.Acc[i].Z += v[3]
		}
	})
}

// perPairStep is serialStep with the operators of the paper's task
// recursion: per child one direct O(p^4) M2M, per cell one direct L2L and
// per translated V pair one direct M2L, column by column, written against
// the field's slabs (both kernels' fields embed Cells) — the reference the
// translation kernel is compared with, to rounding: the two share no
// arithmetic.
func perPairStep(s *Solver) {
	f := s.Field.(interface {
		Field
		Mpole(k int, ni int32) expansion.Expansion
		Local(k int, ni int32) expansion.Expansion
	})
	t := s.Tree
	up := func(w *expansion.Workspace, ni int32) {
		n := &t.Nodes[ni]
		if n.IsVisibleLeaf() {
			f.Up(w, ni, nil) // P2M
			return
		}
		for _, ci := range n.Children {
			if ci != octree.NilNode && t.Nodes[ci].Count() > 0 {
				for k := 0; k < f.Width(); k++ {
					directM2M(f.Mpole(k, ni), n.Box.Center, f.Mpole(k, ci), t.Nodes[ci].Box.Center)
				}
			}
		}
	}
	sweep(s, up, func(w *expansion.Workspace, ni int32) {
		n := &t.Nodes[ni]
		if pi := n.Parent; pi != octree.NilNode {
			for k := 0; k < f.Width(); k++ {
				directL2L(f.Local(k, ni), n.Box.Center, f.Local(k, pi), t.Nodes[pi].Box.Center)
			}
		}
		direct := t.DirectMask(ni)
		for k := 0; k < f.Width(); k++ {
			for j, vi := range n.V {
				if direct[j] {
					continue // summed by the near-field schedule
				}
				w.M2L(f.Local(k, ni), n.Box.Center, f.Mpole(k, vi), t.Nodes[vi].Box.Center)
			}
		}
	})
}

// directM2M and directL2L are the O(p^4) M2M and L2L the tree ran before
// both went through the translation kernel (internal/expansion keeps the
// same forms as its oracle): m += the child multipole o at from,
// translated to to; l += the parent local o at from, translated to to.
func directM2M(m expansion.Expansion, to geom.Vec3, o expansion.Expansion, from geom.Vec3) {
	p, t := m.P, sphharm.NewTables(m.P)
	reg := make([]complex128, sphharm.PackedLen(p))
	expansion.Regular(p, from.Sub(to), reg)
	for j := 0; j <= p; j++ {
		for k := 0; k <= j; k++ {
			var acc complex128
			for n := 0; n <= j; n++ {
				for mm := max(-n, k-(j-n)); mm <= min(n, k+(j-n)); mm++ {
					acc += packed(o.C, j-n, k-mm) * sphharm.IPow(abs(k)-abs(mm)-abs(k-mm)) *
						complex(t.Anm(n, mm)*t.Anm(j-n, k-mm), 0) * packed(reg, n, -mm)
				}
			}
			m.C[sphharm.Idx(j, k)] += acc / complex(t.Anm(j, k), 0)
		}
	}
}

func directL2L(l expansion.Expansion, to geom.Vec3, o expansion.Expansion, from geom.Vec3) {
	p, t := l.P, sphharm.NewTables(l.P)
	reg := make([]complex128, sphharm.PackedLen(p))
	expansion.Regular(p, from.Sub(to), reg)
	for j := 0; j <= p; j++ {
		for k := 0; k <= j; k++ {
			var acc complex128
			for n := j; n <= p; n++ {
				neg := float64(1 - 2*((n+j)%2))
				for mm := max(-n, k-(n-j)); mm <= min(n, k+(n-j)); mm++ {
					acc += packed(o.C, n, mm) * sphharm.IPow(abs(mm)-abs(mm-k)-abs(k)) *
						complex(t.Anm(n-j, mm-k)*t.Anm(j, k)*neg/t.Anm(n, mm), 0) * packed(reg, n-j, mm-k)
				}
			}
			l.C[sphharm.Idx(j, k)] += acc
		}
	}
}

// packed returns coefficient (n, m) of a packed Hermitian expansion.
func packed(e []complex128, n, m int) complex128 {
	if m >= 0 {
		return e[sphharm.Idx(n, m)]
	}
	c := e[sphharm.Idx(n, -m)]
	return complex(real(c), -imag(c))
}

func abs(x int) int { return max(x, -x) }

// assertBitIdentical compares the two systems' potentials and
// accelerations bit for bit: a schedule must not change a single ulp.
func assertBitIdentical(t *testing.T, got, want *particle.System) {
	t.Helper()
	phiA, phiB := got.PhiInInputOrder(), want.PhiInInputOrder()
	accA, accB := got.AccInInputOrder(), want.AccInInputOrder()
	for i := range phiA {
		if math.Float64bits(phiA[i]) != math.Float64bits(phiB[i]) {
			t.Fatalf("phi not bit-identical at body %d: %x vs %x", i, phiA[i], phiB[i])
		}
		for c, v := range [3]float64{accA[i].X, accA[i].Y, accA[i].Z} {
			if r := [3]float64{accB[i].X, accB[i].Y, accB[i].Z}[c]; math.Float64bits(v) != math.Float64bits(r) {
				t.Fatalf("acc not bit-identical at body %d: %v vs %v", i, accA[i], accB[i])
			}
		}
	}
}

// drift moves every body the way a step would, identically on systems
// with the same permutation history.
func drift(sys *particle.System) {
	for i := range sys.Pos {
		d := sys.Pos[i].Scale(0.05)
		sys.Pos[i] = sys.Pos[i].Add(geom.Vec3{X: d.Y, Y: -d.X, Z: d.Z * 0.5})
	}
}

type variant struct {
	name string
	mut  func(cfg *Config)
}

// graphCases are the device sets and phase subsets the step graph is held
// to the serial reference on, each on every pool size.
var graphCases = []variant{
	{"cpu-only", func(cfg *Config) {}},
	{"one-gpu", func(cfg *Config) { cfg.NumGPUs = 1 }},
	{"two-gpus", func(cfg *Config) { cfg.NumGPUs = 2 }},
	{"near-only", func(cfg *Config) { cfg.SkipFarField = true }},
	{"far-only", func(cfg *Config) { cfg.NumGPUs, cfg.SkipNearField = 1, true }},
}

// TestGraphMatchesSerialReference: the one execution path against a
// reference that shares no scheduling code with it, for every case on 1, 2
// and 4 workers, holding Phi and Acc to the reference bit for bit on the
// fresh tree and again after a move + Refill + EnforceS (the balancer's
// edits change chunk geometry, not results).
func TestGraphMatchesSerialReference(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			for _, v := range graphCases {
				t.Run(v.name, func(t *testing.T) {
					sys := skewedSystem(1200, 7)
					cfg := Config{P: 6, S: 24, Pool: sched.NewPool(w)}
					v.mut(&cfg)
					s, ref := NewSolver(sys, cfg), NewSolver(sys.Clone(), cfg)
					s.Solve()
					serialStep(ref)
					assertBitIdentical(t, s.Sys, ref.Sys)
					for _, x := range []*Solver{s, ref} {
						drift(x.Sys)
						x.Refill()
						x.EnforceS()
					}
					s.Solve()
					serialStep(ref)
					assertBitIdentical(t, s.Sys, ref.Sys)
				})
			}
		})
	}
	t.Run("failstop", graphMatchesSerialUnderFailStop)
}

// chunkLog wraps the gravity field and records the near chunks it ran.
type chunkLog struct {
	*GravityField
	mu  sync.Mutex
	ran []int
}

func (f *chunkLog) Near(sch *octree.NearSchedule, c int, lo, hi int32, ghosts []GhostLeaf) {
	f.mu.Lock()
	f.ran = append(f.ran, c)
	f.mu.Unlock()
	f.GravityField.Near(sch, c, lo, hi, ghosts)
}

// nearChunks solves once and returns the row range [lo, hi) of each
// near chunk that ran, in chunk order, after checking that each ran once,
// as one task.near node, and that together they cover every row.
func nearChunks(t *testing.T, s *Solver) [][2]int {
	t.Helper()
	log := &chunkLog{GravityField: s.Field.(*GravityField)}
	s.Field = log
	s.Solve()
	nodes := 0
	for _, sp := range s.TaskGraphStats().Spans {
		if sp.Tag == int32(telemetry.SpanTaskNear) {
			nodes++
		}
	}
	if nodes != len(log.ran) {
		t.Fatalf("%d task.near nodes ran %d near chunks", nodes, len(log.ran))
	}
	slices.Sort(log.ran)
	sch := s.Tree.NearField()
	var chunks [][2]int
	next := 0
	for i, c := range log.ran {
		lo, hi := sch.Chunk(c)
		if i > 0 && log.ran[i-1] == c || lo != next {
			t.Fatalf("near chunks %v ran, rows %d.. not covered next", log.ran, next)
		}
		chunks, next = append(chunks, [2]int{lo, hi}), hi
	}
	if next != sch.Rows() {
		t.Fatalf("the near chunks cover %d of %d rows", next, sch.Rows())
	}
	return chunks
}

// TestDeviceSolveRunsCPUNearChunks: a solve with two simulated devices
// runs exactly the near-field chunks of the CPU-only solve of the same
// tree on the same pool — as many task.near nodes, over the same rows.
func TestDeviceSolveRunsCPUNearChunks(t *testing.T) {
	pool := sched.NewPool(1)
	solve := func(gpus int) [][2]int {
		return nearChunks(t, NewSolver(skewedSystem(1200, 7), Config{P: 6, S: 24, Pool: pool, NumGPUs: gpus}))
	}
	cpu, gpu := solve(0), solve(2)
	if len(cpu) < 2 {
		t.Fatalf("the CPU-only solve cut %d near chunks, want several", len(cpu))
	}
	if !slices.Equal(cpu, gpu) {
		t.Fatalf("near chunks: CPU-only %v, two devices %v", cpu, gpu)
	}
}

// graphMatchesSerialUnderFailStop: a fail-stop device loss moves the
// clock, never the rows — the fallback is a virtual charge, and the step
// graph's forces stay bit-identical to the serial reference.
func graphMatchesSerialUnderFailStop(t *testing.T) {
	cfg, _ := faultCfg("gpu0:failstop@step1", t)
	cfg.Pool = sched.NewPool(4)
	s := NewSolver(testSystem(t, 2500), cfg)
	cfg.Faults = nil
	ref := NewSolver(testSystem(t, 2500), cfg)
	for step := 0; step < 3; step++ {
		if _, err := s.SolveChecked(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		serialStep(ref)
		assertBitIdentical(t, s.Sys, ref.Sys)
	}
	if rep := s.Cluster.LastReport(); rep.DeadDevices != 1 {
		t.Fatalf("want 1 dead device, got %d", rep.DeadDevices)
	}
}

// agreesWithRecursion holds a solve to the per-pair operators at the
// to-rounding tolerance the translation kernel has always been held to.
func agreesWithRecursion(t *testing.T, s, ref *Solver) {
	t.Helper()
	s.Solve()
	perPairStep(ref)
	accA, accB := s.Sys.AccInInputOrder(), ref.Sys.AccInInputOrder()
	phiA, phiB := s.Sys.PhiInInputOrder(), ref.Sys.PhiInInputOrder()
	for i := range accA {
		if accA[i].Sub(accB[i]).Norm() > 1e-8*(1+accA[i].Norm()) {
			t.Fatalf("acc diverged at body %d: %v vs %v", i, accA[i], accB[i])
		}
		if math.Abs(phiA[i]-phiB[i]) > 1e-8*(1+math.Abs(phiA[i])) {
			t.Fatalf("phi diverged at body %d: %v vs %v", i, phiA[i], phiB[i])
		}
	}
}

// TestKernelMatchesPerPairDirect: the step graph's translations — M2M,
// table-driven M2L and L2L, all through the one translation kernel —
// against the per-pair direct operators of the paper's task recursion.
func TestKernelMatchesPerPairDirect(t *testing.T) {
	for _, v := range []variant{
		{"direct", func(cfg *Config) {}},
		{"uniform", func(cfg *Config) { cfg.Mode = octree.Uniform }},
		{"gpus", func(cfg *Config) { cfg.NumGPUs = 2 }},
	} {
		t.Run(v.name, func(t *testing.T) {
			sys := distrib.Plummer(900, 1, 1, 19)
			cfg := Config{P: 8, S: 16}
			v.mut(&cfg)
			s, ref := NewSolver(sys, cfg), NewSolver(sys.Clone(), cfg)
			agreesWithRecursion(t, s, ref)
			// Both stay within the solver's error bound vs direct sum.
			if e := rmsAccError(s); e > 2e-4 {
				t.Fatalf("error %g vs direct sum", e)
			}
		})
	}
}

// TestKernelMatchesPerPairDirectAfterTreeEdits: the same agreement on a
// tree the balancer has edited (move, Refill + EnforceS).
func TestKernelMatchesPerPairDirectAfterTreeEdits(t *testing.T) {
	sys := distrib.Plummer(800, 1, 1, 23)
	cfg := Config{P: 6, S: 24}
	s, ref := NewSolver(sys, cfg), NewSolver(sys.Clone(), cfg)
	agreesWithRecursion(t, s, ref)
	for _, x := range []*Solver{s, ref} {
		drift(x.Sys)
		x.Refill()
		x.EnforceS()
	}
	agreesWithRecursion(t, s, ref)
}

// TestOverlapReportsHostPhases: every solve reports the near/far overlap
// of its graph region, on any pool size and phase subset.
func TestOverlapReportsHostPhases(t *testing.T) {
	for _, tc := range []variant{
		{"one-gpu", func(cfg *Config) { cfg.NumGPUs = 1 }},
		{"one-worker", func(cfg *Config) { cfg.Pool = sched.NewPool(1) }},
		{"far-skipped", func(cfg *Config) { cfg.SkipFarField = true }},
		{"dry", func(cfg *Config) { cfg.SkipFarField, cfg.SkipNearField = true, true }},
	} {
		cfg := Config{P: 6, S: 24, Pool: sched.NewPool(4)}
		tc.mut(&cfg)
		s := NewSolver(skewedSystem(1200, 7), cfg)
		st := s.Solve()
		if !st.Host.Overlapped || st.Host.SerialWall < st.Host.Wall {
			t.Fatalf("%s: overlapped %v, serial-equivalent wall %v < wall %v",
				tc.name, st.Host.Overlapped, st.Host.SerialWall, st.Host.Wall)
		}
		if far, near := st.Host.Far > 0, st.Host.Near > 0; far == cfg.SkipFarField || near == cfg.SkipNearField {
			t.Fatalf("%s: far %v near %v", tc.name, st.Host.Far, st.Host.Near)
		}
	}
}

// TestTaskGraphTelemetry: a traced solve reports the graph's shape and
// schedule quality, one span per graph node on the task kinds, and one
// top-level span per phase — what StepRecord.PhaseNs, the per-phase
// histograms and the sentinel read.
func TestTaskGraphTelemetry(t *testing.T) {
	rec := telemetry.New(telemetry.Options{Keep: true})
	s := NewSolver(skewedSystem(1200, 7), Config{P: 6, S: 24, Pool: sched.NewPool(4), NumGPUs: 1})
	s.SetRecorder(rec)
	s.Solve()
	rec.EndStep()
	if gs := s.TaskGraphStats(); gs.Nodes <= 0 || gs.Edges <= 0 {
		t.Fatalf("no graph stats: %+v", gs)
	}
	s0 := rec.Steps()[0]
	if s0.TaskNodes <= 0 || s0.TaskEdges <= 0 || s0.TaskMaxReady < 1 {
		t.Fatalf("task graph stats not recorded: %+v", s0)
	}
	if s0.TaskCriticalNs <= 0 || s0.TaskMakespanNs < s0.TaskCriticalNs {
		t.Fatalf("critical path %d / makespan %d", s0.TaskCriticalNs, s0.TaskMakespanNs)
	}
	seen := map[telemetry.SpanKind]int64{}
	for _, sp := range s0.Spans {
		seen[sp.Kind] += sp.DurNs
	}
	for _, k := range []telemetry.SpanKind{
		telemetry.SpanTaskUp, telemetry.SpanTaskDown, telemetry.SpanTaskL2P, telemetry.SpanTaskNear,
		telemetry.SpanUpSweep, telemetry.SpanDownSweep, telemetry.SpanL2P, telemetry.SpanNearCPU,
	} {
		if seen[k] <= 0 {
			t.Fatalf("no %v span on a traced solve (saw %v)", k, seen)
		}
	}
	if s0.PhaseNs() < seen[telemetry.SpanDownSweep]+seen[telemetry.SpanNearCPU] {
		t.Fatalf("PhaseNs %d misses the far or near phase", s0.PhaseNs())
	}

	// CPU-only near field: the same near.cpu phase.
	cpu := NewSolver(skewedSystem(1200, 7), Config{P: 6, S: 24, Pool: sched.NewPool(2)})
	cpu.SetRecorder(rec)
	cpu.Solve()
	rec.EndStep()
	var nearCPU int64
	for _, sp := range rec.Steps()[1].Spans {
		if sp.Kind == telemetry.SpanNearCPU {
			nearCPU += sp.DurNs
		}
	}
	if nearCPU <= 0 {
		t.Fatal("no near.cpu span on a CPU-only traced solve")
	}
}

// TestSentinelSeesFarField: fed the step record of a real traced solve as
// its baseline, the sentinel raises far.down when the down phase takes
// three times as long — which it could not before the graph emitted phase
// spans.
func TestSentinelSeesFarField(t *testing.T) {
	rec := telemetry.New(telemetry.Options{Keep: true})
	s := NewSolver(distrib.Plummer(1500, 1, 1, 5), Config{P: 6, S: 24, Pool: sched.NewPool(2)})
	s.SetRecorder(rec)
	s.Solve()
	rec.EndStep()
	step := rec.Steps()[0]
	sen := telemetry.NewSentinel(telemetry.SentinelConfig{MinWall: time.Microsecond})
	for i := 0; i < 10; i++ {
		if as := sen.Observe(&step); len(as) != 0 {
			t.Fatalf("steady baseline alarmed: %v", as)
		}
	}
	slow := step
	slow.Spans = append([]telemetry.Span(nil), step.Spans...)
	for i := range slow.Spans {
		if slow.Spans[i].Kind == telemetry.SpanDownSweep {
			slow.Spans[i].DurNs *= 3
		}
	}
	for _, a := range sen.Observe(&slow) {
		if a.Kind == telemetry.SpanDownSweep {
			return
		}
	}
	t.Fatal("a 3x slower down phase raised no far.down anomaly")
}
