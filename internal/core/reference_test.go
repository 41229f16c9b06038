package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"afmm/internal/distrib"
	"afmm/internal/expansion"
	"afmm/internal/geom"
	"afmm/internal/octree"
	"afmm/internal/particle"
	"afmm/internal/sched"
	"afmm/internal/sphharm"
	"afmm/internal/telemetry"
)

// serialStep is the reference every execution test compares the step graph
// with: one whole step of s's field on the calling goroutine — near rows in
// order, up sweep from the deepest level, down sweep from the root one cell
// at a time, leaf evaluation — with no dag, no sched and no M2L table (s
// never Solves, so its field translates through the uncached reference
// form, each cell's pairs sorted by theta).
func serialStep(s *Solver) {
	sweep(s, func(w *expansion.Workspace, ni int32) { s.Field.Up(w, ni, nil) },
		func(w *expansion.Workspace, ni int32) { s.Field.Down(w, []int32{ni}) })
}

// sweep runs the step serially with up and down as the sweep operators.
func sweep(s *Solver, up, down func(w *expansion.Workspace, ni int32)) {
	t, f := s.Tree, s.Field
	t.BuildLists()
	sch := t.NearField()
	s.Sys.ResetAccumulators()
	f.Reset()
	w := expansion.NewWorkspace(s.Cfg.P)
	for r := range sch.Leaves {
		f.NearRow(sch, r, nil)
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

// The configurations the step graph is held to the serial reference on.
var (
	cpuOnly = variant{"cpu-only", func(cfg *Config) {}}
	oneGPU  = variant{"one-gpu", func(cfg *Config) { cfg.NumGPUs = 1 }}
	twoGPUs = variant{"two-gpus", func(cfg *Config) { cfg.NumGPUs = 2 }}
)

// graphMatchesSerial solves each variant on each pool size through the
// step graph and holds Phi and Acc to the serial reference, bit for bit,
// on the fresh tree and again after a move + Refill + EnforceS (the
// balancer's edits change chunk geometry, not results).
func graphMatchesSerial(t *testing.T, workers []int, variants ...variant) {
	for _, v := range variants {
		for _, w := range workers {
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
	}
}

// TestGraphMatchesSerialReference: the one execution path against a
// reference that shares no scheduling code with it, on 1, 2 and 4 workers.
func TestGraphMatchesSerialReference(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			graphMatchesSerial(t, []int{w}, cpuOnly, oneGPU, twoGPUs)
		})
	}
	t.Run("failstop", graphMatchesSerialUnderFailStop)
}

// The test the reference matrix replaced compared one execution path with
// another; the path is gone, its name stays as the slice of the matrix it
// used to cover. Two GPUs on 2 and 4 workers run under
// TestGraphMatchesSerialReference.
func TestTaskGraphBitIdenticalGravity(t *testing.T) {
	graphMatchesSerial(t, []int{2, 4}, cpuOnly, oneGPU)
}

// rowClock wraps a field and stamps each near-field row with the moment
// it ran.
type rowClock struct {
	Field
	mu sync.Mutex
	at map[int]time.Time
}

func (f *rowClock) NearRow(sch *octree.NearSchedule, r int, ghosts []GhostLeaf) {
	f.mu.Lock()
	f.at[r] = time.Now()
	f.mu.Unlock()
	f.Field.NearRow(sch, r, ghosts)
}

// nearChunks solves once and returns the row range [lo, hi) of each
// task.near node, indexed by chunk. A row belongs to the node whose span
// was the last to start before the row ran: on a one-worker pool the near
// chunks run one at a time.
func nearChunks(t *testing.T, s *Solver) [][2]int {
	t.Helper()
	clock := &rowClock{Field: s.Field, at: map[int]time.Time{}}
	s.Field = clock
	s.Solve()
	gs := s.TaskGraphStats()
	var spans []sched.NodeSpan
	for _, sp := range gs.Spans {
		if sp.Tag == int32(telemetry.SpanTaskNear) {
			spans = append(spans, sp)
		}
	}
	slices.SortFunc(spans, func(a, b sched.NodeSpan) int { return cmp.Compare(a.StartNs, b.StartNs) })
	chunks := make([][2]int, len(spans))
	rows := make([]int, len(spans))
	for i := range chunks {
		chunks[i] = [2]int{math.MaxInt, -1}
	}
	if n := s.Tree.NearField().Rows(); len(clock.at) != n {
		t.Fatalf("%d of %d rows ran", len(clock.at), n)
	}
	for r, at := range clock.at {
		k := -1
		for i, sp := range spans {
			if !gs.Start.Add(time.Duration(sp.StartNs)).After(at) {
				k = i
			}
		}
		if k < 0 {
			t.Fatalf("row %d ran outside every near chunk", r)
		}
		c := &chunks[spans[k].Arg]
		c[0], c[1] = min(c[0], r), max(c[1], r+1)
		rows[spans[k].Arg]++
	}
	for i, c := range chunks {
		if rows[i] != c[1]-c[0] {
			t.Fatalf("chunk %d ran %d rows over [%d, %d)", i, rows[i], c[0], c[1])
		}
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
