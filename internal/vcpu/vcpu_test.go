package vcpu

import (
	"container/heap"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"afmm/internal/costmodel"
	"afmm/internal/distrib"
	"afmm/internal/octree"
)

// chain builds a linear dependency chain of n unit tasks.
func chain(n int, unit float64) *Graph {
	g := &Graph{}
	var prev int32 = -1
	for i := 0; i < n; i++ {
		var tc TaskCost
		tc[costmodel.M2L] = unit
		id := g.AddTask(tc)
		if prev >= 0 {
			g.AddDep(prev, id)
		}
		prev = id
	}
	return g
}

// fanout builds n independent unit tasks.
func fanout(n int, unit float64) *Graph {
	g := &Graph{}
	for i := 0; i < n; i++ {
		var tc TaskCost
		tc[costmodel.P2M] = unit
		g.AddTask(tc)
	}
	return g
}

// successors lists task t's successors in the order they were added.
func (g *Graph) successors(t int32) []int32 {
	var out []int32
	for e := g.first[t]; e >= 0; e = g.next[e] {
		out = append(out, g.to[e])
	}
	return out
}

func plainSpec(cores int) Spec {
	s := DefaultSpec()
	s.Cores = cores
	s.SpawnOverhead = 0
	s.CacheGain = 0
	s.BandwidthPenalty = 0
	return s
}

func TestChainIsSerial(t *testing.T) {
	g := chain(100, 1e-3)
	for _, cores := range []int{1, 4, 16} {
		res := plainSpec(cores).Simulate(g)
		if math.Abs(res.Makespan-0.1) > 1e-12 {
			t.Fatalf("cores=%d: chain makespan %v, want 0.1", cores, res.Makespan)
		}
	}
}

func TestFanoutScalesLinearly(t *testing.T) {
	g := fanout(64, 1e-3)
	for _, cores := range []int{1, 2, 4, 8} {
		res := plainSpec(cores).Simulate(g)
		want := 0.064 / float64(cores)
		if math.Abs(res.Makespan-want) > 1e-12 {
			t.Fatalf("cores=%d: makespan %v, want %v", cores, res.Makespan, want)
		}
		if math.Abs(res.Efficiency(cores)-1) > 1e-9 {
			t.Fatalf("cores=%d: efficiency %v", cores, res.Efficiency(cores))
		}
	}
}

func TestBusyTimeAttribution(t *testing.T) {
	g := &Graph{}
	var tc TaskCost
	tc[costmodel.P2M] = 1e-3
	tc[costmodel.M2L] = 2e-3
	g.AddTask(tc)
	res := plainSpec(1).Simulate(g)
	if math.Abs(res.BusyTime[costmodel.P2M]-1e-3) > 1e-15 ||
		math.Abs(res.BusyTime[costmodel.M2L]-2e-3) > 1e-15 {
		t.Fatalf("attribution wrong: %+v", res.BusyTime)
	}
	if math.Abs(res.Makespan-3e-3) > 1e-15 {
		t.Fatalf("makespan %v", res.Makespan)
	}
}

func TestSpawnOverheadCounted(t *testing.T) {
	s := plainSpec(1)
	s.SpawnOverhead = 1e-6
	g := fanout(10, 0)
	res := s.Simulate(g)
	if math.Abs(res.Makespan-10e-6) > 1e-12 {
		t.Fatalf("makespan %v, want 10us of spawn overhead", res.Makespan)
	}
}

func TestPerCoreFactorShape(t *testing.T) {
	s := DefaultSpec()
	// Superlinear region: factor below 1 for 2..16 cores.
	if f := s.PerCoreFactor(16); f >= 1 {
		t.Fatalf("factor(16) = %v, want < 1", f)
	}
	// Saturation region: factor grows past 16 cores.
	if s.PerCoreFactor(32) <= s.PerCoreFactor(16) {
		t.Fatal("bandwidth penalty missing beyond 16 cores")
	}
	if f := s.PerCoreFactor(1); f != 1 {
		t.Fatalf("factor(1) = %v, want 1", f)
	}
}

func TestFMMGraphSpeedupShape(t *testing.T) {
	// The replayed FMM task graph must show the Figure 6 shape: strong
	// scaling to 16 cores, diminishing returns to 32.
	sys := distrib.Plummer(20000, 1, 1, 5)
	tree := octree.Build(sys, octree.Config{S: 32})
	tree.BuildLists()
	spec := DefaultSpec()
	graph := BuildFMMGraph(tree, spec.Base, FMMGraphOptions{IncludeP2P: true})
	var t1, t16, t32 float64
	for _, cores := range []int{1, 16, 32} {
		s := spec
		s.Cores = cores
		res := s.Simulate(graph)
		switch cores {
		case 1:
			t1 = res.Makespan
		case 16:
			t16 = res.Makespan
		case 32:
			t32 = res.Makespan
		}
	}
	s16 := t1 / t16
	s32 := t1 / t32
	if s16 < 12 || s16 > 18 {
		t.Fatalf("speedup(16) = %v, want near-linear", s16)
	}
	if s32 < s16 || s32 > 30 {
		t.Fatalf("speedup(32) = %v (s16=%v), want diminishing but monotone", s32, s16)
	}
}

func TestFMMGraphPassesScaleCost(t *testing.T) {
	sys := distrib.Plummer(2000, 1, 1, 6)
	tree := octree.Build(sys, octree.Config{S: 16})
	tree.BuildLists()
	spec := plainSpec(1)
	g1 := BuildFMMGraph(tree, spec.Base, FMMGraphOptions{FarFieldPasses: 1})
	g4 := BuildFMMGraph(tree, spec.Base, FMMGraphOptions{FarFieldPasses: 4})
	r1 := spec.Simulate(g1)
	r4 := spec.Simulate(g4)
	if math.Abs(r4.Makespan/r1.Makespan-4) > 1e-9 {
		t.Fatalf("4-pass graph cost ratio %v, want 4", r4.Makespan/r1.Makespan)
	}
}

// TestNodeGraphsSplitTheSingleGraph: node graphs hold exactly the single
// graph's tasks between them, costed alike, and only its edges whose ends
// share an owner; one owner for every cell gives the single graph.
func TestNodeGraphsSplitTheSingleGraph(t *testing.T) {
	sys := distrib.Plummer(3000, 1, 1, 4)
	tree := octree.Build(sys, octree.Config{S: 16})
	tree.BuildLists()
	spec := plainSpec(4)
	bases := []costmodel.Coefficients{spec.Base, spec.Base, spec.Base}
	opt := FMMGraphOptions{IncludeP2P: true}
	single := BuildFMMGraph(tree, spec.Base, opt)

	g := BuildNodeGraphs(tree, bases, make([]int, len(tree.Nodes)), opt)
	if !reflect.DeepEqual(g[0], single) || g[1].Len() != 0 || g[2].Len() != 0 {
		t.Fatal("a single owner's graph differs from BuildFMMGraph's")
	}

	owner := make([]int, len(tree.Nodes))
	for i := range tree.Nodes {
		owner[i] = 3 * int(tree.Nodes[i].Start) / sys.Len()
	}
	var tasks, edges int
	var busy float64
	for _, g := range BuildNodeGraphs(tree, bases, owner, opt) {
		tasks += g.Len()
		edges += len(g.to)
		busy += spec.Simulate(g).TotalBusy
	}
	singleEdges := len(single.to)
	if tasks != single.Len() {
		t.Fatalf("node graphs hold %d tasks, the single graph %d", tasks, single.Len())
	}
	if edges >= singleEdges {
		t.Fatalf("node graphs keep %d of the single graph's %d edges", edges, singleEdges)
	}
	if want := spec.Simulate(single).TotalBusy; math.Abs(busy-want) > 1e-12*want {
		t.Fatalf("node graphs cost %v, the single graph %v", busy, want)
	}
}

func TestNormalizedFillsZeroFields(t *testing.T) {
	s := Spec{Cores: 7}.Normalized()
	if s.Cores != 7 {
		t.Fatalf("cores %d", s.Cores)
	}
	if s.Base[costmodel.M2L] == 0 || s.SpawnOverhead == 0 {
		t.Fatal("defaults not filled")
	}
	full := DefaultSpec()
	full.Cores = 3
	if got := full.Normalized(); got.Base != full.Base {
		t.Fatal("normalization altered explicit base")
	}
}

func TestEmptyGraph(t *testing.T) {
	res := plainSpec(4).Simulate(&Graph{})
	if res.Makespan != 0 || res.Tasks != 0 {
		t.Fatalf("empty graph: %+v", res)
	}
}

// boxedHeap is container/heap over completions, the order Simulate's
// typed heap must keep.
type boxedHeap []completion

func (h boxedHeap) Len() int           { return len(h) }
func (h boxedHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h boxedHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x any)        { *h = append(*h, x.(completion)) }
func (h *boxedHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestCompletionHeapSiftsAsContainerHeap: random pushes and pops, with
// many equal completion times, pop the same tasks in the same order from
// the typed heap as from container/heap, so no tie is broken differently.
func TestCompletionHeapSiftsAsContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var typed completionHeap
	var boxed boxedHeap
	for i := 0; i < 20000; i++ {
		if len(typed) == 0 || rng.Intn(3) > 0 {
			c := completion{at: float64(rng.Intn(8)), task: int32(i)}
			typed.push(c)
			heap.Push(&boxed, c)
			continue
		}
		if a, b := typed.pop(), heap.Pop(&boxed).(completion); a != b {
			t.Fatalf("operation %d: typed heap pops %+v, container/heap %+v", i, a, b)
		}
	}
}

// TestSimulateAllocationsDoNotGrowWithGraph: a replay allocates its
// in-degree copy, ready list and completion heap once, however many tasks
// pass through the heap.
func TestSimulateAllocationsDoNotGrowWithGraph(t *testing.T) {
	spec := plainSpec(8)
	var counts []float64
	for _, n := range []int{64, 4096} {
		for _, g := range []*Graph{fanout(n, 1e-3), chain(n, 1e-3)} {
			counts = append(counts, testing.AllocsPerRun(5, func() { spec.Simulate(g) }))
		}
	}
	for _, c := range counts {
		if c != counts[0] || c > 3 {
			t.Fatalf("Simulate allocations per run %v (fanout and chain, 64 and 4096 tasks): want one small count", counts)
		}
	}
}
