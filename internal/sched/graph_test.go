package sched

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGraphEmpty(t *testing.T) {
	g := NewPool(2).NewGraph()
	if err := g.Run(); err != nil {
		t.Fatalf("empty graph: %v", err)
	}
	if st := g.Stats(); st.Nodes != 0 || st.Edges != 0 {
		t.Fatalf("empty graph stats: %+v", st)
	}
}

func TestGraphSingleNode(t *testing.T) {
	g := NewPool(2).NewGraph()
	ran := false
	g.Node(ClassGeneral, 0, 0, func() { ran = true })
	if err := g.Run(); err != nil {
		t.Fatalf("single node: %v", err)
	}
	if !ran {
		t.Fatal("single node did not run")
	}
}

func TestGraphCycleReturnsError(t *testing.T) {
	g := NewPool(2).NewGraph()
	ran := atomic.Int32{}
	a := g.Node(ClassGeneral, 0, 0, func() { ran.Add(1) })
	b := g.Node(ClassGeneral, 0, 0, func() { ran.Add(1) })
	c := g.Node(ClassGeneral, 0, 0, func() { ran.Add(1) })
	g.Edge(a, b)
	g.Edge(b, c)
	g.Edge(c, a)
	done := make(chan error, 1)
	go func() { done <- g.Run() }()
	select {
	case err := <-done:
		if err != ErrCycle {
			t.Fatalf("cyclic graph: got %v, want ErrCycle", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cyclic graph deadlocked instead of returning an error")
	}
	if ran.Load() != 0 {
		t.Fatalf("cyclic graph executed %d nodes; want 0", ran.Load())
	}
}

func TestGraphSelfEdgeIsCycle(t *testing.T) {
	g := NewPool(1).NewGraph()
	a := g.Node(ClassGeneral, 0, 0, func() {})
	g.Edge(a, a)
	if err := g.Run(); err != ErrCycle {
		t.Fatalf("self edge: got %v, want ErrCycle", err)
	}
}

// TestGraphPanicAtJoin checks the pool contract carries over: a node
// panic is recovered, remaining nodes are cancelled without deadlocking
// the join, and the first *TaskPanic is re-panicked at Run.
func TestGraphPanicAtJoin(t *testing.T) {
	p := NewPool(2)
	g := p.NewGraph()
	var after atomic.Int32
	a := g.Node(ClassGeneral, 0, 0, func() { panic("boom") })
	b := g.Node(ClassGeneral, 0, 0, func() { after.Add(1) })
	g.Edge(a, b)
	defer func() {
		r := recover()
		tp, ok := r.(*TaskPanic)
		if !ok {
			t.Fatalf("Run panicked with %T %v; want *TaskPanic", r, r)
		}
		if tp.Value != "boom" {
			t.Fatalf("TaskPanic.Value = %v; want boom", tp.Value)
		}
		if after.Load() != 0 {
			t.Fatal("downstream node ran despite upstream panic")
		}
		// The pool must be whole again: all slots usable.
		var n atomic.Int32
		p.ParallelRange(8, func(lo, hi int) { n.Add(int32(hi - lo)) })
		if n.Load() != 8 {
			t.Fatalf("pool broken after graph panic: %d", n.Load())
		}
	}()
	g.Run()
	t.Fatal("Run returned normally despite node panic")
}

// TestGraphTopologicalFuzz executes random DAGs and checks every node
// runs exactly once, after all of its predecessors.
func TestGraphTopologicalFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		workers := 1 + rng.Intn(4)
		p := NewPool(workers)
		if workers > 1 && trial%3 == 0 {
			p.SetReserved(1)
		}
		n := 1 + rng.Intn(60)
		g := p.NewGraph()
		var mu sync.Mutex
		doneAt := make([]int, n) // 1-based completion order; 0 = not run
		runs := make([]int, n)
		clock := 0
		type edge struct{ from, to int }
		var edges []edge
		for i := 0; i < n; i++ {
			i := i
			cls := Class(rng.Intn(int(NumClasses)))
			g.Node(cls, int32(i), int32(i), func() {
				mu.Lock()
				clock++
				doneAt[i] = clock
				runs[i]++
				mu.Unlock()
			})
		}
		// Random forward edges only (guaranteed acyclic).
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(4) == 0 {
					g.Edge(NodeID(i), NodeID(j))
					edges = append(edges, edge{i, j})
				}
			}
		}
		if err := g.Run(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := 0; i < n; i++ {
			if runs[i] != 1 {
				t.Fatalf("trial %d: node %d ran %d times", trial, i, runs[i])
			}
		}
		for _, e := range edges {
			if doneAt[e.from] >= doneAt[e.to] {
				t.Fatalf("trial %d: edge %d->%d violated (done %d >= %d)",
					trial, e.from, e.to, doneAt[e.from], doneAt[e.to])
			}
		}
		st := g.Stats()
		if st.Nodes != n || st.Edges != len(edges) {
			t.Fatalf("trial %d: stats %d nodes %d edges; want %d/%d",
				trial, st.Nodes, st.Edges, n, len(edges))
		}
		if st.MaxReady < 1 {
			t.Fatalf("trial %d: MaxReady = %d", trial, st.MaxReady)
		}
	}
}

// TestGraphDiamondOrder pins the core dependency semantics with a
// diamond: a -> {b, c} -> d.
// TestGraphWaitNodesRunOutsideSlots: on a one-slot pool, a Wait node
// blocked on a signal that only a later node produces must not hold the
// slot, nor hold up the other Wait node that producer depends on. As
// plain nodes the two waits would share the class's one drainer, the
// blocked one first, and deadlock.
func TestGraphWaitNodesRunOutsideSlots(t *testing.T) {
	g := NewPool(1).NewGraph()
	signal := make(chan struct{})
	blocked := g.Wait(0, 0, func() { <-signal })
	slow := g.Node(ClassFar, 0, 0, func() { time.Sleep(20 * time.Millisecond) })
	released := g.Wait(0, 0, func() {})
	produce := g.Node(ClassFar, 0, 0, func() { close(signal) })
	g.Edge(slow, released)
	g.Edge(released, produce)
	var ran atomic.Bool
	g.Edge(blocked, g.Node(ClassNear, 0, 0, func() { ran.Store(true) }))
	done := make(chan error, 1)
	go func() { done <- g.Run() }()
	select {
	case err := <-done:
		if err != nil || !ran.Load() {
			t.Fatalf("Run = %v, successor of the released wait ran: %v", err, ran.Load())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a blocked Wait node held up the graph")
	}
}

func TestGraphDiamondOrder(t *testing.T) {
	g := NewPool(4).NewGraph()
	var order []string
	var mu sync.Mutex
	mark := func(s string) func() {
		return func() {
			mu.Lock()
			order = append(order, s)
			mu.Unlock()
		}
	}
	a := g.Node(ClassGeneral, 0, 0, mark("a"))
	b := g.Node(ClassFar, 0, 0, mark("b"))
	c := g.Node(ClassNear, 0, 0, mark("c"))
	d := g.Node(ClassGeneral, 0, 0, mark("d"))
	g.Edge(a, b)
	g.Edge(a, c)
	g.Edge(b, d)
	g.Edge(c, d)
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 || order[0] != "a" || order[3] != "d" {
		t.Fatalf("diamond order = %v", order)
	}
}

func TestGraphTraceAndCriticalPath(t *testing.T) {
	g := NewPool(2).NewGraph()
	a := g.Node(ClassGeneral, 1, 0, func() { time.Sleep(2 * time.Millisecond) })
	b := g.Node(ClassGeneral, 2, 0, func() { time.Sleep(2 * time.Millisecond) })
	g.Edge(a, b)
	g.SetTrace(true)
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.CriticalPathNs <= 0 || st.MakespanNs <= 0 {
		t.Fatalf("trace stats: %+v", st)
	}
	if st.CriticalPathNs > st.MakespanNs {
		t.Fatalf("critical path %d > makespan %d", st.CriticalPathNs, st.MakespanNs)
	}
	if len(st.Spans) != 2 || st.Spans[0].Tag != 1 || st.Spans[1].Tag != 2 {
		t.Fatalf("spans: %+v", st.Spans)
	}
	if st.Spans[1].StartNs < st.Spans[0].StartNs+st.Spans[0].DurNs {
		t.Fatal("dependent span started before predecessor finished")
	}
}

// TestGraphReservedPlacement runs a graph with near and far nodes under
// an active reservation and checks it completes with sane accounting
// (near time charged to ClassNear whether spawned or inline).
func TestGraphReservedPlacement(t *testing.T) {
	p := NewPool(3)
	p.SetReserved(1)
	defer p.SetReserved(0)
	p.ResetWorkerBusy()
	g := p.NewGraph()
	var nearRan, farRan atomic.Int32
	for i := 0; i < 8; i++ {
		g.Node(ClassNear, 0, int32(i), func() {
			time.Sleep(time.Millisecond)
			nearRan.Add(1)
		})
		g.Node(ClassFar, 0, int32(i), func() {
			time.Sleep(time.Millisecond)
			farRan.Add(1)
		})
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if nearRan.Load() != 8 || farRan.Load() != 8 {
		t.Fatalf("ran near=%d far=%d", nearRan.Load(), farRan.Load())
	}
	cls := p.ClassBusyNs(nil)
	if cls[ClassNear] <= 0 || cls[ClassFar] <= 0 {
		t.Fatalf("class busy: %v", cls)
	}
}

// TestInlineClassAccounting is the regression test for the inline-bucket
// split: inline-executed tasks must charge their own class's inline
// bucket, not a shared one.
func TestInlineClassAccounting(t *testing.T) {
	p := NewPool(1)
	p.ResetWorkerBusy()
	hold := make(chan struct{})
	started := make(chan struct{})
	g1 := p.NewGroupClass(ClassFar)
	g1.Spawn(func() { close(started); <-hold }) // takes the only slot
	<-started
	// With the slot held, these must execute inline in their class.
	gNear := p.NewGroupClass(ClassNear)
	gNear.Spawn(func() { time.Sleep(2 * time.Millisecond) })
	gGen := p.NewGroupClass(ClassGeneral)
	gGen.Spawn(func() { time.Sleep(time.Millisecond) })
	close(hold)
	g1.Wait()
	gNear.Wait()
	gGen.Wait()

	inline := p.InlineClassBusyNs(nil)
	if len(inline) != int(NumClasses) {
		t.Fatalf("inline buckets: %v", inline)
	}
	if inline[ClassNear] <= 0 {
		t.Fatalf("inline near bucket empty: %v", inline)
	}
	if inline[ClassGeneral] <= 0 {
		t.Fatalf("inline general bucket empty: %v", inline)
	}
	if inline[ClassFar] != 0 {
		t.Fatalf("far class never ran inline but has inline time: %v", inline)
	}
	// The aggregate WorkerBusyNs inline entry must equal the class sum.
	wb := p.WorkerBusyNs(nil)
	var sum int64
	for _, v := range inline {
		sum += v
	}
	if wb[len(wb)-1] != sum {
		t.Fatalf("aggregate inline %d != class sum %d", wb[len(wb)-1], sum)
	}
	// Per-class totals still include inline time.
	cls := p.ClassBusyNs(nil)
	if cls[ClassNear] < inline[ClassNear] || cls[ClassGeneral] < inline[ClassGeneral] {
		t.Fatalf("classBusy %v missing inline time %v", cls, inline)
	}
}

// TestGraphLocalityHint: on a single-worker pool every chain link is
// completed by the drainer that ran its predecessor, so the locality
// scan must register hits; and the hint must never change results (the
// chain order is enforced by edges regardless).
func TestGraphLocalityHint(t *testing.T) {
	g := NewPool(1).NewGraph()
	const n = 64
	var order []int
	prev := NodeID(-1)
	for i := 0; i < n; i++ {
		i := i
		id := g.Node(ClassGeneral, 0, int32(i), func() { order = append(order, i) })
		if prev >= 0 {
			g.Edge(prev, id)
		}
		prev = id
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("chain executed out of order at %d: %v", i, order[:i+1])
		}
	}
	st := g.Stats()
	if st.LocalityHits == 0 {
		t.Fatal("expected locality hits on a single-drainer chain")
	}
	if st.LocalityHits > int64(n) {
		t.Fatalf("locality hits %d exceed node count %d", st.LocalityHits, n)
	}
}
