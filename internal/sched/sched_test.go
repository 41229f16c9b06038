package sched

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

func TestSpawnWaitRunsEverything(t *testing.T) {
	p := NewPool(4)
	g := p.NewGroup()
	var count atomic.Int64
	for i := 0; i < 1000; i++ {
		g.Spawn(func() { count.Add(1) })
	}
	g.Wait()
	if count.Load() != 1000 {
		t.Fatalf("ran %d tasks", count.Load())
	}
}

func TestNestedRecursionLikeOpenMPTasks(t *testing.T) {
	// The paper's pattern: recursive spawn per child + taskwait. Sum a
	// binary tree of depth 14 and verify the result.
	p := NewPool(3)
	var rec func(depth int) int64
	rec = func(depth int) int64 {
		if depth == 0 {
			return 1
		}
		var l, r int64
		g := p.NewGroup()
		g.Spawn(func() { l = rec(depth - 1) })
		g.Spawn(func() { r = rec(depth - 1) })
		g.Wait()
		return l + r
	}
	if got := rec(14); got != 1<<14 {
		t.Fatalf("tree sum = %d, want %d", got, 1<<14)
	}
}

func TestParallelRangeCoversAll(t *testing.T) {
	p := NewPool(4)
	const n = 10000
	hits := make([]int32, n)
	p.ParallelRange(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
	// Degenerate sizes.
	p.ParallelRange(0, func(lo, hi int) { t.Fatal("called for n=0") })
	var one atomic.Int64
	p.ParallelRange(1, func(lo, hi int) { one.Add(int64(hi - lo)) })
	if one.Load() != 1 {
		t.Fatal("n=1 range wrong")
	}
}

func TestPoolDefaultsToGOMAXPROCS(t *testing.T) {
	p := NewPool(0)
	if p.Workers() < 1 {
		t.Fatalf("workers = %d", p.Workers())
	}
}

func TestNestedGroupSpawn(t *testing.T) {
	// Groups created inside running tasks must compose without deadlock and
	// without losing work: an outer group fans out tasks that each run an
	// inner group.
	p := NewPool(2)
	var count atomic.Int64
	outer := p.NewGroup()
	for i := 0; i < 50; i++ {
		outer.Spawn(func() {
			inner := p.NewGroup()
			for j := 0; j < 20; j++ {
				inner.Spawn(func() { count.Add(1) })
			}
			inner.Wait()
			count.Add(1)
		})
	}
	outer.Wait()
	if got := count.Load(); got != 50*21 {
		t.Fatalf("nested groups ran %d tasks, want %d", got, 50*21)
	}
}

func TestSpawnInlinesWhenSemaphoreFull(t *testing.T) {
	// Occupy every worker slot, then Spawn: the task must execute inline in
	// the caller (progress guarantee), before Spawn returns.
	p := NewPool(2)
	block := make(chan struct{})
	g := p.NewGroup()
	started := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		g.Spawn(func() {
			started <- struct{}{}
			<-block
		})
	}
	<-started
	<-started // both workers are now parked holding semaphore slots
	ran := false
	g2 := p.NewGroup()
	g2.Spawn(func() { ran = true })
	// Spawn returned, so an inline execution has already completed; no
	// Wait needed (and g2.Wait must also return immediately).
	if !ran {
		t.Fatal("task did not run inline with a full semaphore")
	}
	g2.Wait()
	close(block)
	g.Wait()
}

func TestParallelRangeEdgeCases(t *testing.T) {
	p := NewPool(8)
	// n = 0: the callback must never fire.
	p.ParallelRange(0, func(lo, hi int) { t.Fatal("called for n=0") })
	// n < workers: chunks are clamped to n, every index exactly once.
	for _, n := range []int{1, 3, 7} {
		hits := make([]int32, n)
		p.ParallelRange(n, func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

// chunksOf returns the chunks [lo, hi) of WeightedBounds' boundaries.
func chunksOf(bounds []int) (chunks [][2]int) {
	for i := 0; i+1 < len(bounds); i++ {
		chunks = append(chunks, [2]int{bounds[i], bounds[i+1]})
	}
	return chunks
}

func TestWeightedBoundsCoverAllContiguously(t *testing.T) {
	p := NewPool(4)
	const n = 500
	weights := make([]int64, n)
	for i := range weights {
		weights[i] = int64(i % 17)
	}
	next := 0
	for _, c := range chunksOf(p.WeightedBounds(weights)) {
		if c[0] != next || c[0] >= c[1] {
			t.Fatalf("chunk [%d,%d) after %d", c[0], c[1], next)
		}
		next = c[1]
	}
	if next != n {
		t.Fatalf("chunks end at %d, want %d", next, n)
	}
}

func TestWeightedBoundsIsolateHeavyItems(t *testing.T) {
	// One item dominating the total weight must not drag neighbors into
	// its chunk: its weight exceeds the chunk target on its own, so the
	// chunk holding it ends right after it.
	p := NewPool(4)
	weights := make([]int64, 100)
	for i := range weights {
		weights[i] = 1
	}
	weights[50] = 1_000_000
	for _, c := range chunksOf(p.WeightedBounds(weights)) {
		if c[0] <= 50 && 50 < c[1] && c[1] != 51 {
			t.Fatalf("heavy item's chunk is [%d,%d)", c[0], c[1])
		}
	}
}

func TestWeightedBoundsDegenerateInputs(t *testing.T) {
	p := NewPool(4)
	for _, tc := range []struct {
		name    string
		weights []int64
		want    []int
	}{
		{"empty", nil, []int{0}},
		{"zero and negative weights split evenly", []int64{0, -5, 0, 0, -1}, []int{0, 1, 2, 3, 4, 5}},
		{"single item", []int64{42}, []int{0, 1}},
	} {
		if got := p.WeightedBounds(tc.weights); !slices.Equal(got, tc.want) {
			t.Errorf("%s: bounds %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestWorkerBusyNsAccounting(t *testing.T) {
	p := NewPool(3)
	g := p.NewGroup()
	for i := 0; i < 64; i++ {
		g.Spawn(func() {
			x := 0
			for j := 0; j < 200000; j++ {
				x += j
			}
			_ = x
		})
	}
	g.Wait()
	busy := p.WorkerBusyNs(nil)
	if len(busy) != p.Workers()+1 {
		t.Fatalf("got %d entries, want workers+1 = %d", len(busy), p.Workers()+1)
	}
	var total int64
	for _, b := range busy {
		if b < 0 {
			t.Fatalf("negative busy time: %v", busy)
		}
		total += b
	}
	if total <= 0 {
		t.Fatalf("no busy time recorded: %v", busy)
	}
	// Appending to a reused dst must not clobber prior content.
	dst := []int64{-7}
	out := p.WorkerBusyNs(dst)
	if out[0] != -7 || len(out) != 1+p.Workers()+1 {
		t.Fatalf("append contract broken: %v", out)
	}
}

func TestConcurrentRangeAdmission(t *testing.T) {
	// Groups of different classes driven from two goroutines must both
	// complete, covering every index exactly once, with class busy time
	// attributed to each.
	p := NewPool(4)
	const n = 20000
	hits := [NumClasses][]int32{ClassNear: make([]int32, n), ClassFar: make([]int32, n)}
	var wg sync.WaitGroup
	for _, c := range []Class{ClassNear, ClassFar} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := p.NewGroupClass(c)
			for lo := 0; lo < n; lo += 500 {
				g.Spawn(func() {
					for i := lo; i < lo+500; i++ {
						atomic.AddInt32(&hits[c][i], 1)
					}
				})
			}
			g.Wait()
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if hits[ClassNear][i] != 1 || hits[ClassFar][i] != 1 {
			t.Fatalf("index %d near=%d far=%d", i, hits[ClassNear][i], hits[ClassFar][i])
		}
	}
	busy := p.ClassBusyNs(nil)
	if len(busy) != int(NumClasses) {
		t.Fatalf("class busy entries = %d, want %d", len(busy), NumClasses)
	}
	if busy[ClassNear] <= 0 || busy[ClassFar] <= 0 {
		t.Fatalf("class busy not attributed: %v", busy)
	}
}

func TestClassStrings(t *testing.T) {
	if ClassGeneral.String() != "general" || ClassFar.String() != "far" ||
		ClassNear.String() != "near" {
		t.Fatalf("class names: %s/%s/%s", ClassGeneral, ClassFar, ClassNear)
	}
	if Class(200).String() != "class?" {
		t.Fatalf("out-of-range class name: %s", Class(200))
	}
}

func TestTimerStartTime(t *testing.T) {
	tm := StartTimer()
	if tm.StartTime().IsZero() {
		t.Fatal("timer start time is zero")
	}
	if tm.Elapsed() < 0 {
		t.Fatal("negative elapsed")
	}
}
