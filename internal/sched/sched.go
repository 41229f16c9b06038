// Package sched provides the CPU task-parallel runtime used for the
// far-field phases, mirroring the paper's OpenMP tasking pattern: a
// recursive function spawns one task per octree child and waits for the
// spawned tasks to finish (task/taskwait). Go's runtime supplies the
// work-stealing; the pool bounds the number of concurrently executing
// tasks to a fixed worker count, falling back to inline execution when all
// workers are busy (the standard depth-cutoff-free OpenMP-style pattern).
//
// The pool additionally supports the paper's concurrent-phase execution
// (§V): work of different classes (far field, near field) shares the
// worker slots, and busy time is accounted per class as well as per
// worker slot.
package sched

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Class labels the work admitted to the pool, so concurrently executing
// phases can be accounted separately. Tasks of every class share the same
// worker slots.
type Class uint8

const (
	// ClassGeneral is unclassified pool work: tree construction, list
	// traversal, prep, a dmem step's sends and unpacks, and every
	// pre-existing call site.
	ClassGeneral Class = iota
	// ClassFar is the far-field expansion work (P2M/M2M/M2L/L2L/L2P
	// sweeps).
	ClassFar
	// ClassNear is the near-field execution: the P2P chunks.
	ClassNear
	// NumClasses bounds the class enumeration.
	NumClasses
)

var classNames = [NumClasses]string{"general", "far", "near"}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "class?"
}

// Pool is a bounded task executor. The zero value is not usable; create
// one with NewPool.
//
// The semaphore carries worker-slot ids rather than empty tokens: a task
// that acquires slot i charges its execution time to busy[i], giving the
// telemetry layer a per-worker utilization profile (paper §VII.A's
// "CPU Time" is a makespan; the busy vector shows the imbalance behind
// it). Inline executions — tasks run in the caller because every slot was
// taken — are charged to one inline bucket.
type Pool struct {
	workers int
	sem     chan int

	busy      []atomic.Int64           // ns of task execution per worker slot
	inline    atomic.Int64             // ns of inline task execution
	classBusy [NumClasses]atomic.Int64 // ns of task execution per work class
}

// NewPool creates a pool that allows up to workers tasks to run
// concurrently. workers <= 0 selects GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: workers,
		sem:     make(chan int, workers),
		busy:    make([]atomic.Int64, workers),
	}
	for i := 0; i < workers; i++ {
		p.sem <- i
	}
	return p
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// WorkerBusyNs appends the cumulative per-slot busy time (ns) to dst and
// returns it; the final appended element is the inline-execution bucket,
// so the result has Workers()+1 entries beyond dst's original length.
// Counters are cumulative since pool creation; callers wanting a per-step
// profile take deltas of two snapshots. Passing a reused dst[:0] keeps the
// snapshot allocation-free.
func (p *Pool) WorkerBusyNs(dst []int64) []int64 {
	for i := range p.busy {
		dst = append(dst, p.busy[i].Load())
	}
	return append(dst, p.inline.Load())
}

// ClassBusyNs appends the cumulative per-class busy time (ns) to dst and
// returns it, one entry per Class in enumeration order (general, far,
// near). Inline executions are included in their class's bucket. Counters
// are cumulative since pool creation.
func (p *Pool) ClassBusyNs(dst []int64) []int64 {
	for i := range p.classBusy {
		dst = append(dst, p.classBusy[i].Load())
	}
	return dst
}

// TaskPanic wraps a panic recovered from a pool task. Worker panics do
// not kill the process: the group captures the first one (with its
// stack) and re-raises it at the join point: Wait re-panics it in the
// waiting goroutine. The panicking task's worker slot is returned to the
// pool first, so a crashing task cannot deadlock the pool.
type TaskPanic struct {
	Value any    // the value passed to panic()
	Stack []byte // stack of the panicking task
}

func (t *TaskPanic) Error() string {
	return fmt.Sprintf("task panic: %v\n%s", t.Value, t.Stack)
}

// Group tracks a set of spawned tasks, the analogue of the implicit set
// awaited by "#pragma omp taskwait". Groups may nest freely, and groups of
// different classes may be driven concurrently from different goroutines —
// the pool's semaphores arbitrate the worker slots between them.
type Group struct {
	pool  *Pool
	class Class
	wg    sync.WaitGroup
	// panicked holds the first TaskPanic recovered from this group's
	// tasks; Wait surfaces it after the join.
	panicked atomic.Pointer[TaskPanic]
}

// NewGroup returns a ClassGeneral task group bound to the pool.
func (p *Pool) NewGroup() *Group { return &Group{pool: p} }

// NewGroupClass returns a task group whose tasks are charged to class c.
func (p *Pool) NewGroupClass(c Class) *Group { return &Group{pool: p, class: c} }

// runTask executes f, converting a panic into a recorded TaskPanic
// (first one wins) instead of letting it unwind past the task boundary.
// A re-raised *TaskPanic from a nested group join propagates unwrapped.
func (g *Group) runTask(f func()) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		tp, ok := r.(*TaskPanic)
		if !ok {
			tp = &TaskPanic{Value: r, Stack: debug.Stack()}
		}
		g.panicked.CompareAndSwap(nil, tp)
	}()
	f()
}

// Spawn runs f as a task: on a fresh goroutine when a worker slot is free,
// otherwise inline in the caller (which preserves progress and bounds
// parallelism without deadlock, as in help-first task runtimes).
func (g *Group) Spawn(f func()) {
	sem := g.pool.sem
	select {
	case slot := <-sem:
		g.wg.Add(1)
		go func() {
			start := time.Now()
			defer func() {
				dt := int64(time.Since(start))
				g.pool.busy[slot].Add(dt)
				g.pool.classBusy[g.class].Add(dt)
				sem <- slot
				g.wg.Done()
			}()
			g.runTask(f)
		}()
	default:
		start := time.Now()
		g.runTask(f)
		dt := int64(time.Since(start))
		g.pool.inline.Add(dt)
		g.pool.classBusy[g.class].Add(dt)
	}
}

// Wait blocks until every task spawned on the group has completed
// (taskwait). If any task panicked, the first recovered *TaskPanic is
// re-panicked here, in the joining goroutine — after every slot has
// been returned — so the failure surfaces where the work was awaited
// rather than killing the process from a worker.
func (g *Group) Wait() {
	g.wg.Wait()
	if tp := g.panicked.Load(); tp != nil {
		panic(tp)
	}
}

// ParallelRange splits [0, n) into roughly equal chunks and processes them
// concurrently, at most pool.Workers() at a time.
func (p *Pool) ParallelRange(n int, f func(lo, hi int)) {
	if n <= 0 {
		return
	}
	chunks := min(p.rangeChunks(), n)
	g := p.NewGroup()
	size := (n + chunks - 1) / chunks
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		lo, hi := lo, hi
		g.Spawn(func() { f(lo, hi) })
	}
	g.Wait()
}

// rangeChunks sizes the chunk count of a parallel range: 4× the slots.
func (p *Pool) rangeChunks() int { return p.workers * 4 }

// WeightedBounds splits [0, len(weights)) into contiguous chunks of
// roughly equal total weight, 4x the pool's workers of them at most, and
// returns their boundaries: ascending indices b with b[0] == 0 and
// b[len(b)-1] == len(weights); chunk k covers [b[k], b[k+1]). Item i
// carries weights[i] units of work (negative weights count as zero); a
// single item heavier than the chunk target forms its own chunk. With
// all-zero weights the split is even. internal/dag cuts the step graph's
// chunk nodes with it. Boundaries depend only on the weights and
// the pool's worker count, never on execution interleaving, which is what
// keeps accumulation order — and therefore floating-point results —
// independent of what else runs concurrently.
func (p *Pool) WeightedBounds(weights []int64) []int {
	n := len(weights)
	if n == 0 {
		return []int{0}
	}
	chunks := min(p.rangeChunks(), n)
	var total int64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	bounds := make([]int, 1, chunks+1)
	if total <= 0 {
		// All-zero weights degrade to the even split of ParallelRange.
		size := (n + chunks - 1) / chunks
		for lo := 0; lo < n; lo += size {
			hi := lo + size
			if hi > n {
				hi = n
			}
			bounds = append(bounds, hi)
		}
		return bounds
	}
	target := (total + int64(chunks) - 1) / int64(chunks)
	if target < 1 {
		target = 1
	}
	var acc int64
	for i := 0; i < n; i++ {
		if w := weights[i]; w > 0 {
			acc += w
		}
		if acc >= target || i == n-1 {
			bounds = append(bounds, i+1)
			acc = 0
		}
	}
	return bounds
}

// Timer measures wall-clock spans; used to report real (host) times next
// to the virtual-machine times.
type Timer struct{ start time.Time }

// StartTimer begins a measurement.
func StartTimer() Timer { return Timer{start: time.Now()} }

// Elapsed returns the wall-clock duration since the timer started.
func (t Timer) Elapsed() time.Duration { return time.Since(t.start) }

// StartTime returns when the timer started, for attributing the measured
// interval on a trace timeline.
func (t Timer) StartTime() time.Time { return t.start }
