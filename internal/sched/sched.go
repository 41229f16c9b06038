// Package sched provides the CPU task-parallel runtime used for the
// far-field phases, mirroring the paper's OpenMP tasking pattern: a
// recursive function spawns one task per octree child and waits for the
// spawned tasks to finish (task/taskwait). Go's runtime supplies the
// work-stealing; the pool bounds the number of concurrently executing
// tasks to a fixed worker count, falling back to inline execution when all
// workers are busy (the standard depth-cutoff-free OpenMP-style pattern).
//
// The pool additionally supports the paper's concurrent-phase execution
// (§V): independent parallel ranges may be admitted concurrently from
// different goroutines under distinct work classes (far field vs.
// near-field drivers), busy time is accounted per class as well as per
// worker slot, and SetReserved can dedicate a number of worker slots to
// the near-field driver class — the analogue of pinning one host core per
// GPU to drive its kernels while the remaining cores run the expansion
// work.
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
// phases can be accounted (and, for ClassNear, placed) separately. Tasks
// of every class share the same worker slots until SetReserved dedicates
// slots to ClassNear.
type Class uint8

const (
	// ClassGeneral is unclassified pool work: tree construction, list
	// traversal, prep, and every pre-existing call site.
	ClassGeneral Class = iota
	// ClassFar is the far-field expansion work (P2M/M2M/M2L/L2L/L2P
	// sweeps). It always runs on the general (non-reserved) slots.
	ClassFar
	// ClassNear is the near-field execution: the virtual-GPU device walks
	// and the CPU P2P chunks. When SetReserved is active this class runs
	// exclusively on the reserved slots (the paper's driver cores).
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
// taken — are charged to per-class inline buckets (InlineClassBusyNs).
//
// Slots are split into a general semaphore and a reserved semaphore by
// SetReserved; with zero reserved slots (the default) every class draws
// from the general semaphore and the pool behaves exactly as before.
type Pool struct {
	workers int
	sem     chan int // general slots
	resSem  chan int // reserved slots (ClassNear when reservation active)

	// reconf serializes SetReserved reconfigurations. reserved is the
	// current reserved-slot count, read atomically by Spawn.
	reconf   sync.Mutex
	reserved atomic.Int32

	spawned atomic.Int64
	inlined atomic.Int64
	busy    []atomic.Int64 // ns of task execution per worker slot
	// inlineClass buckets inline-executed task time per work class. The
	// split matters under reservation: inline ClassNear work charged to a
	// shared bucket would be indistinguishable from inline far-field
	// work, hiding the idle-reserved-slot signal the autotuner reads.
	inlineClass [NumClasses]atomic.Int64
	classBusy   [NumClasses]atomic.Int64 // ns of task execution per work class
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
		resSem:  make(chan int, workers),
		busy:    make([]atomic.Int64, workers),
	}
	for i := 0; i < workers; i++ {
		p.sem <- i
	}
	return p
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// Reserved returns the number of worker slots currently dedicated to
// ClassNear by SetReserved.
func (p *Pool) Reserved() int { return int(p.reserved.Load()) }

// SetReserved dedicates k worker slots to ClassNear tasks; the remaining
// workers-k slots serve every other class. k is clamped to
// [0, workers-1] so at least one general slot always remains. Passing 0
// restores the shared-slot default.
//
// The call quiesces the pool: it blocks until every outstanding task has
// returned its slot, then repartitions. Callers must therefore invoke it
// only between phases (the solvers bracket the overlapped near/far region
// with it); invoking it while tasks the caller is itself waiting on are
// running would deadlock. Concurrent Spawns during the repartition are
// safe — they simply execute inline.
func (p *Pool) SetReserved(k int) {
	if k < 0 {
		k = 0
	}
	if k > p.workers-1 {
		k = p.workers - 1
	}
	p.reconf.Lock()
	defer p.reconf.Unlock()
	cur := int(p.reserved.Load())
	if k == cur {
		return
	}
	// Drain every slot from both semaphores (waits for running tasks).
	for i := 0; i < p.workers-cur; i++ {
		<-p.sem
	}
	for i := 0; i < cur; i++ {
		<-p.resSem
	}
	p.reserved.Store(int32(k))
	for i := 0; i < k; i++ {
		p.resSem <- i
	}
	for i := k; i < p.workers; i++ {
		p.sem <- i
	}
}

// SpawnedTasks returns how many tasks ran on their own goroutine since the
// pool was created; InlinedTasks how many ran inline because all workers
// were busy.
func (p *Pool) SpawnedTasks() int64 { return p.spawned.Load() }

// InlinedTasks returns the count of tasks executed inline.
func (p *Pool) InlinedTasks() int64 { return p.inlined.Load() }

// WorkerBusyNs appends the cumulative per-slot busy time (ns) to dst and
// returns it; the final appended element is the inline-execution bucket,
// so the result has Workers()+1 entries beyond dst's original length.
// Counters are cumulative since pool creation (or the last
// ResetWorkerBusy); callers wanting a per-step profile take deltas of two
// snapshots. Passing a reused dst[:0] keeps the snapshot allocation-free.
func (p *Pool) WorkerBusyNs(dst []int64) []int64 {
	for i := range p.busy {
		dst = append(dst, p.busy[i].Load())
	}
	var inline int64
	for i := range p.inlineClass {
		inline += p.inlineClass[i].Load()
	}
	return append(dst, inline)
}

// InlineClassBusyNs appends the cumulative inline-execution busy time
// (ns) per class to dst and returns it, one entry per Class in
// enumeration order. The per-class split distinguishes near-field work
// squeezed inline (a sign the reserved partition is under-provisioned)
// from ordinary help-first far-field spill.
func (p *Pool) InlineClassBusyNs(dst []int64) []int64 {
	for i := range p.inlineClass {
		dst = append(dst, p.inlineClass[i].Load())
	}
	return dst
}

// ResetWorkerBusy zeroes the per-worker and per-class busy counters.
// Racing tasks may re-add time concurrently; intended for quiescent
// points.
func (p *Pool) ResetWorkerBusy() {
	for i := range p.busy {
		p.busy[i].Store(0)
	}
	for i := range p.inlineClass {
		p.inlineClass[i].Store(0)
	}
	for i := range p.classBusy {
		p.classBusy[i].Store(0)
	}
}

// ClassBusyNs appends the cumulative per-class busy time (ns) to dst and
// returns it, one entry per Class in enumeration order (general, far,
// near). Inline executions are included in their class's bucket. Counters
// are cumulative since pool creation or the last ResetWorkerBusy.
func (p *Pool) ClassBusyNs(dst []int64) []int64 {
	for i := range p.classBusy {
		dst = append(dst, p.classBusy[i].Load())
	}
	return dst
}

// TaskPanic wraps a panic recovered from a pool task. Worker panics do
// not kill the process: the group captures the first one (with its
// stack) and re-raises it at the join point — Wait re-panics it in the
// waiting goroutine, WaitErr returns it as an error. Either way the
// panicking task's worker slot is returned to the pool first, so a
// crashing task can neither deadlock the pool nor poison a reserved
// slot partition.
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
	// tasks; Wait/WaitErr surface it after the join.
	panicked atomic.Pointer[TaskPanic]
}

// NewGroup returns a ClassGeneral task group bound to the pool.
func (p *Pool) NewGroup() *Group { return &Group{pool: p} }

// NewGroupClass returns a task group whose tasks are charged to class c
// and, for ClassNear under an active reservation, placed on the reserved
// worker slots.
func (p *Pool) NewGroupClass(c Class) *Group { return &Group{pool: p, class: c} }

// sems returns the semaphore this group's class draws slots from. Only
// ClassNear uses the reserved partition, and only while one is active;
// everything else (and ClassNear with no reservation) shares the general
// slots.
func (g *Group) sems() chan int {
	if g.class == ClassNear && g.pool.reserved.Load() > 0 {
		return g.pool.resSem
	}
	return g.pool.sem
}

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
	sem := g.sems()
	select {
	case slot := <-sem:
		g.pool.spawned.Add(1)
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
		g.pool.inlined.Add(1)
		start := time.Now()
		g.runTask(f)
		dt := int64(time.Since(start))
		g.pool.inlineClass[g.class].Add(dt)
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

// WaitErr blocks like Wait but returns a recovered task panic as an
// error instead of re-panicking, for callers that degrade gracefully.
func (g *Group) WaitErr() error {
	g.wg.Wait()
	if tp := g.panicked.Load(); tp != nil {
		return tp
	}
	return nil
}

// ParallelRange splits [0, n) into roughly equal chunks and processes them
// concurrently, at most pool.Workers() at a time.
func (p *Pool) ParallelRange(n int, f func(lo, hi int)) {
	p.ParallelRangeClass(ClassGeneral, n, f)
}

// ParallelRangeClass is ParallelRange with the chunk tasks admitted under
// class c. Ranges of different classes may run concurrently from
// different goroutines.
func (p *Pool) ParallelRangeClass(c Class, n int, f func(lo, hi int)) {
	if n <= 0 {
		return
	}
	chunks := p.rangeChunks(c)
	if chunks > n {
		chunks = n
	}
	g := p.NewGroupClass(c)
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

// rangeChunks sizes the chunk count for a parallel range of class c: 4×
// the slot count the class can actually occupy, so chunk granularity
// tracks the partition rather than the whole pool when a reservation is
// active.
func (p *Pool) rangeChunks(c Class) int {
	w := p.workers
	if res := int(p.reserved.Load()); res > 0 {
		if c == ClassNear {
			w = res
		} else {
			w = p.workers - res
		}
	}
	if w < 1 {
		w = 1
	}
	return w * 4
}

// ParallelRangeWeighted splits [0, len(weights)) into contiguous chunks of
// roughly equal total weight and processes them concurrently, at most
// pool.Workers() at a time. Item i carries weights[i] units of work
// (negative weights count as zero); a single item heavier than the chunk
// target forms its own chunk, so a few heavy items cannot serialize the
// tail behind one task. With all-zero weights it degrades to ParallelRange.
func (p *Pool) ParallelRangeWeighted(weights []int64, f func(lo, hi int)) {
	p.ParallelRangeWeightedClass(ClassGeneral, weights, f)
}

// ParallelRangeWeightedClass is ParallelRangeWeighted with the chunk
// tasks admitted under class c. The chunk boundaries depend only on the
// weights and the pool geometry as seen at entry, never on execution
// interleaving, which is what keeps accumulation order — and therefore
// floating-point results — independent of what else runs concurrently.
func (p *Pool) ParallelRangeWeightedClass(c Class, weights []int64, f func(lo, hi int)) {
	if len(weights) == 0 {
		return
	}
	bounds := p.WeightedBounds(c, weights)
	g := p.NewGroupClass(c)
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		g.Spawn(func() { f(lo, hi) })
	}
	g.Wait()
}

// WeightedBounds returns the chunk boundaries ParallelRangeWeightedClass
// uses for weights under class c: ascending indices b with b[0] == 0 and
// b[len(b)-1] == len(weights); chunk k covers [b[k], b[k+1]). The step
// graph's builder (internal/dag) cuts its chunk nodes with it. Boundaries
// depend only on the weights and the pool geometry at call time, never on
// execution interleaving.
func (p *Pool) WeightedBounds(c Class, weights []int64) []int {
	n := len(weights)
	if n == 0 {
		return []int{0}
	}
	chunks := p.rangeChunks(c)
	if chunks > n {
		chunks = n
	}
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
