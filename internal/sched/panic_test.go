package sched

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// A panicking task must surface at Wait as a *TaskPanic in the joining
// goroutine, not kill the process from a worker.
func TestPanicSurfacesAtWait(t *testing.T) {
	p := NewPool(4)
	g := p.NewGroup()
	var ran atomic.Int32
	for i := 0; i < 8; i++ {
		i := i
		g.Spawn(func() {
			if i == 3 {
				panic("boom")
			}
			ran.Add(1)
		})
	}
	var tp *TaskPanic
	func() {
		defer func() {
			r := recover()
			var ok bool
			if tp, ok = r.(*TaskPanic); !ok {
				t.Fatalf("Wait re-panicked %T, want *TaskPanic", r)
			}
		}()
		g.Wait()
	}()
	if tp.Value != "boom" {
		t.Fatalf("TaskPanic.Value = %v, want boom", tp.Value)
	}
	if !strings.Contains(tp.Error(), "boom") {
		t.Fatalf("TaskPanic.Error() missing panic value: %q", tp.Error())
	}
	if ran.Load() != 7 {
		t.Fatalf("non-panicking tasks: ran %d of 7", ran.Load())
	}
}

// waitErr joins g and returns the *TaskPanic Wait re-panics, or nil.
func waitErr(g *Group) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = r.(*TaskPanic)
		}
	}()
	g.Wait()
	return nil
}

// An inline-executed task (all slots busy) panicking must also be
// captured, not unwind through Spawn into the caller.
func TestInlinePanicCaptured(t *testing.T) {
	p := NewPool(1)
	g := p.NewGroup()
	block := make(chan struct{})
	g.Spawn(func() { <-block }) // occupy the only slot
	// This Spawn must execute inline; its panic must not propagate here.
	g.Spawn(func() { panic("inline boom") })
	close(block)
	err := waitErr(g)
	if err == nil || !strings.Contains(err.Error(), "inline boom") {
		t.Fatalf("inline panic not captured: %v", err)
	}
}

// After a panicking task, the pool must be fully usable: no slot leaked
// (no deadlock on full-width work).
func TestPanicDoesNotPoisonPool(t *testing.T) {
	const workers = 4
	p := NewPool(workers)

	g := p.NewGroup()
	for i := 0; i < workers*4; i++ {
		g.Spawn(func() { panic("die") })
	}
	if err := waitErr(g); err == nil {
		t.Fatal("expected panic error")
	}

	// Every slot must be back: a barrier needing all workers at once
	// would deadlock if any slot leaked.
	done := make(chan struct{})
	go func() {
		defer close(done)
		g2 := p.NewGroup()
		var running atomic.Int32
		for i := 0; i < workers; i++ {
			g2.Spawn(func() {
				running.Add(1)
				for running.Load() < workers {
					time.Sleep(time.Millisecond)
				}
			})
		}
		g2.Wait()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("pool deadlocked after task panic: slot leaked")
	}
}

// ParallelRange joins through Wait, so a panic inside a range body
// surfaces to the range caller as *TaskPanic.
func TestParallelRangePanicPropagates(t *testing.T) {
	p := NewPool(4)
	defer func() {
		if _, ok := recover().(*TaskPanic); !ok {
			t.Fatal("want *TaskPanic from ParallelRange")
		}
	}()
	p.ParallelRange(100, func(lo, hi int) {
		if lo == 0 {
			panic("range boom")
		}
	})
	t.Fatal("unreachable: ParallelRange should have panicked")
}

// A nested group's re-panicked TaskPanic propagates to the outer join
// unwrapped (no TaskPanic-wrapping-TaskPanic chains).
func TestNestedGroupPanicUnwrapped(t *testing.T) {
	p := NewPool(4)
	outer := p.NewGroup()
	outer.Spawn(func() {
		inner := p.NewGroup()
		inner.Spawn(func() { panic("deep") })
		inner.Wait()
	})
	err := waitErr(outer)
	var tp *TaskPanic
	if !errors.As(err, &tp) {
		t.Fatalf("outer error %T", err)
	}
	if tp.Value != "deep" {
		t.Fatalf("nested panic was re-wrapped: Value=%v", tp.Value)
	}
}
