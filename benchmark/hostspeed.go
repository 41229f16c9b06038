package main

import (
	"sort"
	"sync"
	"time"
)

// The host-speed sampler. This machine is a few virtual cores of a shared
// host, and the speed of one core — of a loop that touches nothing but
// registers and L2 — flips between two levels 20-25% apart, and wanders
// beyond them, on every time scale from 100 ms to minutes as the neighbours
// come and go (README.md, "Host speed"). A wall time taken on it is the
// program's cost times that factor. During every end-to-end round a
// goroutine therefore times a fixed piece of work, the probe, every
// probePeriod, and each timed interval (a step, a set-up) is reported as the
// time it would have taken had the probe run at probeNominal throughout:
// wall x mean(probeNominal / probe) over the probes inside the interval. The
// factor cancels; what is left repeats to a few percent where the raw wall
// repeats to 20 or 30.
//
// The probe belongs to the benchmark, so that a PR that claims a gain cannot
// change it; changing it (or probeNominal) is a benchmark PR and re-bases
// every time metric.

// probeNominal is the probe's duration at the faster of the two levels this
// host ran at when the benchmark was defined. It turns probe units back into
// seconds: the reported times are those of a host on which the probe always
// takes exactly this long.
const probeNominal = 365 * time.Microsecond

const (
	probeLen    = 32 << 10 // float64s: 256 KiB, inside L2
	probePasses = 24
	probePeriod = 25 * time.Millisecond
)

var (
	probeBuf  = newProbeBuf()
	probeSink float64
)

func newProbeBuf() []float64 {
	b := make([]float64, probeLen)
	for i := range b {
		b[i] = 1 + float64(i)*1e-6
	}
	return b
}

// probePass is the fixed work: four independent multiply-add chains over a
// read-only array, so that like the solvers' inner loops it keeps the
// floating-point units busy. It allocates nothing and has no state, so every
// call does bit-identical work.
func probePass() {
	var s0, s1, s2, s3 float64
	for pass := 0; pass < probePasses; pass++ {
		b := probeBuf
		for i := 0; i+3 < len(b); i += 4 {
			s0 = s0*0.999999 + b[i]*1.000001
			s1 = s1*0.999999 + b[i+1]*1.000001
			s2 = s2*0.999999 + b[i+2]*1.000001
			s3 = s3*0.999999 + b[i+3]*1.000001
		}
	}
	probeSink = s0 + s1 + s2 + s3
}

// hostProbe times the probe: the faster of two back-to-back passes, so that
// a timer interrupt inside one of them does not read as a slow host.
func hostProbe() time.Duration {
	t0 := time.Now()
	probePass()
	t1 := time.Now()
	probePass()
	return min(t1.Sub(t0), time.Since(t1))
}

// speedSampler probes the host every probePeriod from its own goroutine.
// The end-to-end pass runs on one OS thread, so the goroutine takes its turn
// on the core the program is using — after the Go scheduler preempts a
// running worker, which it does within 10 ms — and costs the program about
// 3% of it, the same 3% in every run.
type speedSampler struct {
	at     []time.Time // when each probe started
	speed  []float64   // probeNominal / probe: 1 at nominal speed, less on a slowed host
	quit   chan struct{}
	exited chan struct{}
	once   sync.Once
}

func startSampler() *speedSampler {
	s := &speedSampler{quit: make(chan struct{}), exited: make(chan struct{})}
	s.probe() // the first interval has a probe before it
	go func() {
		defer close(s.exited)
		t := time.NewTicker(probePeriod)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
				s.probe()
			}
		}
	}()
	return s
}

func (s *speedSampler) probe() {
	s.at = append(s.at, time.Now())
	s.speed = append(s.speed, float64(probeNominal)/float64(hostProbe()))
}

// stop ends the sampling, with a last probe so that the last interval has
// one after it; the samples may be read once it returns. Stopping twice is
// harmless.
func (s *speedSampler) stop() {
	s.once.Do(func() {
		close(s.quit)
		<-s.exited
		s.probe()
	})
}

// atNominal converts the wall time from a to b into the time the same work
// takes at nominal host speed. Work done is the integral of the speed, so
// it is wall x the mean speed over the probes taken from a to b and the one
// on either side.
func (s *speedSampler) atNominal(a, b time.Time) time.Duration {
	lo := sort.Search(len(s.at), func(i int) bool { return !s.at[i].Before(a) })
	hi := sort.Search(len(s.at), func(i int) bool { return s.at[i].After(b) })
	lo, hi = max(lo-1, 0), min(hi+1, len(s.at))
	return time.Duration(float64(b.Sub(a)) * mean(s.speed[lo:hi]))
}
