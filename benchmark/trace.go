package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"syscall"
	"time"

	"afmm/internal/balance"
	"afmm/internal/dmem"
	"afmm/internal/octree"
	"afmm/internal/sim"
	"afmm/internal/stokes"
	"afmm/internal/telemetry"
)

// span is one timed call into a layer, made by the benchmark's own step
// loop. Parent is the ID of the enclosing step span (-1 for a step span).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Step     int    `json:"step"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Round    int    `json:"round"`
}

// tracer keeps the spans of one traced round in memory; they are written
// out, if at all, after the last measurement.
type tracer struct {
	workload string
	round    int
	epoch    time.Time
	spans    []span
	open     int // index of the open step span
}

func newTracer(workload string, round int) *tracer {
	return &tracer{workload: workload, round: round, epoch: time.Now(), open: -1}
}

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

func (t *tracer) beginStep(step int) {
	t.open = len(t.spans)
	t.spans = append(t.spans, span{
		ID: t.open, Parent: -1, Name: "step", Step: step,
		StartNs: t.now(), Workload: t.workload, Round: t.round,
	})
}

func (t *tracer) endStep() {
	t.spans[t.open].EndNs = t.now()
	t.open = -1
}

// do runs f inside a span that is a child of the open step.
func (t *tracer) do(name string, f func()) {
	s := span{
		ID: len(t.spans), Parent: t.open, Name: name, Step: t.spans[t.open].Step,
		StartNs: t.now(), Workload: t.workload, Round: t.round,
	}
	f()
	s.EndNs = t.now()
	t.spans = append(t.spans, s)
}

// meanMs returns the time spent in spans called name per step, over the
// steps numbered from first on.
func (t *tracer) meanMs(name string, first int) float64 {
	var total int64
	steps := 0
	for _, s := range t.spans {
		if s.Step < first {
			continue
		}
		if s.Name == "step" {
			steps++
		}
		if s.Name == name {
			total += s.EndNs - s.StartNs
		}
	}
	if steps == 0 {
		return 0
	}
	return float64(total) / 1e6 / float64(steps)
}

// totalMs returns the time spent in spans called name over the whole round.
func (t *tracer) totalMs(name string) float64 {
	var total int64
	for _, s := range t.spans {
		if s.Name == name {
			total += s.EndNs - s.StartNs
		}
	}
	return float64(total) / 1e6
}

// stepWallsMs returns the duration of every step span from first on.
func (t *tracer) stepWallsMs(first int) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == "step" && s.Step >= first {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// coverage is the share of the step spans' time that their child spans
// account for: what the loop spends outside any layer call is the rest.
func (t *tracer) coverage(first int) float64 {
	var steps, children int64
	for _, s := range t.spans {
		if s.Step < first {
			continue
		}
		if s.Name == "step" {
			steps += s.EndNs - s.StartNs
		} else {
			children += s.EndNs - s.StartNs
		}
	}
	if steps == 0 {
		return 0
	}
	return float64(children) / float64(steps)
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traced is what one traced round observed besides its spans. Sums run
// over the timed steps only (the cold step of a coldSetup workload is
// excluded, as in the untraced pass).
type traced struct {
	tr    *tracer
	first int // first timed step
	steps int // timed steps

	// solver-reported host phases and modeled times, summed
	solve, list, far, near, serial time.Duration
	cpuModel, gpuModel             float64
	cpuEff, gpuEff                 float64
	model, compute, lb             float64
	cpuTime                        time.Duration // process CPU over the timed steps

	lists      octree.ListStats // BuildLists activity of the timed steps
	predictErr []float64

	rebuilds, enforced, fineGrained int
	states                          map[balance.State]int
	finalS                          int

	// dmem
	bytes, msgs, frames, retries int64
	imbalance, hidden, comm      float64
	rebalances                   int // over the whole round, the cold step included

	posHash uint64
}

// processCPU returns the CPU time (user + system) the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (td *traced) addLists(ld octree.ListStats) {
	td.lists.FullBuilds += ld.FullBuilds
	td.lists.Repairs += ld.Repairs
	td.lists.Skips += ld.Skips
	td.lists.Pairs += ld.Pairs
}

// solveOut is the part of core.StepTimes and stokes.StepTimes the traced
// loop needs.
type solveOut struct {
	cpu, gpu, cpuEff, gpuEff float64
	host                     telemetry.HostPhases
}

func (in *instance) solveChecked() (solveOut, error) {
	if in.w.kind == kindStokes {
		st, err := in.stk.SolveChecked()
		return solveOut{cpu: st.CPUTime, gpu: st.GPUTime, host: st.Host}, err
	}
	st, err := in.grav.SolveChecked()
	return solveOut{cpu: st.CPUTime, gpu: st.GPUTime, cpuEff: st.CPUEff, gpuEff: st.GPUEff, host: st.Host}, err
}

// stepper is the solver surface sim's step loop drives.
type stepper interface {
	balance.Target
	Refill()
}

func (in *instance) stepper() stepper {
	if in.w.kind == kindStokes {
		return in.stk
	}
	return in.grav
}

// evalForces re-evaluates the Stokes boundary forces into sys.Aux, as
// sim.RunStokes does before every solve; gravity has none.
func (in *instance) evalForces() {
	if in.w.kind != kindStokes {
		return
	}
	stokes.ClearForces(in.sys)
	for _, b := range in.bnd {
		b.AccumulateForces(in.sys)
	}
}

// coldStep runs the cold first step of a coldSetup workload through the
// public loop.
func (in *instance) coldStep() error {
	if !in.w.coldSetup {
		return nil
	}
	_, err := in.run(0, 1)
	return err
}

func (in *instance) integrate() {
	if in.w.kind == kindStokes {
		sys, dt := in.sys, in.w.dt
		for i := range sys.Pos {
			sys.Pos[i] = sys.Pos[i].Add(sys.Acc[i].Scale(dt))
		}
		return
	}
	sim.KickDrift(in.sys, in.w.dt)
}

// totalSteps is the length of a round: the timed steps plus the cold one.
func (w *workload) totalSteps() (total, first int) {
	if w.coldSetup {
		return w.steps + 1, 1
	}
	return w.steps, 0
}

// tracedRound advances a fresh instance through the benchmark's own copy
// of the workload's run loop: the same exported calls in the same order as
// sim.runLoop (or dmem.Solver.RunWith), each inside a span. BuildLists,
// NearField and M2LClasses are called in their own spans just before the
// solve; the solve then finds them cached, so their cost moves out of its
// span without any change of state. That the copy is the same program is
// checked by the caller: final positions and modeled times must equal the
// public loop's.
func tracedRound(in *instance, round int) (*traced, error) {
	total, first := in.w.totalSteps()
	td := &traced{tr: newTracer(in.w.name, round), first: first, steps: in.w.steps, states: map[balance.State]int{}}
	var err error
	if in.w.kind == kindDmem {
		err = in.tracedDmem(td, total)
	} else {
		err = in.tracedSim(td, total)
	}
	td.posHash = positionHash(in.sys)
	return td, err
}

func (in *instance) tracedSim(td *traced, total int) error {
	tr, w := td.tr, in.w
	s := in.stepper()
	t := in.tree()
	bal := balance.New(w.balanceConfig(), in.sys.Len())
	gpus := in.grav != nil && in.grav.Cluster != nil
	var cpu0 time.Duration
	for step := 0; step < total; step++ {
		timed := step >= td.first
		if step == td.first {
			cpu0 = processCPU()
		}
		tr.beginStep(step)
		if w.kind == kindStokes {
			tr.do("stokes.forces", in.evalForces)
		}
		ls0 := t.ListBuildStats()
		tr.do("octree.lists", t.BuildLists)
		ld := t.ListBuildStats().Sub(ls0)
		tr.do("octree.nearfield", func() { t.NearField() })
		tr.do("octree.m2lclasses", func() { t.M2LClasses() })
		var predicted float64
		if step > 0 {
			// The cost model has observed at least one step: ask it what
			// this tree will cost, then compare with what the solve reports.
			tr.do("costmodel.predict", func() {
				c, g := s.Predict()
				if gpus {
					predicted = math.Max(c, g)
				} else {
					// No devices: the near field runs on the same virtual
					// cores, so the observed compute is the sum.
					predicted = c + g
				}
			})
		}
		var so solveOut
		var serr error
		tr.do("solve", func() { so, serr = in.solveChecked() })
		if serr != nil {
			tr.endStep()
			return fmt.Errorf("%s: traced step %d: %w", w.name, step, serr)
		}
		tr.do("sim.integrate", in.integrate)
		tr.do("octree.refill", s.Refill)
		refill := bal.Cfg.Costs.RefillCost(s)
		var rep balance.Report
		tr.do("balance.afterstep", func() {
			rep = bal.AfterStep(s, balance.StepTimes{CPU: so.cpu, GPU: so.gpu})
		})
		tr.endStep()

		if !timed {
			continue
		}
		compute := math.Max(so.cpu, so.gpu)
		td.solve += so.host.Wall
		td.list += so.host.List
		td.far += so.host.Far
		td.near += so.host.Near
		td.serial += so.host.SerialWall
		td.cpuModel += so.cpu
		td.gpuModel += so.gpu
		td.cpuEff += so.cpuEff
		td.gpuEff += so.gpuEff
		td.compute += compute
		td.lb += rep.LBTime
		td.model += compute + rep.LBTime + refill
		td.addLists(ld)
		if step > 0 && compute > 0 {
			td.predictErr = append(td.predictErr, math.Abs(predicted-compute)/compute)
		}
		td.states[rep.State]++
		if rep.Rebuilt {
			td.rebuilds++
		}
		if rep.EnforcedS {
			td.enforced++
		}
		if rep.FineGrain {
			td.fineGrained++
		}
	}
	td.cpuTime = processCPU() - cpu0
	td.finalS = s.S()
	return nil
}

func (in *instance) tracedDmem(td *traced, total int) error {
	tr, d := td.tr, in.dm
	t := in.tree()
	var cpu0 time.Duration
	for step := 0; step < total; step++ {
		if step == td.first {
			cpu0 = processCPU()
		}
		tr.beginStep(step)
		ls0 := t.ListBuildStats()
		tr.do("octree.lists", t.BuildLists)
		ld := t.ListBuildStats().Sub(ls0)
		tr.do("octree.nearfield", func() { t.NearField() })
		var rep dmem.StepReport
		tr.do("solve", func() { rep = d.Solve() })
		tr.do("sim.integrate", in.integrate)
		tr.do("octree.refill", d.Inner.Refill)
		if rep.Imbalance > dmemPolicy.Threshold {
			tr.do("dmem.rebalance", func() { d.Rebalance() })
			td.rebalances++
		}
		tr.endStep()

		if rep.Net.Timeouts > 0 {
			return fmt.Errorf("%s: traced step %d: %d receive deadlines missed", in.w.name, step, rep.Net.Timeouts)
		}
		if step < td.first {
			continue
		}
		td.model += rep.StepTime
		td.compute += rep.StepTime
		td.addLists(ld)
		td.bytes += rep.TotalBytes
		td.msgs += rep.TotalMsgs
		td.frames += rep.Net.FramesSent
		td.retries += rep.Net.Retries
		td.imbalance += rep.Imbalance
		for _, nt := range rep.PerNode {
			td.hidden += nt.Hidden
			td.comm += nt.CommTime
		}
	}
	td.cpuTime = processCPU() - cpu0
	td.finalS = d.Inner.S()
	return nil
}
