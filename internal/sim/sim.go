// Package sim drives time-dependent simulations: a symplectic integrator
// for the gravitational problem, an overdamped marker update for the
// Stokes problem, per-step refills of the decomposition, and the paper's
// three load-balancing strategies with full per-step records (the data
// behind Figures 8-10 and Table II).
package sim

import (
	"fmt"
	"io"
	"math"
	"path/filepath"

	"afmm/internal/balance"
	"afmm/internal/checkpoint"
	"afmm/internal/core"
	"afmm/internal/geom"
	"afmm/internal/particle"
	"afmm/internal/sched"
	"afmm/internal/stokes"
	"afmm/internal/telemetry"
)

// CheckpointFile is the rolling auto-checkpoint filename inside
// Config.CheckpointDir (atomically replaced on every write).
const CheckpointFile = "auto.ckpt"

// Config controls a run.
type Config struct {
	Dt      float64
	Steps   int
	Balance balance.Config
	// CheckpointEvery K > 0 snapshots the run after every K completed
	// steps: an in-memory snapshot is always kept for step-level recovery,
	// and when CheckpointDir is set it is also persisted atomically
	// (temp file + rename) as CheckpointDir/auto.ckpt. K <= 0 keeps only
	// the run's initial state, so recovery restarts from the beginning.
	CheckpointEvery int
	CheckpointDir   string
	// MaxRecoveries bounds how many failed steps the loop will recover
	// from (restore the last snapshot, re-run degraded) before giving up
	// and returning the error in Result.Err. Default 3.
	MaxRecoveries int
	// Resume, when non-nil, seeds the run from a checkpoint: the caller
	// has already restored the bodies into the solver (and built it with
	// the snapshot's S); the loop imports the balancer FSM state and
	// continues step numbering from Snapshot.Step toward Steps.
	Resume *checkpoint.Snapshot
	// Rec, when non-nil, is the telemetry recorder the run threads through
	// the solver, the balancer, and the step loop: a recorder with
	// Options.JSONL writes one telemetry.StepRecord per step as a JSON
	// line (timings, S, balancer state and typed events, phase spans,
	// cost-model observation); Options.Keep + WriteChrome export a
	// timeline.
	Rec *telemetry.Recorder
	// Observe, when non-nil, is called after each step's solve+move with
	// the step's potentials and accelerations (velocities, for Stokes)
	// permuted back to input order. Both slices are loop-owned buffers
	// refilled in place every step (particle's allocation-free Into
	// permuters), so the whole run costs two allocations, not two per
	// step — copy anything that must survive the callback.
	Observe func(step int, phi []float64, acc []geom.Vec3)
}

// StepRecord captures one time step. The *Ns fields are host wall-clock
// phase durations (the breakdown solvers report via StepTimes.Host plus
// the loop's own refill timing); the float64 times are virtual-machine
// seconds.
type StepRecord struct {
	Step    int
	S       int
	CPUTime float64
	GPUTime float64
	Compute float64
	LBTime  float64
	Refill  float64
	Total   float64
	State   string

	ListNs   int64 // interaction-list build/repair/skip
	FarNs    int64 // up+down sweeps (+ split L2P when overlapped)
	NearNs   int64 // near-field execution
	RefillNs int64 // tree refill
	WallNs   int64 // whole step (solve + move + refill + balance)

	// SerialWallNs is WallNs plus the time the solver saved by running
	// its near and far phases concurrently in one graph; Overlapped marks
	// steps whose solve reported it (every core.Solver step).
	SerialWallNs int64
	Overlapped   bool
}

// Result aggregates a run.
type Result struct {
	Records      []StepRecord
	TotalCompute float64
	TotalLB      float64
	TotalRefill  float64
	TotalTime    float64
	// Recoveries counts failed steps the loop recovered from (restore +
	// degraded re-run); Checkpoints counts snapshots taken. Err is set
	// when the run aborted — a step kept failing past MaxRecoveries, or a
	// checkpoint could not be written.
	Recoveries  int
	Checkpoints int
	Err         error
}

// LBPercent returns total LB time as a percentage of total compute time
// (the Table II metric).
func (r Result) LBPercent() float64 {
	if r.TotalCompute == 0 {
		return 0
	}
	return 100 * r.TotalLB / r.TotalCompute
}

// MeanTotalPerStep returns the average per-step total time.
func (r Result) MeanTotalPerStep() float64 {
	if len(r.Records) == 0 {
		return 0
	}
	return r.TotalTime / float64(len(r.Records))
}

// WriteCSV emits the records as CSV.
func (r Result) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "step,S,cpu,gpu,compute,lb,refill,total,state,list_ns,far_ns,near_ns,refill_ns,wall_ns,serial_wall_ns,overlapped"); err != nil {
		return err
	}
	for _, rec := range r.Records {
		ov := 0
		if rec.Overlapped {
			ov = 1
		}
		if _, err := fmt.Fprintf(w, "%d,%d,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%s,%d,%d,%d,%d,%d,%d,%d\n",
			rec.Step, rec.S, rec.CPUTime, rec.GPUTime, rec.Compute,
			rec.LBTime, rec.Refill, rec.Total, rec.State,
			rec.ListNs, rec.FarNs, rec.NearNs, rec.RefillNs, rec.WallNs,
			rec.SerialWallNs, ov); err != nil {
			return err
		}
	}
	return nil
}

// Stepper is the solver surface the shared step loop drives: the
// balancer's Target plus the per-step tree refill and telemetry hookup.
type Stepper interface {
	balance.Target
	Refill()
	SetRecorder(*telemetry.Recorder)
}

// restoreInto copies a snapshot's bodies back into the stepper's system
// (the arrays are same-length: snapshots never resize a run), rebuilds
// the decomposition at the snapshot's S, and re-imports the balancer FSM.
func restoreInto(s Stepper, bal *balance.Balancer, sn *checkpoint.Snapshot) {
	sys := s.System()
	copy(sys.Pos, sn.Pos)
	copy(sys.Vel, sn.Vel)
	copy(sys.Aux, sn.Aux)
	copy(sys.Mass, sn.Mass)
	copy(sys.Index, sn.Index)
	s.Rebuild(sn.S)
	if sn.HasBal {
		bal.Import(sn.Bal)
	}
}

// trimTo drops records from failed-then-replayed steps (step >= from) and
// recomputes the running totals, so a recovered run's Result reads like
// the steps that actually stand.
func (r *Result) trimTo(from int) {
	keep := r.Records[:0]
	for _, rec := range r.Records {
		if rec.Step < from {
			keep = append(keep, rec)
		}
	}
	r.Records = keep
	r.TotalCompute, r.TotalLB, r.TotalRefill, r.TotalTime = 0, 0, 0, 0
	for _, rec := range r.Records {
		r.TotalCompute += rec.Compute
		r.TotalLB += rec.LBTime
		r.TotalRefill += rec.Refill
		r.TotalTime += rec.Total
	}
}

// runLoop is the single step loop behind RunGravity and RunStokes, so the
// refill/balance/trace accounting cannot drift between the two problems.
// solveAndMove performs one solve plus the problem's position update and
// returns the step's virtual CPU/GPU times and the solver's host phase
// breakdown; a non-nil error marks the step failed with the system in an
// untrusted state (the position update must not have run).
//
// Failed steps recover through the checkpoint machinery: the loop
// restores the last snapshot (taken every CheckpointEvery steps; at least
// the run's initial state), re-runs from there — degraded, since a lost
// device stays lost across the restore — and gives up with Result.Err
// after MaxRecoveries failures.
func runLoop(s Stepper, cfg Config, solveAndMove func(rec *telemetry.Recorder) (cpu, gpu float64, host telemetry.HostPhases, err error)) Result {
	rec := cfg.Rec
	if rec.Enabled() {
		s.SetRecorder(rec)
		cfg.Balance.Rec = rec
	}
	if cfg.MaxRecoveries == 0 {
		cfg.MaxRecoveries = 3
	}
	bal := balance.New(cfg.Balance, s.System().Len())
	var res Result
	startStep := 0
	// Snapshots double-buffer: the capture (a memcpy of the bodies) runs on
	// the step boundary, but the gob encode + fsync + rename streams to disk
	// on a background goroutine while the next step computes. Alternating
	// buffers let the writer encode one snapshot while the loop captures the
	// next; a buffer is only reused after its write has been joined. The
	// in-memory lastSnap pointer always names the newest capture, so
	// step-level recovery never waits on the disk.
	var snapBufs [2]checkpoint.Snapshot
	snapCur := 0
	var lastSnap *checkpoint.Snapshot
	var writeDone chan error // nil when no write is in flight
	joinWrite := func() error {
		if writeDone == nil {
			return nil
		}
		tok := rec.Begin(telemetry.SpanCkptWait, 0)
		err := <-writeDone
		rec.End(tok)
		writeDone = nil
		return err
	}
	if cfg.Resume != nil {
		snapBufs[0] = *cfg.Resume
		lastSnap = &snapBufs[0]
		snapCur = 1
		startStep = lastSnap.Step
		if lastSnap.HasBal {
			bal.Import(lastSnap.Bal)
		}
	} else {
		checkpoint.CaptureStateInto(&snapBufs[0], s.System(), s.S(), 0, 0, bal)
		lastSnap = &snapBufs[0]
		snapCur = 1
	}
	saveSnap := func(step int) bool {
		tok := rec.Begin(telemetry.SpanCheckpoint, 0)
		defer rec.End(tok)
		// Writes to the rolling file must commit in order, and the buffer
		// about to be recaptured may still be under encode — join first.
		if err := joinWrite(); err != nil {
			res.Err = err
			return false
		}
		sn := &snapBufs[snapCur]
		snapCur = 1 - snapCur
		checkpoint.CaptureStateInto(sn, s.System(), s.S(), step, float64(step)*cfg.Dt, bal)
		lastSnap = sn
		res.Checkpoints++
		if cfg.CheckpointDir != "" {
			path := filepath.Join(cfg.CheckpointDir, CheckpointFile)
			writeDone = make(chan error, 1)
			done := writeDone
			go func() { done <- checkpoint.WriteFile(path, *sn) }()
		}
		return true
	}
	// Input-order observation buffers, reused across steps (see
	// Config.Observe).
	var phiBuf []float64
	var accBuf []geom.Vec3
	for step := startStep; step < cfg.Steps; step++ {
		rec.StartStep(step)
		wallTimer := sched.StartTimer()
		cpu, gpu, host, serr := solveAndMove(rec)
		if serr != nil {
			rec.EmitEvent(telemetry.EventStepFail, int64(step), 0, 0, 0)
			res.Recoveries++
			if res.Recoveries > cfg.MaxRecoveries {
				res.Err = fmt.Errorf("sim: step %d failed after %d recoveries: %w",
					step, cfg.MaxRecoveries, serr)
				joinWrite()
				rec.EndStep()
				return res
			}
			rt := sched.StartTimer()
			restoreInto(s, bal, lastSnap)
			rec.AddSpan(telemetry.SpanRestore, 0, rt.StartTime(), rt.Elapsed())
			rec.EmitEvent(telemetry.EventRestore, int64(step), int64(lastSnap.Step), 0, 0)
			rec.EndStep()
			res.trimTo(lastSnap.Step)
			step = lastSnap.Step - 1 // re-run from the snapshot, degraded
			continue
		}
		compute := math.Max(cpu, gpu)
		// Observation tail: the input-order copies are taken before Refill
		// permutes the storage arrays.
		if cfg.Observe != nil {
			sys := s.System()
			phiBuf = sys.PhiInInputOrderInto(phiBuf)
			accBuf = sys.AccInInputOrderInto(accBuf)
			cfg.Observe(step, phiBuf, accBuf)
		}
		refillTimer := sched.StartTimer()
		s.Refill()
		refillDur := refillTimer.Elapsed()
		rec.AddSpan(telemetry.SpanRefill, 0, refillTimer.StartTime(), refillDur)
		refill := balance.LBCostModel{}.RefillCost(s)
		balTimer := sched.StartTimer()
		rep := bal.AfterStep(s, balance.StepTimes{CPU: cpu, GPU: gpu})
		rec.AddSpan(telemetry.SpanBalance, 0, balTimer.StartTime(), balTimer.Elapsed())
		wall := wallTimer.Elapsed()
		r := StepRecord{
			Step:     step,
			S:        rep.NewS,
			CPUTime:  cpu,
			GPUTime:  gpu,
			Compute:  compute,
			LBTime:   rep.LBTime,
			Refill:   refill,
			Total:    compute + rep.LBTime + refill,
			State:    rep.State.String(),
			ListNs:   host.List.Nanoseconds(),
			FarNs:    host.Far.Nanoseconds(),
			NearNs:   host.Near.Nanoseconds(),
			RefillNs: refillDur.Nanoseconds(),
			WallNs:   wall.Nanoseconds(),
			// The overlap saving is solve-internal; lift it onto the step
			// wall so per-step sequential-vs-overlapped comparisons read
			// directly off the record.
			SerialWallNs: (wall + (host.SerialWall - host.Wall)).Nanoseconds(),
			Overlapped:   host.Overlapped,
		}
		rec.Update(func(sr *telemetry.StepRecord) {
			sr.Step, sr.S, sr.State = step, rep.NewS, r.State
			sr.LB, sr.Refill = rep.LBTime, refill
		})
		// The step's wall ends here; its checkpoint and the wait for the
		// previous write still land in its record, after the wall.
		rec.StopWall()
		res.Records = append(res.Records, r)
		res.TotalCompute += r.Compute
		res.TotalLB += r.LBTime
		res.TotalRefill += r.Refill
		res.TotalTime += r.Total
		saved := true
		if cfg.CheckpointEvery > 0 && (step+1)%cfg.CheckpointEvery == 0 {
			// Snapshot after the completed step (post-move, post-balance),
			// so a restore re-runs from exactly this boundary.
			saved = saveSnap(step + 1)
		}
		if !saved || step == cfg.Steps-1 {
			// Drain the last streaming write so the on-disk checkpoint is
			// committed (and its error reported) before the run returns.
			if err := joinWrite(); err != nil && res.Err == nil {
				res.Err = err
			}
		}
		rec.EndStep()
		if !saved {
			return res
		}
	}
	return res
}

// RunGravity advances the gravitational system for cfg.Steps steps with
// the given balancing strategy. Each step: solve (compute time), kick-drift
// integrate, refill the tree, then let the balancer act for the next step.
// A failed solve (device fault with recovery disabled, validation error,
// worker panic) skips the integrator and triggers checkpoint recovery.
func RunGravity(s *core.Solver, cfg Config) Result {
	return runLoop(s, cfg, func(rec *telemetry.Recorder) (cpu, gpu float64, host telemetry.HostPhases, err error) {
		st, err := s.SolveChecked()
		if err != nil {
			return 0, 0, st.Host, err
		}
		intTimer := sched.StartTimer()
		KickDrift(s.Sys, cfg.Dt)
		rec.AddSpan(telemetry.SpanIntegrate, 0, intTimer.StartTime(), intTimer.Elapsed())
		return st.CPUTime, st.GPUTime, st.Host, nil
	})
}

// RunStokes advances an overdamped Stokes simulation: boundary forces are
// evaluated, the Stokes solve yields marker velocities, markers move with
// the flow, and the balancer acts between steps.
func RunStokes(s *stokes.Solver, boundaries []stokes.Boundary, cfg Config) Result {
	return runLoop(s, cfg, func(rec *telemetry.Recorder) (cpu, gpu float64, host telemetry.HostPhases, err error) {
		forceTimer := sched.StartTimer()
		stokes.ClearForces(s.Sys)
		for _, b := range boundaries {
			b.AccumulateForces(s.Sys)
		}
		rec.AddSpan(telemetry.SpanForces, 0, forceTimer.StartTime(), forceTimer.Elapsed())
		st, err := s.SolveChecked()
		if err != nil {
			return 0, 0, st.Host, err
		}
		intTimer := sched.StartTimer()
		for i := range s.Sys.Pos {
			s.Sys.Pos[i] = s.Sys.Pos[i].Add(s.Sys.Acc[i].Scale(cfg.Dt))
		}
		rec.AddSpan(telemetry.SpanIntegrate, 0, intTimer.StartTime(), intTimer.Elapsed())
		return st.CPUTime, st.GPUTime, st.Host, nil
	})
}

// KickDrift advances velocities then positions (symplectic Euler), using
// the accelerations of the last solve.
func KickDrift(sys *particle.System, dt float64) {
	for i := range sys.Pos {
		sys.Vel[i] = sys.Vel[i].Add(sys.Acc[i].Scale(dt))
		sys.Pos[i] = sys.Pos[i].Add(sys.Vel[i].Scale(dt))
	}
}

// SuggestDt returns an adaptive time step: eta * min_i sqrt(eps / |a_i|),
// the standard softened-N-body criterion, clamped to [dtMin, dtMax]. Use
// after a Solve so sys.Acc is current.
func SuggestDt(sys *particle.System, eps, eta, dtMin, dtMax float64) float64 {
	best := dtMax
	for i := range sys.Acc {
		a := sys.Acc[i].Norm()
		if a <= 0 {
			continue
		}
		dt := eta * math.Sqrt(eps/a)
		if dt < best {
			best = dt
		}
	}
	if best < dtMin {
		best = dtMin
	}
	return best
}

// Energies returns the kinetic and potential energy of the system using
// the potentials of the last solve (pot = 1/2 sum m_i phi_i).
func Energies(sys *particle.System) (kin, pot float64) {
	for i := range sys.Pos {
		kin += 0.5 * sys.Mass[i] * sys.Vel[i].Norm2()
		pot += 0.5 * sys.Mass[i] * sys.Phi[i]
	}
	return kin, pot
}

// AngularMomentum returns the total angular momentum about the origin.
func AngularMomentum(sys *particle.System) geom.Vec3 {
	var l geom.Vec3
	for i := range sys.Pos {
		l = l.Add(sys.Pos[i].Cross(sys.Vel[i]).Scale(sys.Mass[i]))
	}
	return l
}
