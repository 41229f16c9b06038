package sim

import (
	"path/filepath"
	"testing"

	"afmm/internal/balance"
	"afmm/internal/checkpoint"
	"afmm/internal/core"
	"afmm/internal/distrib"
	"afmm/internal/fault"
	"afmm/internal/kernels"
	"afmm/internal/telemetry"
	"afmm/internal/vgpu"
)

// faultSolver builds a two-device gravity solver with an optional fault
// schedule. The balancer config used with it pins S (MinS == MaxS), so
// the search settles immediately without a rebuild and paired runs stay
// structurally comparable.
func faultSolver(t *testing.T, n int, spec string, mut func(cfg *core.Config)) *core.Solver {
	t.Helper()
	sys := distrib.UniformCube(n, 10, 5)
	cfg := core.Config{
		P: 4, S: 32, NumGPUs: 2,
		Kernel:   kernels.Gravity{G: 1, Softening: 1e-3},
		Watchdog: vgpu.WatchdogConfig{ChunkRows: 8},
	}
	if spec != "" {
		sch, err := fault.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = fault.NewInjector(sch)
	}
	if mut != nil {
		mut(&cfg)
	}
	return core.NewSolver(sys, cfg)
}

func pinnedCfg(steps int) Config {
	return Config{
		Dt:    1e-4,
		Steps: steps,
		Balance: balance.Config{
			Strategy: balance.StrategyStatic,
			MinS:     32, MaxS: 32,
		},
	}
}

func assertSameFinalState(t *testing.T, a, b *core.Solver) {
	t.Helper()
	phiA, phiB := a.Sys.PhiInInputOrder(), b.Sys.PhiInInputOrder()
	accA, accB := a.Sys.AccInInputOrder(), b.Sys.AccInInputOrder()
	posA, posB := a.Sys.Pos, b.Sys.Pos
	for i := range phiA {
		if phiA[i] != phiB[i] || accA[i] != accB[i] {
			t.Fatalf("final state diverged at body %d: phi %x vs %x", i, phiA[i], phiB[i])
		}
	}
	for i := range posA {
		if posA[i] != posB[i] {
			t.Fatalf("positions diverged at body %d", i)
		}
	}
}

// TestFaultySimBitIdenticalViaFallback: a run hit by any device fault the
// cluster absorbs inside the step — fail-stop (with another device
// straggling), hang, a 3x straggler, transient launch errors — completes
// through retries and the host fallback, with no failed steps and no
// recoveries, and its trajectory is bit-for-bit the fault-free one.
func TestFaultySimBitIdenticalViaFallback(t *testing.T) {
	const steps = 6
	a := faultSolver(t, 2000, "", nil)
	if ra := RunGravity(a, pinnedCfg(steps)); ra.Err != nil {
		t.Fatalf("fault-free run errored: %v", ra.Err)
	}
	for _, tc := range []struct {
		name, spec string
		// verdict is the per-chunk verdict the class must have delivered
		// (None for a straggler, which is a device speed, not a verdict);
		// dead and degraded are the cluster's device states after the run.
		verdict        fault.Kind
		dead, degraded int
	}{
		{"failstop", "gpu0:failstop@step2,gpu1:straggle2@step4", fault.FailStop, 1, 1},
		{"hang", "gpu0:hang@step2", fault.Hang, 1, 0},
		{"straggle3", "gpu1:straggle3@step2", fault.None, 0, 1},
		{"transient", "gpu0:transient@step2", fault.Transient, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := faultSolver(t, 2000, tc.spec, nil)
			rb := RunGravity(b, pinnedCfg(steps))
			if rb.Err != nil {
				t.Fatalf("faulted run errored: %v", rb.Err)
			}
			if rb.Recoveries != 0 {
				t.Fatalf("fallback path took %d recoveries, want 0", rb.Recoveries)
			}
			if len(rb.Records) != steps {
				t.Fatalf("got %d records, want %d", len(rb.Records), steps)
			}
			assertSameFinalState(t, a, b)
			if tc.verdict != fault.None && b.Cfg.Faults.FiredCount(tc.verdict) == 0 {
				t.Fatalf("no %s verdict was delivered", tc.name)
			}
			if rep := b.Cluster.LastReport(); rep.DeadDevices != tc.dead || rep.DegradedDevices != tc.degraded {
				t.Fatalf("dead / degraded devices = %d / %d, want %d / %d",
					rep.DeadDevices, rep.DegradedDevices, tc.dead, tc.degraded)
			}
		})
	}
}

// TestRecoveryRestoresAndRerunsDegraded: with the host fallback disabled,
// a fail-stop loss fails its step; the loop restores the auto-checkpoint
// and re-runs degraded (survivor-only partition), finishing with the same
// bits as the fault-free run. Dt is zero so the mid-run restore's tree
// rebuild reproduces the original decomposition exactly.
func TestRecoveryRestoresAndRerunsDegraded(t *testing.T) {
	const steps = 6
	rec := telemetry.New(telemetry.Options{Keep: true})
	a := faultSolver(t, 2000, "", nil)
	b := faultSolver(t, 2000, "gpu1:failstop@step3", func(cfg *core.Config) {
		cfg.Watchdog.DisableFallback = true
	})
	cfgA := pinnedCfg(steps)
	cfgA.Dt = 0
	cfgB := pinnedCfg(steps)
	cfgB.Dt = 0
	cfgB.CheckpointEvery = 2
	cfgB.Rec = rec
	ra := RunGravity(a, cfgA)
	rb := RunGravity(b, cfgB)
	if ra.Err != nil || rb.Err != nil {
		t.Fatalf("runs errored: %v / %v", ra.Err, rb.Err)
	}
	if rb.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", rb.Recoveries)
	}
	if len(rb.Records) != steps {
		t.Fatalf("got %d standing records, want %d", len(rb.Records), steps)
	}
	assertSameFinalState(t, a, b)

	// The trace shows the failure and the restore-from-step-2.
	var sawFail, sawRestore bool
	for _, sr := range rec.Steps() {
		for _, e := range sr.Events {
			switch e.Kind {
			case telemetry.EventStepFail:
				sawFail = true
				if e.A != 3 {
					t.Fatalf("step_fail at %d, want 3", e.A)
				}
			case telemetry.EventRestore:
				sawRestore = true
				if e.A != 3 || e.B != 2 {
					t.Fatalf("restore = failing %d from snapshot %d, want 3 from 2", e.A, e.B)
				}
			}
		}
	}
	if !sawFail || !sawRestore {
		t.Fatal("trace missing step_fail/restore events")
	}
}

// TestRecoveryGivesUpAfterMaxRecoveries: a fault that every re-run hits
// again (all devices dead, fallback disabled) exhausts the recovery
// budget and surfaces the error instead of looping forever.
func TestRecoveryGivesUpAfterMaxRecoveries(t *testing.T) {
	s := faultSolver(t, 1200, "gpu0:failstop@step1,gpu1:failstop@step1", func(cfg *core.Config) {
		cfg.Watchdog.DisableFallback = true
	})
	cfg := pinnedCfg(6)
	cfg.Dt = 0
	cfg.MaxRecoveries = 2
	res := RunGravity(s, cfg)
	if res.Err == nil {
		t.Fatal("unrecoverable run reported success")
	}
	if res.Recoveries != 3 { // 2 allowed + the failing third
		t.Fatalf("recoveries = %d, want 3", res.Recoveries)
	}
}

// TestCheckpointStreamingOverlapBitIdentical: with CheckpointEvery=1 every
// step computes while the previous snapshot's gob encode + fsync streams to
// disk in the background. The overlap must not perturb the trajectory — the
// run is bit-for-bit the checkpoint-free one — and the final on-disk
// snapshot must be the last captured boundary.
func TestCheckpointStreamingOverlapBitIdentical(t *testing.T) {
	const steps = 6
	dir := t.TempDir()
	plain := faultSolver(t, 1500, "", nil)
	if res := RunGravity(plain, pinnedCfg(steps)); res.Err != nil {
		t.Fatal(res.Err)
	}

	ckpt := faultSolver(t, 1500, "", nil)
	cfg := pinnedCfg(steps)
	cfg.CheckpointEvery = 1
	cfg.CheckpointDir = dir
	res := RunGravity(ckpt, cfg)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Checkpoints != steps {
		t.Fatalf("checkpoints = %d, want %d", res.Checkpoints, steps)
	}
	assertSameFinalState(t, plain, ckpt)

	sn, err := checkpoint.ReadFile(filepath.Join(dir, CheckpointFile))
	if err != nil {
		t.Fatal(err)
	}
	if sn.Step != steps {
		t.Fatalf("final snapshot at step %d, want %d", sn.Step, steps)
	}
	// The persisted snapshot must restore to exactly the final state the
	// checkpointed run ended with.
	sys, err := sn.Restore()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range sys.Pos {
		if p != ckpt.Sys.Pos[i] {
			t.Fatalf("restored pos[%d] %v != live %v", i, p, ckpt.Sys.Pos[i])
		}
	}
}

// TestCheckpointSpansLandInTheirStep: a traced run that checkpoints to
// disk every other step writes exactly one record per step. Each
// checkpoint's ckpt.save span, with the wait for the previous write inside
// it, lands in the record of the step it follows, after that step's wall:
// WallNs ends where the checkpoint begins, as it does without one.
func TestCheckpointSpansLandInTheirStep(t *testing.T) {
	const steps = 8
	rec := telemetry.New(telemetry.Options{Keep: true})
	cfg := pinnedCfg(steps)
	cfg.CheckpointEvery = 2
	cfg.CheckpointDir = t.TempDir()
	cfg.Rec = rec
	if res := RunGravity(faultSolver(t, 1500, "", nil), cfg); res.Err != nil {
		t.Fatal(res.Err)
	}
	recs := rec.Steps()
	if len(recs) != steps {
		t.Fatalf("%d step records for %d steps", len(recs), steps)
	}
	saves, waits := 0, 0
	for i, sr := range recs {
		if sr.Step != i {
			t.Fatalf("record %d is step %d", i, sr.Step)
		}
		for _, sp := range sr.Spans {
			if sp.Kind != telemetry.SpanCheckpoint && sp.Kind != telemetry.SpanCkptWait {
				continue
			}
			if (i+1)%cfg.CheckpointEvery != 0 {
				t.Fatalf("step %d checkpoints nothing but holds a %v span", i, sp.Kind)
			}
			if sp.StartNs < sr.WallNs {
				t.Fatalf("step %d: %v span starts at %d ns, inside the step's wall of %d ns", i, sp.Kind, sp.StartNs, sr.WallNs)
			}
			if sp.Kind == telemetry.SpanCheckpoint {
				saves++
			} else {
				waits++
			}
		}
	}
	if saves != steps/cfg.CheckpointEvery || waits == 0 {
		t.Fatalf("%d ckpt.save and %d ckpt.wait spans, want %d saves and some waits", saves, waits, steps/cfg.CheckpointEvery)
	}
}

// TestAutoCheckpointAndResume: the rolling on-disk checkpoint restores
// into a fresh solver and the resumed loop continues from the snapshot's
// step to the target.
func TestAutoCheckpointAndResume(t *testing.T) {
	dir := t.TempDir()
	s := faultSolver(t, 1500, "", nil)
	cfg := pinnedCfg(4)
	cfg.CheckpointEvery = 2
	cfg.CheckpointDir = dir
	res := RunGravity(s, cfg)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Checkpoints != 2 {
		t.Fatalf("checkpoints = %d, want 2", res.Checkpoints)
	}

	sn, err := checkpoint.ReadFile(filepath.Join(dir, CheckpointFile))
	if err != nil {
		t.Fatal(err)
	}
	if sn.Step != 4 || !sn.HasBal {
		t.Fatalf("snapshot step=%d hasBal=%v, want 4/true", sn.Step, sn.HasBal)
	}
	sys, err := sn.Restore()
	if err != nil {
		t.Fatal(err)
	}
	s2 := core.NewSolver(sys, core.Config{
		P: 4, S: sn.S, NumGPUs: 2,
		Kernel: kernels.Gravity{G: 1, Softening: 1e-3},
	})
	cfg2 := pinnedCfg(7)
	cfg2.Resume = &sn
	res2 := RunGravity(s2, cfg2)
	if res2.Err != nil {
		t.Fatal(res2.Err)
	}
	if len(res2.Records) != 3 {
		t.Fatalf("resumed run has %d records, want 3", len(res2.Records))
	}
	if res2.Records[0].Step != 4 || res2.Records[2].Step != 6 {
		t.Fatalf("resumed steps %d..%d, want 4..6",
			res2.Records[0].Step, res2.Records[2].Step)
	}
}
