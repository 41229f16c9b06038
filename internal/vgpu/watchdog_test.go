package vgpu

import (
	"testing"
	"time"

	"afmm/internal/fault"
	"afmm/internal/octree"
	"afmm/internal/sched"
)

// accumFn returns a P2PFunc whose result is sensitive to both the set
// and the order of (target, source) applications: any dropped,
// duplicated, or reordered pair changes the accumulator bit pattern.
// Devices own disjoint targets, so concurrent execution never aliases.
func accumFn(acc []float64) P2PFunc {
	return func(sch *octree.NearSchedule, r int) {
		ti := sch.Leaves[r]
		for _, si := range sch.Row(r) {
			acc[ti] = acc[ti]*1.0000001 + float64(si)*0.5
		}
	}
}

func mustParse(t *testing.T, spec string) *fault.Injector {
	t.Helper()
	sch, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return fault.NewInjector(sch)
}

// runAccum executes one partitioned step on a fresh cluster and returns
// the accumulator.
func runAccum(t *testing.T, tree *octree.Tree, ng int, inj *fault.Injector, wd WatchdogConfig, pool *sched.Pool) ([]float64, *Cluster) {
	t.Helper()
	c := NewCluster(ng, DefaultSpec())
	c.Injector = inj
	c.Watchdog = wd
	acc := make([]float64, len(tree.Nodes))
	c.Partition(tree)
	if pool != nil {
		c.ExecuteParallel(tree, accumFn(acc), pool)
	} else {
		c.Execute(tree, accumFn(acc))
	}
	return acc, c
}

func assertBitIdentical(t *testing.T, want, got []float64, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length mismatch", label)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: accumulator %d differs: %v vs %v", label, i, want[i], got[i])
		}
	}
}

func TestFailStopFallbackBitIdentical(t *testing.T) {
	tree := buildTree(5000, 32, 11)
	wd := WatchdogConfig{ChunkRows: 8}
	ref, _ := runAccum(t, tree, 2, nil, wd, nil)

	inj := mustParse(t, "gpu1:failstop@step0#2")
	acc, c := runAccum(t, tree, 2, inj, wd, nil)
	assertBitIdentical(t, ref, acc, "failstop")

	rep := c.LastReport()
	if len(rep.Faults) != 1 || rep.Faults[0].Kind != fault.FailStop || rep.Faults[0].Device != 1 {
		t.Fatalf("report faults: %+v", rep.Faults)
	}
	if rep.Faults[0].Rows == 0 {
		t.Fatalf("device should have completed some rows before chunk 2: %+v", rep.Faults[0])
	}
	if rep.FallbackRows == 0 || rep.FallbackInteractions == 0 || rep.FallbackVirtual <= 0 {
		t.Fatalf("fallback accounting empty: %+v", rep)
	}
	if c.Devices[1].Health != Dead || c.Devices[0].Health != Healthy {
		t.Fatalf("health: %v %v", c.Devices[0].Health, c.Devices[1].Health)
	}
	if rep.DeadDevices != 1 {
		t.Fatalf("DeadDevices = %d", rep.DeadDevices)
	}
}

func TestFailStopResplitsOverSurvivors(t *testing.T) {
	tree := buildTree(5000, 32, 11)
	inj := mustParse(t, "gpu0:failstop@step0")
	c := NewCluster(3, DefaultSpec())
	c.Injector = inj
	ep0 := c.CapacityEpoch()
	cap0 := c.Capacity()

	acc := make([]float64, len(tree.Nodes))
	c.Partition(tree)
	c.Execute(tree, accumFn(acc))
	if c.CapacityEpoch() == ep0 {
		t.Fatal("capacity epoch did not advance on device death")
	}
	if got := c.Capacity(); got >= cap0 {
		t.Fatalf("capacity after loss %v, want < %v", got, cap0)
	}
	if c.AliveDevices() != 2 {
		t.Fatalf("alive = %d", c.AliveDevices())
	}

	// The next step's partition must cover every row using survivors only.
	c.Partition(tree)
	sch := tree.NearField()
	if len(c.Devices[0].Targets) != 0 {
		t.Fatalf("dead device received %d targets", len(c.Devices[0].Targets))
	}
	total := len(c.Devices[1].Targets) + len(c.Devices[2].Targets)
	if total != sch.Rows() {
		t.Fatalf("survivors cover %d of %d rows", total, sch.Rows())
	}
	// And the step executes correctly without fallback.
	ref, _ := runAccum(t, tree, 3, nil, WatchdogConfig{}, nil)
	acc2 := make([]float64, len(tree.Nodes))
	c.Execute(tree, accumFn(acc2))
	assertBitIdentical(t, ref, acc2, "post-loss step")
	if rep := c.LastReport(); rep.FallbackRows != 0 {
		t.Fatalf("unexpected fallback on post-loss step: %+v", rep)
	}
}

func TestHangDetectedByWatchdog(t *testing.T) {
	tree := buildTree(5000, 32, 12)
	wd := WatchdogConfig{ChunkRows: 8, MinDeadline: 20 * time.Millisecond}
	ref, _ := runAccum(t, tree, 2, nil, wd, nil)

	inj := mustParse(t, "gpu0:hang@step0#1")
	acc, c := runAccum(t, tree, 2, inj, wd, nil)
	assertBitIdentical(t, ref, acc, "hang")

	rep := c.LastReport()
	if len(rep.Faults) != 1 || rep.Faults[0].Kind != fault.Hang {
		t.Fatalf("report faults: %+v", rep.Faults)
	}
	if rep.Faults[0].Detect <= 0 {
		t.Fatalf("hang detection latency not recorded: %+v", rep.Faults[0])
	}
	// Detection should take at least the deadline but not forever.
	if lat := time.Duration(rep.Faults[0].Detect); lat < 10*time.Millisecond || lat > 10*time.Second {
		t.Fatalf("implausible detection latency %v", lat)
	}
	if c.Devices[0].Health != Dead {
		t.Fatal("hung device not declared dead")
	}
}

func TestTransientRetriesThenSucceeds(t *testing.T) {
	tree := buildTree(4000, 32, 13)
	wd := WatchdogConfig{ChunkRows: 16, Backoff: 50 * time.Microsecond}
	ref, _ := runAccum(t, tree, 2, nil, wd, nil)

	inj := mustParse(t, "gpu0:transient2@step0")
	acc, c := runAccum(t, tree, 2, inj, wd, nil)
	assertBitIdentical(t, ref, acc, "transient")

	rep := c.LastReport()
	if rep.TransientRetries < 2 {
		t.Fatalf("retries = %d, want >= 2", rep.TransientRetries)
	}
	if len(rep.Faults) != 0 || rep.FallbackRows != 0 {
		t.Fatalf("transient should not kill the device: %+v", rep)
	}
	if c.Devices[0].Health != Healthy || c.Devices[0].Retries < 2 {
		t.Fatalf("device state: health=%v retries=%d", c.Devices[0].Health, c.Devices[0].Retries)
	}
}

func TestTransientEscalatesToDeviceLoss(t *testing.T) {
	tree := buildTree(4000, 32, 13)
	wd := WatchdogConfig{ChunkRows: 16, MaxRetries: 2, Backoff: 50 * time.Microsecond}
	ref, _ := runAccum(t, tree, 2, nil, wd, nil)

	// 100 failures per chunk can never clear a 2-retry budget.
	inj := mustParse(t, "gpu0:transient100@step0")
	acc, c := runAccum(t, tree, 2, inj, wd, nil)
	assertBitIdentical(t, ref, acc, "transient escalation")

	rep := c.LastReport()
	if len(rep.Faults) != 1 || rep.Faults[0].Kind != fault.Transient {
		t.Fatalf("want escalated transient fault, got %+v", rep.Faults)
	}
	if c.Devices[0].Health != Dead {
		t.Fatal("device should be dead after exhausting retries")
	}
	if rep.FallbackRows == 0 {
		t.Fatal("no fallback after escalation")
	}
}

func TestStraggleDeratesWithoutChangingResults(t *testing.T) {
	tree := buildTree(5000, 32, 14)
	ref, refC := runAccum(t, tree, 2, nil, WatchdogConfig{}, nil)

	inj := mustParse(t, "gpu0:straggle2.5@step0")
	acc, c := runAccum(t, tree, 2, inj, WatchdogConfig{}, nil)
	assertBitIdentical(t, ref, acc, "straggle")

	if c.Devices[0].Health != Degraded {
		t.Fatalf("health = %v, want Degraded", c.Devices[0].Health)
	}
	if c.Devices[0].Interactions != refC.Devices[0].Interactions {
		t.Fatal("straggle changed the work assignment")
	}
	// Straggle derates compute only (PCIe is unaffected), so the kernel
	// slows by 1.5× the makespan share of the fault-free time.
	if c.Devices[0].KernelTime <= refC.Devices[0].KernelTime {
		t.Fatalf("straggled kernel %v not slower than fault-free %v",
			c.Devices[0].KernelTime, refC.Devices[0].KernelTime)
	}
	if got, want := c.Capacity(), refC.Capacity(); got >= want {
		t.Fatalf("capacity %v not derated from %v", got, want)
	}
	rep := c.LastReport()
	if rep.DegradedDevices != 1 || rep.DeadDevices != 0 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestAllDevicesDeadRunsEntirelyOnHost(t *testing.T) {
	tree := buildTree(4000, 32, 15)
	ref, _ := runAccum(t, tree, 2, nil, WatchdogConfig{}, nil)

	inj := mustParse(t, "gpu0:failstop@step0,gpu1:failstop@step0")
	acc, c := runAccum(t, tree, 2, inj, WatchdogConfig{}, nil)
	assertBitIdentical(t, ref, acc, "both dead, fault step")
	if c.AliveDevices() != 0 {
		t.Fatalf("alive = %d", c.AliveDevices())
	}

	// Subsequent steps: no device left, the whole schedule runs as host
	// fallback and still produces identical results with nonzero
	// virtual time.
	acc2 := make([]float64, len(tree.Nodes))
	c.Partition(tree)
	virt := c.Execute(tree, accumFn(acc2))
	assertBitIdentical(t, ref, acc2, "both dead, next step")
	if virt <= 0 {
		t.Fatalf("virtual time = %v, want > 0", virt)
	}
	rep := c.LastReport()
	if rep.DeadDevices != 2 || rep.FallbackRows != tree.NearField().Rows() {
		t.Fatalf("report: %+v", rep)
	}
}

func TestDisableFallbackSurfacesLoss(t *testing.T) {
	tree := buildTree(4000, 32, 16)
	inj := mustParse(t, "gpu0:failstop@step0")
	_, c := runAccum(t, tree, 2, inj, WatchdogConfig{DisableFallback: true}, nil)
	rep := c.LastReport()
	if rep.Err == nil || rep.LostRows == 0 {
		t.Fatalf("disabled fallback must report loss: %+v", rep)
	}
}

func TestFallbackBitIdenticalUnderPool(t *testing.T) {
	tree := buildTree(6000, 32, 17)
	wd := WatchdogConfig{ChunkRows: 8, MinDeadline: 20 * time.Millisecond}
	ref, _ := runAccum(t, tree, 3, nil, wd, nil)

	pool := sched.NewPool(4)
	inj := mustParse(t, "gpu1:failstop@step0#1,gpu2:straggle2@step0")
	acc, c := runAccum(t, tree, 3, inj, wd, pool)
	assertBitIdentical(t, ref, acc, "pooled fallback")
	rep := c.LastReport()
	if rep.FallbackRows == 0 || rep.DeadDevices != 1 || rep.DegradedDevices != 1 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestCorruptPoisonsViaCallback(t *testing.T) {
	tree := buildTree(3000, 32, 18)
	inj := mustParse(t, "gpu0:corrupt@step0")
	c := NewCluster(1, DefaultSpec())
	c.Injector = inj
	var poisoned []int32
	c.Corrupt = func(target int32) { poisoned = append(poisoned, target) }
	acc := make([]float64, len(tree.Nodes))
	c.Partition(tree)
	c.Execute(tree, accumFn(acc))
	if len(poisoned) != 1 {
		t.Fatalf("corrupt callback fired %d times, want 1", len(poisoned))
	}
	if c.Devices[0].Health != Healthy {
		t.Fatal("corrupt is a data fault; the device must stay healthy")
	}
}

// stepOn runs one more partitioned step on an existing cluster.
func stepOn(t *testing.T, c *Cluster, tree *octree.Tree) []float64 {
	t.Helper()
	acc := make([]float64, len(tree.Nodes))
	c.Partition(tree)
	c.Execute(tree, accumFn(acc))
	return acc
}

// TestDeviceRestorationAfterCleanProbes: with RestoreAfter set, a dead
// device whose probes come back clean for K consecutive steps is
// re-admitted — capacity epoch bumps, capacity recovers, and the next
// partition gives it work again, all without perturbing the numerics.
func TestDeviceRestorationAfterCleanProbes(t *testing.T) {
	tree := buildTree(5000, 32, 21)
	wd := WatchdogConfig{ChunkRows: 8, RestoreAfter: 2}
	ref, _ := runAccum(t, tree, 2, nil, wd, nil)

	inj := mustParse(t, "gpu1:failstop@step0")
	acc, c := runAccum(t, tree, 2, inj, wd, nil)
	assertBitIdentical(t, ref, acc, "fault step")
	if c.Devices[1].Health != Dead {
		t.Fatal("device not dead after failstop")
	}
	capDown := c.Capacity()
	ep := c.CapacityEpoch()

	// Step 1: first clean probe — streak 1 of 2, still dead.
	assertBitIdentical(t, ref, stepOn(t, c, tree), "streak step")
	if c.Devices[1].Health != Dead {
		t.Fatal("device restored after one clean probe, want two")
	}
	// Step 2: second clean probe restores the device at the top of the
	// call; partition preceded restoration, so it holds no work yet.
	assertBitIdentical(t, ref, stepOn(t, c, tree), "restoration step")
	if c.Devices[1].Health != Healthy {
		t.Fatalf("health after restoration = %v", c.Devices[1].Health)
	}
	if c.CapacityEpoch() == ep {
		t.Fatal("capacity epoch did not advance on restoration")
	}
	if got := c.Capacity(); got <= capDown {
		t.Fatalf("capacity after restoration %v, want > %v", got, capDown)
	}
	rep := c.LastReport()
	if len(rep.Restored) != 1 || rep.Restored[0] != 1 {
		t.Fatalf("report.Restored = %v", rep.Restored)
	}
	if rep.DeadDevices != 0 {
		t.Fatalf("DeadDevices = %d after restoration", rep.DeadDevices)
	}
	// Step 3: the restored device regains a share of the rows and the
	// step needs no fallback.
	assertBitIdentical(t, ref, stepOn(t, c, tree), "post-restoration step")
	if len(c.Devices[1].Targets) == 0 {
		t.Fatal("restored device received no work")
	}
	if rep := c.LastReport(); rep.FallbackRows != 0 {
		t.Fatalf("unexpected fallback after restoration: %+v", rep)
	}
}

// TestFlappingDeviceStaysOut: transient faults firing on the probe steps
// keep resetting the restoration streak, so the flapping device is not
// re-admitted until the faults stop recurring.
func TestFlappingDeviceStaysOut(t *testing.T) {
	tree := buildTree(4000, 32, 22)
	wd := WatchdogConfig{ChunkRows: 8, RestoreAfter: 2}
	ref, _ := runAccum(t, tree, 2, nil, wd, nil)

	inj := mustParse(t,
		"gpu0:failstop@step0,gpu0:transient@step1,gpu0:transient@step2,gpu0:transient@step3")
	acc, c := runAccum(t, tree, 2, inj, wd, nil)
	assertBitIdentical(t, ref, acc, "flapping fault step")

	// Steps 1-3: every probe hits a transient, streak stays at zero.
	for step := 1; step <= 3; step++ {
		assertBitIdentical(t, ref, stepOn(t, c, tree), "flapping step")
		if c.Devices[0].Health != Dead {
			t.Fatalf("flapping device restored at step %d", step)
		}
	}
	// Step 4: first clean probe — one of two, still out.
	assertBitIdentical(t, ref, stepOn(t, c, tree), "first clean step")
	if c.Devices[0].Health != Dead {
		t.Fatal("device restored after a single clean probe")
	}
	// Step 5: second consecutive clean probe re-admits it.
	assertBitIdentical(t, ref, stepOn(t, c, tree), "second clean step")
	if c.Devices[0].Health != Healthy {
		t.Fatalf("health after clean streak = %v", c.Devices[0].Health)
	}
	if c.AliveDevices() != 2 {
		t.Fatalf("alive = %d", c.AliveDevices())
	}
}

func TestNoInjectorPathUnchanged(t *testing.T) {
	tree := buildTree(4000, 32, 19)
	ref, refC := runAccum(t, tree, 2, nil, WatchdogConfig{}, nil)
	// Injector with an empty schedule: the chunked walk must still
	// produce identical numerics and identical virtual timing.
	inj := fault.NewInjector(nil)
	acc, c := runAccum(t, tree, 2, inj, WatchdogConfig{ChunkRows: 8}, nil)
	assertBitIdentical(t, ref, acc, "empty injector")
	for i := range c.Devices {
		if c.Devices[i].KernelTime != refC.Devices[i].KernelTime {
			t.Fatalf("device %d kernel time drifted: %v vs %v",
				i, c.Devices[i].KernelTime, refC.Devices[i].KernelTime)
		}
	}
}
