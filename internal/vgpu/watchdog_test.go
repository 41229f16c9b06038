package vgpu

import (
	"reflect"
	"slices"
	"testing"

	"afmm/internal/fault"
	"afmm/internal/octree"
	"afmm/internal/sched"
	"afmm/internal/telemetry"
)

func mustParse(t *testing.T, spec string) *fault.Injector {
	t.Helper()
	sch, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return fault.NewInjector(sch)
}

// runStep walks one partitioned step on a fresh cluster and returns the
// cluster and the step's virtual time.
func runStep(t *testing.T, tree *octree.Tree, ng int, inj *fault.Injector, wd WatchdogConfig) (*Cluster, float64) {
	t.Helper()
	c := NewCluster(ng, DefaultSpec())
	c.Injector = inj
	c.Watchdog = wd
	c.Partition(tree)
	return c, c.Execute(tree)
}

// pricedRows sums the priced interactions of rows.
func pricedRows(sch *octree.NearSchedule, rows []int32) (n int64) {
	for _, r := range rows {
		n += sch.Priced(int(r))
	}
	return n
}

// assertChargedOnce: every schedule row is either finished on a device or
// charged to the fallback, exactly once.
func assertChargedOnce(t *testing.T, c *Cluster, tree *octree.Tree, label string) {
	t.Helper()
	rows := c.LastReport().FallbackRows
	for _, d := range c.Devices {
		rows += d.CompletedRows
	}
	if want := tree.NearField().Rows(); rows != want {
		t.Fatalf("%s: %d rows finished or charged to the fallback, want %d", label, rows, want)
	}
}

func TestFailStopFallbackBitIdentical(t *testing.T) {
	tree := buildTree(5000, 32, 11)
	wd := WatchdogConfig{ChunkRows: 8}
	ref, _ := runStep(t, tree, 2, nil, wd)

	inj := mustParse(t, "gpu1:failstop@step0#2")
	c, virt := runStep(t, tree, 2, inj, wd)

	rep := c.LastReport()
	if len(rep.Faults) != 1 || rep.Faults[0].Kind != fault.FailStop || rep.Faults[0].Device != 1 {
		t.Fatalf("report faults: %+v", rep.Faults)
	}
	if rep.Faults[0].Rows != 2*wd.ChunkRows {
		t.Fatalf("device should have finished chunks 0 and 1 before chunk 2: %+v", rep.Faults[0])
	}
	// The fallback is charged exactly the dead device's unfinished rows,
	// at the host rate (the device rate when none is set).
	sch := tree.NearField()
	d := c.Devices[1]
	lost := d.Rows[d.CompletedRows:]
	rate := d.Spec.InteractionsPerSecPerSM * float64(d.Spec.SMs)
	if rep.FallbackRows != len(lost) || rep.FallbackInteractions != pricedRows(sch, lost) ||
		rep.FallbackVirtual != float64(rep.FallbackInteractions)/rate {
		t.Fatalf("fallback charged %d rows / %d interactions / %v s, want %d / %d at %v/s",
			rep.FallbackRows, rep.FallbackInteractions, rep.FallbackVirtual, len(lost), pricedRows(sch, lost), rate)
	}
	assertChargedOnce(t, c, tree, "failstop")
	// The survivor's clock is the fault-free one, and the step's virtual
	// time is the slowest kernel plus the fallback's charge.
	if c.Devices[0].KernelTime != ref.Devices[0].KernelTime {
		t.Fatalf("survivor kernel %v, fault-free %v", c.Devices[0].KernelTime, ref.Devices[0].KernelTime)
	}
	if virt != c.MaxKernelTime()+rep.FallbackVirtual {
		t.Fatalf("virtual time %v != max kernel %v + fallback %v", virt, c.MaxKernelTime(), rep.FallbackVirtual)
	}
	if d.Health != Dead || c.Devices[0].Health != Healthy {
		t.Fatalf("health: %v %v", c.Devices[0].Health, d.Health)
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

	c.Partition(tree)
	c.Execute(tree)
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
	// And the survivors finish the step without fallback.
	c.Execute(tree)
	assertChargedOnce(t, c, tree, "post-loss step")
	if rep := c.LastReport(); rep.FallbackRows != 0 {
		t.Fatalf("unexpected fallback on post-loss step: %+v", rep)
	}
}

// TestHangDetectedByWatchdog: a hang ends the walk at the chunk where
// the verdict lands, exactly as a fail-stop does, and the other device
// walks on unaffected.
func TestHangDetectedByWatchdog(t *testing.T) {
	tree := buildTree(5000, 32, 12)
	wd := WatchdogConfig{ChunkRows: 8}
	inj := mustParse(t, "gpu0:hang@step0#1")
	c, _ := runStep(t, tree, 2, inj, wd)
	assertChargedOnce(t, c, tree, "hang")

	rep := c.LastReport()
	want := DeviceFault{Device: 0, Kind: fault.Hang, Chunk: 1, Rows: wd.ChunkRows}
	if len(rep.Faults) != 1 || rep.Faults[0] != want {
		t.Fatalf("report faults: %+v, want [%+v]", rep.Faults, want)
	}
	if d := c.Devices[0]; d.Health != Dead || d.CompletedRows != wd.ChunkRows {
		t.Fatalf("hung device: health %v, %d rows completed", d.Health, d.CompletedRows)
	}
	if c.Devices[1].Health != Healthy {
		t.Fatalf("device 1 health %v after device 0's hang", c.Devices[1].Health)
	}
}

// TestHangRunIsDeterministic: fault handling reads no host clock, so two
// runs of one schedule report and record the same thing.
func TestHangRunIsDeterministic(t *testing.T) {
	tree := buildTree(5000, 32, 12)
	const spec = "gpu0:hang@step0#1,gpu1:transient2@step0"
	run := func() (FaultReport, []telemetry.Event) {
		rec := telemetry.New(telemetry.Options{Keep: true})
		c := NewCluster(2, DefaultSpec())
		c.Injector, c.Watchdog, c.Rec = mustParse(t, spec), WatchdogConfig{ChunkRows: 8}, rec
		c.Partition(tree)
		c.Execute(tree)
		rec.EndStep()
		return c.LastReport(), rec.Steps()[0].Events
	}
	repA, evA := run()
	repB, evB := run()
	if len(repA.Faults) != 1 || repA.TransientRetries == 0 {
		t.Fatalf("the schedule did not fire: %+v", repA)
	}
	if !reflect.DeepEqual(repA, repB) {
		t.Fatalf("reports differ:\n%+v\n%+v", repA, repB)
	}
	if !slices.Equal(evA, evB) {
		t.Fatalf("events differ:\n%+v\n%+v", evA, evB)
	}
}

func TestTransientRetriesThenSucceeds(t *testing.T) {
	tree := buildTree(4000, 32, 13)
	wd := WatchdogConfig{ChunkRows: 16}
	ref, _ := runStep(t, tree, 2, nil, wd)

	inj := mustParse(t, "gpu0:transient2@step0")
	c, _ := runStep(t, tree, 2, inj, wd)
	if c.Devices[0].KernelTime != ref.Devices[0].KernelTime {
		t.Fatalf("retried device kernel %v, fault-free %v", c.Devices[0].KernelTime, ref.Devices[0].KernelTime)
	}

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
	wd := WatchdogConfig{ChunkRows: 16, MaxRetries: 2}
	// 100 failures per chunk can never clear a 2-retry budget.
	inj := mustParse(t, "gpu0:transient100@step0")
	c, _ := runStep(t, tree, 2, inj, wd)
	assertChargedOnce(t, c, tree, "transient escalation")

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
	refC, _ := runStep(t, tree, 2, nil, WatchdogConfig{})

	inj := mustParse(t, "gpu0:straggle2.5@step0")
	c, _ := runStep(t, tree, 2, inj, WatchdogConfig{})

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
	inj := mustParse(t, "gpu0:failstop@step0,gpu1:failstop@step0")
	c, _ := runStep(t, tree, 2, inj, WatchdogConfig{})
	assertChargedOnce(t, c, tree, "both dead, fault step")
	if c.AliveDevices() != 0 {
		t.Fatalf("alive = %d", c.AliveDevices())
	}

	// Subsequent steps: no device left, the whole schedule is charged to
	// the host fallback, under one fallback event for no device.
	rec := telemetry.New(telemetry.Options{Keep: true})
	c.Rec = rec
	c.HostP2PRate = 1e9
	c.Partition(tree)
	virt := c.Execute(tree)
	rec.EndStep()
	sch := tree.NearField()
	if want := float64(sch.PricedTotal()) / c.HostP2PRate; virt != want {
		t.Fatalf("virtual time = %v, want %v", virt, want)
	}
	rep := c.LastReport()
	if rep.DeadDevices != 2 || rep.FallbackRows != sch.Rows() || rep.FallbackInteractions != sch.PricedTotal() {
		t.Fatalf("report: %+v", rep)
	}
	evs := rec.Steps()[0].Events
	if len(evs) != 1 || evs[0].Kind != telemetry.EventFallback || evs[0].A != -1 || evs[0].B != int64(sch.Rows()) || evs[0].FA != virt {
		t.Fatalf("events %+v, want one fallback event of every row", evs)
	}
	for _, d := range c.Devices {
		if d.KernelTime != 0 || d.Interactions != 0 {
			t.Fatalf("dead device %d reports kernel %v, %d interactions", d.ID, d.KernelTime, d.Interactions)
		}
	}
}

func TestDisableFallbackSurfacesLoss(t *testing.T) {
	tree := buildTree(4000, 32, 16)
	inj := mustParse(t, "gpu0:failstop@step0")
	c, _ := runStep(t, tree, 2, inj, WatchdogConfig{DisableFallback: true})
	rep := c.LastReport()
	if rep.Err == nil || rep.LostRows == 0 {
		t.Fatalf("disabled fallback must report loss: %+v", rep)
	}
}

// TestFallbackBitIdenticalUnderPool: ExecuteParallel ignores its pool —
// a faulted step through it charges exactly what Execute charges.
func TestFallbackBitIdenticalUnderPool(t *testing.T) {
	tree := buildTree(6000, 32, 17)
	wd := WatchdogConfig{ChunkRows: 8}
	const spec = "gpu1:failstop@step0#1,gpu2:straggle2@step0"
	seq, virtSeq := runStep(t, tree, 3, mustParse(t, spec), wd)

	par := NewCluster(3, DefaultSpec())
	par.Injector, par.Watchdog = mustParse(t, spec), wd
	par.Partition(tree)
	virtPar := par.ExecuteParallel(tree, nil, sched.NewPool(4))
	if virtPar != virtSeq {
		t.Fatalf("virtual time %v through the pool, %v without", virtPar, virtSeq)
	}
	a, b := seq.LastReport(), par.LastReport()
	if a.FallbackRows == 0 || a.DeadDevices != 1 || a.DegradedDevices != 1 ||
		a.FallbackRows != b.FallbackRows || a.FallbackInteractions != b.FallbackInteractions ||
		a.DeadDevices != b.DeadDevices || a.DegradedDevices != b.DegradedDevices {
		t.Fatalf("reports differ or miss the faults: %+v vs %+v", a, b)
	}
	for i, d := range seq.Devices {
		if d.KernelTime != par.Devices[i].KernelTime || d.CompletedRows != par.Devices[i].CompletedRows {
			t.Fatalf("device %d: kernel %v / %d rows, through the pool %v / %d",
				i, d.KernelTime, d.CompletedRows, par.Devices[i].KernelTime, par.Devices[i].CompletedRows)
		}
	}
}

// TestCorruptPoisonsViaCallback: a Corrupt fault hands the chunk's first
// target to the Corrupt hook once and emits its fault event; the device
// stays healthy.
func TestCorruptPoisonsViaCallback(t *testing.T) {
	tree := buildTree(3000, 32, 18)
	c := NewCluster(1, DefaultSpec())
	c.Injector = mustParse(t, "gpu0:corrupt@step0")
	rec := telemetry.New(telemetry.Options{Keep: true})
	c.Rec = rec
	var poisoned []int32
	c.Corrupt = func(target int32) { poisoned = append(poisoned, target) }
	c.Partition(tree)
	c.Execute(tree)
	rec.EndStep()
	if len(poisoned) != 1 || poisoned[0] != c.Devices[0].Targets[0] {
		t.Fatalf("corrupt callback got %v, want the first chunk's first target %d", poisoned, c.Devices[0].Targets[0])
	}
	evs := rec.Steps()[0].Events
	if len(evs) != 1 || evs[0].Kind != telemetry.EventFault || evs[0].B != int64(fault.Corrupt) {
		t.Fatalf("events %+v, want one corrupt fault", evs)
	}
	if c.Devices[0].Health != Healthy {
		t.Fatal("corrupt is a data fault; the device must stay healthy")
	}
}

// stepOn walks one more partitioned step on an existing cluster.
func stepOn(t *testing.T, c *Cluster, tree *octree.Tree) {
	t.Helper()
	c.Partition(tree)
	c.Execute(tree)
	assertChargedOnce(t, c, tree, "step")
}

// TestDeviceRestorationAfterCleanProbes: with RestoreAfter set, a dead
// device whose probes come back clean for K consecutive steps is
// re-admitted — capacity epoch bumps, capacity recovers, and the next
// partition gives it work again.
func TestDeviceRestorationAfterCleanProbes(t *testing.T) {
	tree := buildTree(5000, 32, 21)
	wd := WatchdogConfig{ChunkRows: 8, RestoreAfter: 2}
	inj := mustParse(t, "gpu1:failstop@step0")
	c, _ := runStep(t, tree, 2, inj, wd)
	assertChargedOnce(t, c, tree, "fault step")
	if c.Devices[1].Health != Dead {
		t.Fatal("device not dead after failstop")
	}
	capDown := c.Capacity()
	ep := c.CapacityEpoch()

	// Step 1: first clean probe — streak 1 of 2, still dead.
	stepOn(t, c, tree)
	if c.Devices[1].Health != Dead {
		t.Fatal("device restored after one clean probe, want two")
	}
	// Step 2: second clean probe restores the device at the top of the
	// call; partition preceded restoration, so it holds no work yet.
	stepOn(t, c, tree)
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
	stepOn(t, c, tree)
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
	inj := mustParse(t,
		"gpu0:failstop@step0,gpu0:transient@step1,gpu0:transient@step2,gpu0:transient@step3")
	c, _ := runStep(t, tree, 2, inj, wd)
	assertChargedOnce(t, c, tree, "flapping fault step")

	// Steps 1-3: every probe hits a transient, streak stays at zero.
	for step := 1; step <= 3; step++ {
		stepOn(t, c, tree)
		if c.Devices[0].Health != Dead {
			t.Fatalf("flapping device restored at step %d", step)
		}
	}
	// Step 4: first clean probe — one of two, still out.
	stepOn(t, c, tree)
	if c.Devices[0].Health != Dead {
		t.Fatal("device restored after a single clean probe")
	}
	// Step 5: second consecutive clean probe re-admits it.
	stepOn(t, c, tree)
	if c.Devices[0].Health != Healthy {
		t.Fatalf("health after clean streak = %v", c.Devices[0].Health)
	}
	if c.AliveDevices() != 2 {
		t.Fatalf("alive = %d", c.AliveDevices())
	}
}

func TestNoInjectorPathUnchanged(t *testing.T) {
	tree := buildTree(4000, 32, 19)
	refC, _ := runStep(t, tree, 2, nil, WatchdogConfig{})
	// Injector with an empty schedule: the chunked walk must still
	// produce identical virtual timing.
	inj := fault.NewInjector(nil)
	c, _ := runStep(t, tree, 2, inj, WatchdogConfig{ChunkRows: 8})
	for i := range c.Devices {
		if c.Devices[i].KernelTime != refC.Devices[i].KernelTime {
			t.Fatalf("device %d kernel time drifted: %v vs %v",
				i, c.Devices[i].KernelTime, refC.Devices[i].KernelTime)
		}
	}
}
