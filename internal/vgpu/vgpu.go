// Package vgpu simulates the CUDA side of the paper's heterogeneous node.
//
// This environment has no GPU, so the near-field device is replaced by a
// SIMT execution-model simulator (see DESIGN.md). The simulator computes
// no numbers: the step graph runs every near-field row on the host, as it
// does on CPU-only configurations, and a cluster only walks its devices'
// rows to charge virtual time following the paper's kernel structure
// (§III.C):
//
//   - one thread per target body; a target node with n_t bodies occupies
//     ceil(n_t / WarpSize) warps, and lanes in partially filled warps idle
//     through the source march (the padding inefficiency the paper's load
//     balancer must avoid);
//   - each warp marches serially through the node's source list in
//     cooperative tiles, so a warp's time is proportional to the source
//     count regardless of how many of its lanes are useful;
//   - warps are scheduled greedily onto the device's SMs (a throughput
//     model of block/warp interleaving); the kernel time is the resulting
//     makespan plus launch and PCIe-transfer overheads.
//
// The device is charged for the paper's near field, the U-list entries of
// its rows (octree.NearSchedule.Priced); the accepted pairs the host
// sums directly ride in the same rows, but in the modeled machine they
// remain translations on the CPU.
//
// Work is split across devices by equalizing per-target-node interaction
// counts, exactly as in the paper: no target node is split across devices.
package vgpu

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"afmm/internal/fault"
	"afmm/internal/octree"
	"afmm/internal/sched"
	"afmm/internal/telemetry"
)

// Spec describes one simulated device. The defaults approximate a Tesla
// C2050 (the paper's Test System A accelerator).
type Spec struct {
	Name      string
	SMs       int // streaming multiprocessors
	BlockSize int // threads per block
	WarpSize  int // threads per warp
	// InteractionsPerSecPerSM is the thread-slot interaction issue rate
	// of one SM: a block of BlockSize thread slots marching over ns
	// sources consumes ns*BlockSize slot-interactions.
	InteractionsPerSecPerSM float64
	// TileLoadOverhead is the fraction of a tile's compute time spent on
	// the cooperative source load (shared-memory staging).
	TileLoadOverhead float64
	KernelLaunch     float64 // seconds per kernel launch
	PCIeBandwidth    float64 // bytes/second for host<->device copies
	BytesPerBody     int     // transferred per body each way
}

// DefaultSpec returns the C2050-like device model.
func DefaultSpec() Spec {
	return Spec{
		Name:      "simC2050",
		SMs:       14,
		BlockSize: 256,
		WarpSize:  32,
		// 14 SMs x 3.6e9 ~ 50e9 interactions/s device-wide, matching a
		// ~1 TFLOP/s single-precision part at ~20 flop/interaction.
		InteractionsPerSecPerSM: 3.6e9,
		TileLoadOverhead:        0.15,
		KernelLaunch:            20e-6,
		PCIeBandwidth:           6e9,
		BytesPerBody:            32,
	}
}

// Device is one simulated GPU plus its current work assignment.
type Device struct {
	Spec Spec
	// ID is the device's index in its cluster (used as the span argument
	// on per-device telemetry; zero for standalone devices).
	ID int
	// Targets are the visible leaf nodes whose near field this device
	// computes.
	Targets []int32
	// Rows are the near-field schedule rows of Targets (parallel slice):
	// the walk reads the cached CSR schedule, the one near-field
	// description (octree.NearSchedule). The Partition* methods fill both;
	// code that assigns work itself calls Assign.
	Rows []int32
	// Results of the last Execute call:
	KernelTime   float64 // simulated kernel seconds (event-timer analogue)
	Interactions int64   // useful body-body interactions charged
	SlotWork     int64   // lane-slot interactions incl. idle lanes
	Warps        int64

	// Fault state. Health persists across steps (a dead device stays
	// dead and is skipped by the Partition methods); the per-run fields
	// below describe the last Execute only.
	Health Health
	// StraggleFactor derates the device's virtual rate (1 = full speed);
	// set from the injector's active straggle events.
	StraggleFactor float64
	// FaultKind is the fault that killed the device (None while alive).
	FaultKind fault.Kind
	// CompletedRows counts assignment rows the device finished in the
	// last run; rows beyond it were charged to the host fallback.
	CompletedRows int
	// Retries counts transient-error chunk retries in the last run.
	Retries int
	// healthyProbes counts consecutive clean injector probes while Dead —
	// the restoration streak (see WatchdogConfig.RestoreAfter).
	healthyProbes int
}

// Efficiency returns useful / slot interactions of the last kernel — the
// quantity the paper's GPU coefficient exposes to the load balancer.
func (d *Device) Efficiency() float64 {
	if d.SlotWork == 0 {
		return 1
	}
	return float64(d.Interactions) / float64(d.SlotWork)
}

// EndpointInteractionEquiv is the device cost of one offloaded P2M or L2P
// application (§VIII.E extension), expressed in units of near-field
// interactions: evaluating ~(p+1)^2/2 expansion terms costs roughly ten
// 20-flop pair interactions.
const EndpointInteractionEquiv = 10.0

// ScaledSpec returns the default device derated to a fraction of its
// throughput, for experiments that scale the body count down from the
// paper's 10^6-10^7 (see the experiments package): the CPU/GPU balance
// structure — where the cost curves cross — then sits in the paper's
// regime at the smaller N.
func ScaledSpec(scale float64) Spec {
	s := DefaultSpec()
	s.InteractionsPerSecPerSM *= scale
	return s
}

// Cluster is the set of devices on the node.
type Cluster struct {
	Devices []*Device
	// Rec, when non-nil, receives the fault, watchdog, fallback and
	// capacity events of every Execute.
	Rec *telemetry.Recorder

	// Injector, when non-nil, is consulted at every chunk boundary of
	// every device walk; its verdict ends, retries or poisons the chunk
	// there, and the host fallback is charged for the rows of devices
	// that die. A nil injector never faults.
	Injector *fault.Injector
	// Watchdog tunes detection and recovery; the zero value uses the
	// documented defaults.
	Watchdog WatchdogConfig
	// Corrupt, set by the solver, poisons the accumulator of the first
	// body of a target leaf; it is the payload of fault.Corrupt events
	// (the device model itself has no access to the accumulators).
	Corrupt func(target int32)
	// HostP2PRate is the host's near-field throughput in
	// interactions/second (set by the solver from its CPU spec); the
	// fallback charges a dead device's rows against it on the virtual
	// clock.
	HostP2PRate float64

	capEpoch atomic.Int64
	execs    int // Execute calls so far: the injector's step index
	mu       sync.Mutex
	report   FaultReport
}

// NewCluster creates n devices with the given spec.
func NewCluster(n int, spec Spec) *Cluster {
	c := &Cluster{}
	for i := 0; i < n; i++ {
		s := spec
		s.Name = fmt.Sprintf("%s[%d]", spec.Name, i)
		c.Devices = append(c.Devices, &Device{Spec: s, ID: i, StraggleFactor: 1})
	}
	return c
}

// Assign appends schedule row r (and its target leaf) to the device's work.
func (d *Device) Assign(sch *octree.NearSchedule, r int) {
	d.Targets = append(d.Targets, sch.Leaves[r])
	d.Rows = append(d.Rows, int32(r))
}

func (c *Cluster) resetAssignments() {
	for _, d := range c.Devices {
		d.Targets = d.Targets[:0]
		d.Rows = d.Rows[:0]
	}
}

// alive returns the devices eligible for work: everything not Dead.
// Partitioning over the survivors is the "re-split" half of the
// degradation story — after a device loss the same total interaction
// count divides over fewer devices, and the balancer sees the capacity
// change through Capacity()/CapacityEpoch().
func (c *Cluster) alive() []*Device {
	out := make([]*Device, 0, len(c.Devices))
	for _, d := range c.Devices {
		if d.Health != Dead {
			out = append(out, d)
		}
	}
	return out
}

// Partition assigns the tree's visible leaves to devices by walking the
// near-field schedule rows and accumulating Interactions(t) until a
// device's share meets total/numDevices, then moving to the next device
// (the paper's scheme). Every leaf lands on exactly one surviving
// device; dead devices receive no work.
func (c *Cluster) Partition(t *octree.Tree) { c.PartitionRows(t.NearField(), nil) }

// PartitionRows is Partition's walk over the given schedule rows, in
// order (nil: every row): a distributed node splits the rows of the
// leaves it owns over its devices.
func (c *Cluster) PartitionRows(sch *octree.NearSchedule, rows []int32) {
	c.resetAssignments()
	devs := c.alive()
	if len(devs) == 0 {
		return
	}
	n, total := len(rows), int64(0)
	if rows == nil {
		n, total = sch.Rows(), sch.PricedTotal()
	} else {
		for _, r := range rows {
			total += sch.Priced(int(r))
		}
	}
	share := total / int64(len(devs))
	if share < 1 {
		share = 1
	}
	di := 0
	var acc int64
	for i := 0; i < n; i++ {
		r := i
		if rows != nil {
			r = int(rows[i])
		}
		devs[di].Assign(sch, r)
		acc += sch.Priced(r)
		if acc >= share && di < len(devs)-1 {
			di++
			acc = 0
		}
	}
}

// PartitionByLeafCount assigns equal numbers of leaves to each device,
// ignoring interaction counts — the naive baseline the paper's
// interaction-balanced walk improves on (ablation benchmarks compare the
// resulting kernel-time imbalance).
func (c *Cluster) PartitionByLeafCount(t *octree.Tree) {
	sch := t.NearField()
	c.resetAssignments()
	devs := c.alive()
	nd := len(devs)
	if nd == 0 {
		return
	}
	per := (sch.Rows() + nd - 1) / nd
	for r := 0; r < sch.Rows(); r++ {
		di := r / per
		if di >= nd {
			di = nd - 1
		}
		devs[di].Assign(sch, r)
	}
}

// Execute walks each device's assigned rows through the SIMT timing
// model, on the calling goroutine, one device after another. It returns
// the maximum kernel time across devices (the paper's GPU Time
// definition, one kernel per device) plus the virtual time the host
// fallback is charged for the rows of devices that died during the call.
// It writes no accumulator: the only data it touches is a Corrupt fault's
// payload.
func (c *Cluster) Execute(t *octree.Tree) float64 {
	sch := t.NearField()
	c.beginExecute()
	// With every device dead the whole schedule is fallback work.
	if c.Injector != nil && len(c.Devices) > 0 && c.AliveDevices() == 0 {
		lw := lostWork{dev: -1, rows: make([]int32, sch.Rows())}
		for r := range lw.rows {
			lw.rows[r] = int32(r)
		}
		virtual := c.fallback(sch, []lostWork{lw})
		c.mu.Lock()
		c.report.DeadDevices = len(c.Devices)
		c.mu.Unlock()
		for _, d := range c.Devices {
			d.KernelTime, d.Interactions, d.SlotWork, d.Warps = 0, 0, 0, 0
		}
		return virtual
	}
	for _, d := range c.Devices {
		if d.Health == Dead {
			// A device dead from an earlier step holds no assignment;
			// clear its stale last-run results so cluster aggregates
			// (MaxKernelTime, TotalInteractions) see only survivors.
			d.KernelTime, d.Interactions, d.SlotWork, d.Warps = 0, 0, 0, 0
			continue
		}
		d.run(c, t, sch)
	}
	virtual := c.finishExecute(sch)
	return c.MaxKernelTime() + virtual
}

// P2PFunc is the numeric row callback ExecuteParallel still accepts.
type P2PFunc func(sch *octree.NearSchedule, r int)

// ExecuteParallel is Execute(t); fn and pool are ignored. It survives
// only because benchmark/replay.go, which a non-benchmark change may not
// edit, calls it; no other code does, and the next benchmark change drops
// it (and P2PFunc with it).
func (c *Cluster) ExecuteParallel(t *octree.Tree, fn P2PFunc, pool *sched.Pool) float64 {
	return c.Execute(t)
}

// MaxKernelTime returns the slowest device time of the last Execute.
func (c *Cluster) MaxKernelTime() float64 {
	var m float64
	for _, d := range c.Devices {
		if d.KernelTime > m {
			m = d.KernelTime
		}
	}
	return m
}

// TotalInteractions sums useful interactions over devices for the last
// Execute.
func (c *Cluster) TotalInteractions() int64 {
	var n int64
	for _, d := range c.Devices {
		n += d.Interactions
	}
	return n
}

// run walks the device's assignment in chunks of Watchdog.ChunkRows
// rows each. At every chunk boundary the injector's verdict decides the
// chunk (a nil injector always answers None): a fail-stop or a hang ends
// the walk there, a transient error is retried at once up to MaxRetries
// and then ends it too, and a corrupt chunk runs and poisons its first
// target. A fault therefore always lands at a chunk boundary, and the
// finished-rows prefix is well defined for the host fallback.
func (d *Device) run(c *Cluster, t *octree.Tree, sch *octree.NearSchedule) {
	spec := d.Spec
	d.Interactions = 0
	d.SlotWork = 0
	d.Warps = 0
	d.Retries = 0
	d.CompletedRows = 0
	if len(d.Targets) == 0 {
		d.KernelTime = 0
		return
	}
	cfg := c.Watchdog.withDefaults()
	// Per-warp compute times for the scheduling makespan. An SM retires
	// one warp-source step per issue slot, so a warp over ns sources
	// costs ns*WarpSize lane-interactions plus tile-staging overhead.
	var warpTimes []float64
	var targetBodies, sourceBodies int64
	ws := float64(spec.WarpSize)

	runRow := func(k int) {
		ti := d.Targets[k]
		tn := &t.Nodes[ti]
		nt := tn.Count()
		if nt == 0 {
			return
		}
		// The timing model counts the priced source bodies,
		// Interactions(t) / n_t.
		ns := sch.Priced(int(d.Rows[k])) / int64(nt)
		sourceBodies += ns
		targetBodies += int64(nt)
		d.Interactions += int64(nt) * ns
		warps := (nt + spec.WarpSize - 1) / spec.WarpSize
		d.Warps += int64(warps)
		d.SlotWork += int64(warps) * int64(spec.WarpSize) * ns
		tiles := (ns + int64(spec.WarpSize) - 1) / int64(spec.WarpSize)
		perWarp := (float64(ns)*ws + float64(tiles)*spec.TileLoadOverhead*ws*ws) /
			spec.InteractionsPerSecPerSM
		for w := 0; w < warps; w++ {
			warpTimes = append(warpTimes, perWarp)
		}
	}

	n := len(d.Targets)
	for k0 := 0; k0 < n; k0 += cfg.ChunkRows {
		chunk := k0 / cfg.ChunkRows
		verdict := d.verdict(c, chunk, cfg.MaxRetries)
		if verdict == fault.FailStop || verdict == fault.Hang || verdict == fault.Transient {
			d.die(c, verdict, chunk, k0)
			break
		}
		k1 := min(k0+cfg.ChunkRows, n)
		for k := k0; k < k1; k++ {
			runRow(k)
		}
		d.CompletedRows = k1
		if verdict == fault.Corrupt {
			if c.Corrupt != nil {
				c.Corrupt(d.Targets[k0])
			}
			c.Rec.EmitEvent(telemetry.EventFault, int64(d.ID), int64(fault.Corrupt), 0, 0)
		}
	}

	// Whatever executed — all rows, or the prefix before a fault — makes
	// the device's virtual kernel time. A straggle factor divides the
	// device's compute rate, i.e. multiplies the makespan.
	makespan := greedyMakespan(warpTimes, spec.SMs)
	if f := d.StraggleFactor; f > 1 {
		makespan *= f
	}
	transfer := float64((targetBodies*2+sourceBodies)*int64(spec.BytesPerBody)) / spec.PCIeBandwidth
	d.KernelTime = spec.KernelLaunch + transfer + makespan
}

// verdict is the injector's answer for one chunk. A transient error is
// counted and the injector asked again at once; the chunk's verdict is
// Transient only when the error outlasts maxRetries retries.
func (d *Device) verdict(c *Cluster, chunk, maxRetries int) fault.Kind {
	for attempt := 0; ; attempt++ {
		kind := c.Injector.Chunk(d.ID, chunk).Kind
		if kind != fault.Transient {
			return kind
		}
		d.Retries++
		c.mu.Lock()
		c.report.TransientRetries++
		c.mu.Unlock()
		if attempt == maxRetries {
			return fault.Transient
		}
	}
}

// greedyMakespan schedules jobs in order onto m identical machines, each
// job to the earliest-free machine, and returns the completion time.
func greedyMakespan(jobs []float64, m int) float64 {
	if len(jobs) == 0 {
		return 0
	}
	if m < 1 {
		m = 1
	}
	free := make([]float64, m)
	for _, j := range jobs {
		// Find earliest-free machine (m is small: linear scan).
		k := 0
		for i := 1; i < m; i++ {
			if free[i] < free[k] {
				k = i
			}
		}
		free[k] += j
	}
	var ms float64
	for _, f := range free {
		ms = math.Max(ms, f)
	}
	return ms
}
