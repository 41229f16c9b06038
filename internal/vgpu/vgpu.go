// Package vgpu simulates the CUDA side of the paper's heterogeneous node.
//
// This environment has no GPU, so the near-field device is replaced by a
// SIMT execution-model simulator (see DESIGN.md). Each device numerically
// executes its share of the P2P work on the host — bit-identical to the
// CPU reference kernel — while a cost model charges virtual time following
// the paper's kernel structure (§III.C):
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
// sums directly ride in the same rows and are executed with them, but in
// the modeled machine they remain translations on the CPU.
//
// Work is split across devices by equalizing per-target-node interaction
// counts, exactly as in the paper: no target node is split across devices.
package vgpu

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

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
	// execution walks the cached CSR schedule, the one near-field
	// description (octree.NearSchedule). The Partition* methods fill both;
	// code that assigns work itself calls Assign.
	Rows []int32
	// Results of the last Execute call:
	KernelTime   float64 // simulated kernel seconds (event-timer analogue)
	Interactions int64   // useful body-body interactions executed
	SlotWork     int64   // lane-slot interactions incl. idle lanes
	Warps        int64
	// HostTime is the host wall clock of the last run's numeric execution
	// (the real cost of simulating this device's kernel).
	HostTime time.Duration

	// Fault state. Health persists across steps (a dead device stays
	// dead and is skipped by the Partition methods); the per-run fields
	// below describe the last Execute only.
	Health Health
	// StraggleFactor derates the device's virtual rate (1 = full speed);
	// set from the injector's active straggle events.
	StraggleFactor float64
	// FaultKind is the fault that killed the device (None while alive).
	FaultKind fault.Kind
	// CompletedRows counts assignment rows fully executed on-device in
	// the last run; rows beyond it were recovered by the host fallback.
	CompletedRows int
	// Retries counts transient-error chunk retries in the last run.
	Retries int
	// DetectNs is the watchdog's hang-detection latency in the last run
	// (host ns; 0 when no hang was detected).
	DetectNs int64
	// healthyProbes counts consecutive clean injector probes while Dead —
	// the restoration streak (see WatchdogConfig.RestoreAfter).
	healthyProbes int

	// Watchdog runtime state, valid during one Execute call.
	beat       atomic.Int64 // UnixNano of the last completed chunk
	deadlineNs atomic.Int64 // allowed heartbeat silence for the current chunk
	running    atomic.Bool
	aborted    atomic.Bool
	abort      chan struct{}
	// nsPerInter is the device's measured host cost per interaction
	// (EWMA over completed chunks), feeding the watchdog's predicted
	// chunk time. Only the device's own run goroutine touches it.
	nsPerInter float64
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
	// Rec, when non-nil, receives one SpanDeviceP2P span per device per
	// Execute (Arg = device ID). Devices run concurrently under
	// ExecuteParallel; the recorder is safe for that.
	Rec *telemetry.Recorder

	// Injector, when non-nil, is consulted once per chunk of every
	// device run and arms the watchdog (heartbeat monitor + host
	// fallback). A nil injector executes exactly the pre-fault code
	// path with no monitor goroutine.
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
	// fallback charges recovered work against it on the virtual clock.
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

// P2PFunc numerically executes row r of the near-field schedule: the
// row's target leaf against each of its sources, in schedule order. It is
// supplied by the solver (core.Field.NearRow) so the device model stays
// kernel-agnostic.
type P2PFunc func(sch *octree.NearSchedule, r int)

// Execute runs each device's assigned near-field work: the numeric P2P via
// fn and the SIMT timing model. It returns the maximum kernel time across
// devices (the paper's GPU Time definition, one kernel per device) plus
// the virtual time of any host fallback re-execution for devices that
// died during the call.
func (c *Cluster) Execute(t *octree.Tree, fn P2PFunc) float64 {
	return c.executeWith(t, fn, nil)
}

// ExecuteParallel is Execute with the numeric work spread over the host
// pool: devices own disjoint target leaves, so their writes never alias
// and each device's chunk walk can run as a sched.ClassNear task — on the
// reserved driver slots when the solver has dedicated some (the paper's
// one-host-core-per-GPU split), sharing the general slots otherwise. The
// calling goroutine is the blocking "collect" thread. Even a single
// device is spawned as a task so a reserved driver slot executes it.
// Timing is identical to Execute (the virtual clock does not depend on
// host scheduling).
func (c *Cluster) ExecuteParallel(t *octree.Tree, fn P2PFunc, pool *sched.Pool) float64 {
	return c.executeWith(t, fn, pool)
}

func (c *Cluster) executeWith(t *octree.Tree, fn P2PFunc, pool *sched.Pool) float64 {
	// Resolved once, on the caller's goroutine: concurrently running
	// devices only read the schedule.
	sch := t.NearField()
	stopWatch := c.beginExecute()
	// With every device dead the whole schedule is fallback work: the
	// cluster still completes the near field, entirely on the host.
	if c.Injector != nil && len(c.Devices) > 0 && c.AliveDevices() == 0 {
		stopWatch()
		lw := lostWork{dev: -1, rows: make([]int32, sch.Rows())}
		for r := range lw.rows {
			lw.rows[r] = int32(r)
		}
		virtual := c.fallback(sch, fn, pool, []lostWork{lw})
		c.mu.Lock()
		c.report.DeadDevices = len(c.Devices)
		c.mu.Unlock()
		for _, d := range c.Devices {
			d.KernelTime, d.Interactions, d.SlotWork, d.Warps, d.HostTime = 0, 0, 0, 0, 0
		}
		return virtual
	}
	for _, d := range c.Devices {
		if d.Health == Dead {
			// A device dead from an earlier step holds no assignment;
			// clear its stale last-run results so cluster aggregates
			// (MaxKernelTime, TotalInteractions) see only survivors.
			d.KernelTime, d.Interactions, d.SlotWork, d.Warps, d.HostTime = 0, 0, 0, 0, 0
		}
	}
	if pool == nil {
		for _, d := range c.Devices {
			if d.Health == Dead {
				continue
			}
			d.run(c, t, sch, fn)
		}
	} else {
		g := pool.NewGroupClass(sched.ClassNear)
		for _, d := range c.Devices {
			if d.Health == Dead {
				continue
			}
			d := d
			g.Spawn(func() { d.run(c, t, sch, fn) })
		}
		g.Wait()
	}
	stopWatch()
	virtual := c.finishExecute(sch, fn, pool)
	return c.MaxKernelTime() + virtual
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

// run executes the device's assignment in heartbeat chunks of
// Watchdog.ChunkRows rows each. With no injector on the cluster every
// chunk takes the fault-free fast path and the walk is exactly the
// pre-fault code; with an injector, each chunk first publishes its
// watchdog deadline, then consults the injector (retrying transient
// errors with backoff), then executes — so a fault always lands at a
// chunk boundary and the executed-rows prefix is well defined for the
// host fallback.
func (d *Device) run(c *Cluster, t *octree.Tree, sch *octree.NearSchedule, fn P2PFunc) {
	rec := c.Rec
	hostTimer := sched.StartTimer()
	defer func() {
		d.running.Store(false)
		d.HostTime = hostTimer.Elapsed()
		rec.AddSpan(telemetry.SpanDeviceP2P, int32(d.ID), hostTimer.StartTime(), d.HostTime)
	}()
	spec := d.Spec
	d.Interactions = 0
	d.SlotWork = 0
	d.Warps = 0
	d.Retries = 0
	d.DetectNs = 0
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

	// finish folds whatever executed — all rows, or the prefix before a
	// fault — into the device's virtual kernel time. A straggle factor
	// divides the device's compute rate, i.e. multiplies the makespan.
	finish := func() {
		makespan := greedyMakespan(warpTimes, spec.SMs)
		if f := d.StraggleFactor; f > 1 {
			makespan *= f
		}
		transfer := float64((targetBodies*2+sourceBodies)*int64(spec.BytesPerBody)) / spec.PCIeBandwidth
		d.KernelTime = spec.KernelLaunch + transfer + makespan
	}

	runRow := func(k int) {
		ti := d.Targets[k]
		tn := &t.Nodes[ti]
		nt := tn.Count()
		if nt == 0 {
			return
		}
		// Every entry of the row is executed; the timing model counts
		// the priced source bodies, Interactions(t) / n_t.
		row := int(d.Rows[k])
		ns := sch.Priced(row) / int64(nt)
		if fn != nil {
			fn(sch, row)
		}
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
		k1 := k0 + cfg.ChunkRows
		if k1 > n {
			k1 = n
		}
		chunkIdx := k0 / cfg.ChunkRows
		if d.aborted.Load() {
			// The watchdog declared us hung while a previous chunk ran
			// long; stop at this boundary.
			d.die(c, fault.Hang, chunkIdx, k0, 0)
			finish()
			return
		}
		corrupt := false
		if c.Injector != nil {
			// Publish this chunk's heartbeat deadline: predicted chunk
			// host time (measured per-interaction rate × chunk
			// interactions) × slack, floored at MinDeadline.
			var predNs float64
			if d.nsPerInter > 0 {
				var ci int64
				for k := k0; k < k1; k++ {
					ci += sch.Priced(int(d.Rows[k]))
				}
				predNs = float64(ci) * d.nsPerInter
			}
			dl := int64(cfg.Slack * predNs)
			if min := int64(cfg.MinDeadline); dl < min {
				dl = min
			}
			d.deadlineNs.Store(dl)

			attempt := 0
		consult:
			for {
				out := c.Injector.Chunk(d.ID, chunkIdx)
				switch out.Kind {
				case fault.FailStop:
					d.die(c, fault.FailStop, chunkIdx, k0, 0)
					finish()
					return
				case fault.Hang:
					// Park until the watchdog misses our heartbeat and
					// aborts us; the elapsed park time is the detection
					// latency.
					park := sched.StartTimer()
					if d.abort != nil {
						<-d.abort
					}
					d.die(c, fault.Hang, chunkIdx, k0, int64(park.Elapsed()))
					finish()
					return
				case fault.Transient:
					d.Retries++
					c.mu.Lock()
					c.report.TransientRetries++
					c.mu.Unlock()
					attempt++
					if attempt > cfg.MaxRetries {
						// Retry budget exhausted: escalate to device loss.
						d.die(c, fault.Transient, chunkIdx, k0, 0)
						finish()
						return
					}
					time.Sleep(cfg.Backoff << (attempt - 1))
					continue
				case fault.Corrupt:
					corrupt = true
				}
				break consult
			}
		}
		chunkTimer := sched.StartTimer()
		before := d.Interactions
		for k := k0; k < k1; k++ {
			runRow(k)
		}
		if c.Injector != nil {
			if ci := d.Interactions - before; ci > 0 {
				per := float64(chunkTimer.Elapsed()) / float64(ci)
				if d.nsPerInter == 0 {
					d.nsPerInter = per
				} else {
					d.nsPerInter = 0.5*d.nsPerInter + 0.5*per
				}
			}
			d.beat.Store(time.Now().UnixNano())
		}
		d.CompletedRows = k1
		if corrupt {
			if c.Corrupt != nil {
				c.Corrupt(d.Targets[k0])
			}
			rec.EmitEvent(telemetry.EventFault, int64(d.ID), int64(fault.Corrupt), 0, 0)
		}
	}
	finish()
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
