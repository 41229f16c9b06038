package vgpu

import (
	"fmt"

	"afmm/internal/fault"
	"afmm/internal/octree"
	"afmm/internal/telemetry"
)

// Health is the device's position on the degradation ladder.
type Health uint8

const (
	// Healthy devices run at full speed.
	Healthy Health = iota
	// Degraded devices still complete their work but at a derated
	// virtual rate (an active straggle fault).
	Degraded
	// Dead devices are excluded from partitioning; the host fallback is
	// charged for their unfinished rows.
	Dead
)

var healthNames = [...]string{"healthy", "degraded", "dead"}

func (h Health) String() string {
	if int(h) < len(healthNames) {
		return healthNames[h]
	}
	return fmt.Sprintf("health(%d)", uint8(h))
}

// WatchdogConfig tunes fault handling on the device walk. The zero value
// selects the defaults documented per field.
type WatchdogConfig struct {
	// MaxRetries bounds transient-error retries per chunk; a chunk
	// still failing after MaxRetries retries escalates to a device
	// fail-stop. Default 3.
	MaxRetries int
	// ChunkRows is the number of near-field schedule rows per chunk
	// (the unit of retry, death and fallback). Default 32.
	ChunkRows int
	// DisableFallback turns off the host fallback: a dead device's
	// unfinished rows are reported as lost via FaultReport.Err (which
	// fails the solver's step) instead of being charged to the host.
	// For tests.
	DisableFallback bool
	// RestoreAfter enables device restoration: a dead device whose
	// injector probe comes back clean for RestoreAfter consecutive steps
	// is re-admitted — Health reset to Healthy and the capacity epoch
	// bumped, so the next Partition gives it work, the solver re-derives
	// its GPU prediction, and the balancer's CapacitySensor emits
	// EventCapacity. Any failed probe resets the streak, which is the
	// flapping protection: a device whose fault keeps recurring never
	// accumulates RestoreAfter clean probes and stays out. 0 (the
	// default) disables restoration — dead devices stay dead.
	RestoreAfter int
}

func (w WatchdogConfig) withDefaults() WatchdogConfig {
	if w.MaxRetries <= 0 {
		w.MaxRetries = 3
	}
	if w.ChunkRows <= 0 {
		w.ChunkRows = 32
	}
	return w
}

// DeviceFault describes one device transition recorded during an
// Execute call.
type DeviceFault struct {
	Device int
	Kind   fault.Kind
	Chunk  int // chunk index at which the device stopped
	Rows   int // assignment rows completed on-device before the fault
}

// FaultReport summarizes fault handling for the last Execute call.
type FaultReport struct {
	// Faults lists devices that died during the call.
	Faults []DeviceFault
	// DeadDevices / DegradedDevices count the cluster state after the
	// call (cumulative across steps, not just this call's transitions).
	DeadDevices      int
	DegradedDevices  int
	TransientRetries int // chunk attempts retried after transient errors
	// Host fallback accounting: the rows and interactions of dead
	// devices charged to the host, and the virtual time charged for them.
	FallbackRows         int
	FallbackInteractions int64
	FallbackVirtual      float64
	// LostRows counts schedule rows that were neither finished on a
	// device nor charged to the fallback (only possible with
	// DisableFallback); any loss also sets Err.
	LostRows int
	Err      error
	// Restored lists devices re-admitted at the top of this call after
	// WatchdogConfig.RestoreAfter consecutive clean probes.
	Restored []int
}

// LastReport returns the fault report of the most recent Execute call.
func (c *Cluster) LastReport() FaultReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := c.report
	rep.Faults = append([]DeviceFault(nil), c.report.Faults...)
	rep.Restored = append([]int(nil), c.report.Restored...)
	return rep
}

// Capacity returns the cluster's aggregate near-field throughput in
// interactions/second: dead devices contribute nothing, degraded
// devices their derated rate. The balancer consumes this through the
// solver's CapacitySensor.
func (c *Cluster) Capacity() float64 {
	var sum float64
	for _, d := range c.Devices {
		if d.Health == Dead {
			continue
		}
		rate := d.Spec.InteractionsPerSecPerSM * float64(d.Spec.SMs)
		if f := d.StraggleFactor; f > 1 {
			rate /= f
		}
		sum += rate
	}
	return sum
}

// CapacityEpoch increments whenever a device dies, derates, or
// recovers; consumers compare epochs to detect topology change without
// re-deriving the capacity every step.
func (c *Cluster) CapacityEpoch() int64 { return c.capEpoch.Load() }

// AliveDevices counts devices still eligible for work.
func (c *Cluster) AliveDevices() int {
	n := 0
	for _, d := range c.Devices {
		if d.Health != Dead {
			n++
		}
	}
	return n
}

// beginExecute arms the injector and straggle state for one Execute
// call and resets the per-call fault report.
func (c *Cluster) beginExecute() {
	step := c.execs
	c.execs++
	c.mu.Lock()
	c.report = FaultReport{}
	c.mu.Unlock()
	for _, d := range c.Devices {
		if d.StraggleFactor == 0 {
			d.StraggleFactor = 1
		}
	}
	if c.Injector == nil {
		return
	}
	c.Injector.BeginStep(step)
	// Probe dead devices for restoration: RestoreAfter consecutive clean
	// probe steps re-admit a device (a failed probe resets the streak, so
	// a flapping device stays out). Partition for this call has already
	// run, so a freshly restored device carries no work until the next
	// step's Partition; the capacity-epoch bump is what tells the solver
	// and balancer the capacity came back.
	if k := c.Watchdog.RestoreAfter; k > 0 {
		for _, d := range c.Devices {
			if d.Health != Dead {
				continue
			}
			if c.Injector.Probe(d.ID) != fault.None {
				d.healthyProbes = 0
				continue
			}
			if d.healthyProbes++; d.healthyProbes < k {
				continue
			}
			d.Health = Healthy
			d.FaultKind = fault.None
			d.StraggleFactor = 1
			d.CompletedRows = 0
			d.Retries = 0
			d.healthyProbes = 0
			d.Targets = d.Targets[:0]
			d.Rows = d.Rows[:0]
			c.capEpoch.Add(1)
			c.mu.Lock()
			c.report.Restored = append(c.report.Restored, d.ID)
			c.mu.Unlock()
			c.Rec.EmitEvent(telemetry.EventCapacity, int64(d.ID), int64(step), c.Capacity(), 0)
		}
	}
	// Fold newly armed straggle factors into device health before the
	// run, so partitioning and timing see the derated state.
	for _, d := range c.Devices {
		if d.Health == Dead {
			continue
		}
		f := c.Injector.StraggleFactor(d.ID)
		if f != d.StraggleFactor {
			d.StraggleFactor = f
			was := d.Health
			if f > 1 {
				d.Health = Degraded
			} else {
				d.Health = Healthy
			}
			if d.Health != was {
				c.capEpoch.Add(1)
			}
			c.Rec.EmitEvent(telemetry.EventFault, int64(d.ID), int64(fault.Straggle), f, 0)
		}
	}
}

// lostWork is the unfinished remainder of a dead device's assignment:
// the schedule rows the fallback is charged for.
type lostWork struct {
	dev  int
	rows []int32
}

// collectLosses gathers the rows each device failed to finish this
// call. A device dead before the call has an empty assignment (the
// Partition methods skip dead devices), so only fresh casualties
// contribute.
func (c *Cluster) collectLosses() []lostWork {
	var losses []lostWork
	for _, d := range c.Devices {
		if d.Health != Dead || d.CompletedRows >= len(d.Targets) {
			continue
		}
		losses = append(losses, lostWork{dev: d.ID, rows: d.Rows[d.CompletedRows:]})
	}
	return losses
}

// fallback charges lost rows to the host: the virtual seconds their
// interactions take at the host's P2P rate, serialized behind the
// surviving kernels. The rows themselves are never re-run — the step
// graph computed every row, whichever device the clock assigned it to.
func (c *Cluster) fallback(sch *octree.NearSchedule, losses []lostWork) float64 {
	if len(losses) == 0 {
		return 0
	}
	if c.Watchdog.DisableFallback {
		lost := 0
		for _, lw := range losses {
			lost += len(lw.rows)
		}
		c.mu.Lock()
		c.report.LostRows += lost
		c.report.Err = fmt.Errorf("vgpu: %d near-field rows lost to dead devices (fallback disabled)", lost)
		c.mu.Unlock()
		return 0
	}
	rate := c.HostP2PRate
	if rate <= 0 {
		// No host rate supplied: charge at the (healthy) device rate as a
		// conservative stand-in.
		rate = c.Devices[0].Spec.InteractionsPerSecPerSM * float64(c.Devices[0].Spec.SMs)
	}
	var totalRows int
	var totalInter int64
	for _, lw := range losses {
		var inter int64
		for _, r := range lw.rows {
			inter += sch.Priced(int(r))
		}
		c.Rec.EmitEvent(telemetry.EventFallback, int64(lw.dev), int64(len(lw.rows)), float64(inter)/rate, 0)
		totalRows += len(lw.rows)
		totalInter += inter
	}
	virtual := float64(totalInter) / rate
	c.mu.Lock()
	c.report.FallbackRows += totalRows
	c.report.FallbackInteractions += totalInter
	c.report.FallbackVirtual += virtual
	c.mu.Unlock()
	return virtual
}

// finishExecute charges the fallback and fills the cluster-state
// counters of the report; returns the fallback's virtual-time charge.
func (c *Cluster) finishExecute(sch *octree.NearSchedule) float64 {
	var virtual float64
	if c.Injector != nil {
		virtual = c.fallback(sch, c.collectLosses())
	}
	dead, degraded := 0, 0
	for _, d := range c.Devices {
		switch d.Health {
		case Dead:
			dead++
		case Degraded:
			degraded++
		}
	}
	c.mu.Lock()
	c.report.DeadDevices = dead
	c.report.DegradedDevices = degraded
	c.mu.Unlock()
	return virtual
}

// die transitions the device to Dead at chunk boundary `chunk`,
// records the fault, and bumps the capacity epoch. completed is the
// number of assignment rows the device finished.
func (d *Device) die(c *Cluster, kind fault.Kind, chunk, completed int) {
	d.Health = Dead
	d.FaultKind = kind
	d.StraggleFactor = 1
	d.CompletedRows = completed
	c.capEpoch.Add(1)
	c.mu.Lock()
	c.report.Faults = append(c.report.Faults, DeviceFault{
		Device: d.ID, Kind: kind, Chunk: chunk, Rows: completed,
	})
	c.mu.Unlock()
	c.Rec.EmitEvent(telemetry.EventFault, int64(d.ID), int64(kind), 0, 0)
	if kind == fault.Hang {
		c.Rec.EmitEvent(telemetry.EventWatchdog, int64(d.ID), int64(chunk), 0, 0)
	}
}
