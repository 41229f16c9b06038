package dmem

import (
	"time"

	"afmm/internal/fault"
)

// The heartbeat failure detector's fixed settings.
const (
	// heartbeatInterval is the tick at which every live node beats.
	heartbeatInterval = time.Millisecond
	// suspectAfter is the silence, in ticks, after which a node is
	// declared dead.
	suspectAfter = 25
)

// detectLatency is the heartbeat failure detector, the one way a node
// loss is found. A fail-stop does not tell the solver the node died — it
// only silences the node's heartbeat at tick 0 of the detector's clock.
// The surviving peers (alive, lost excluded) beat on every tick, and a
// beat crosses the same lossy links as data frames: it survives its
// node's worst outgoing drop rate at the step (MaxDropFrom), drawn from
// fault.Hash01 per (node, tick). The lost node's suspicion is its
// heartbeat age behind the freshest surviving peer beat, so it is
// declared dead at the first tick t >= suspectAfter at which some peer's
// beat survives, and the detection latency is t intervals: exactly
// suspectAfter on clean links, more when every peer's beat of a tick is
// lost. A schedule that drops every peer's beats ends at the cap of 1,000
// suspicion windows.
func detectLatency(step, lost int, alive []bool, sch *fault.LinkSchedule, seed int64) time.Duration {
	drop := make([]float64, len(alive))
	for k := range drop {
		drop[k] = sch.MaxDropFrom(k, step)
	}
	const limit = 1000 * suspectAfter
	tick := int64(suspectAfter)
	for ; tick < limit; tick++ {
		for k, a := range alive {
			if a && k != lost && (drop[k] == 0 || fault.Hash01(seed, int64(saltAck)<<8, int64(k), tick) >= drop[k]) {
				return time.Duration(tick) * heartbeatInterval
			}
		}
	}
	return time.Duration(tick) * heartbeatInterval
}
