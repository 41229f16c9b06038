package balance

import (
	"fmt"
	"math"

	"afmm/internal/telemetry"
)

// CapacitySensor is the optional Target surface for heterogeneous
// capacity awareness: the epoch increments on every device loss,
// derating, or restore, and capacity is the surviving devices' aggregate
// near-field interaction rate. Both solvers implement it; targets that
// don't are balanced purely from observed times.
type CapacitySensor interface {
	NearFieldCapacity() (epoch int64, capacity float64)
}

// noteCapacity folds a capacity epoch change into the balancer before the
// normal state step. A shift beyond regressionFrac means the CPU/GPU
// balance point moved for a reason no tree edit caused, so the optimal S
// is stale: the full strategy re-enters Search bounded on the side of the
// old S the shift points to (capacity dropped -> the near field got
// slower -> search smaller S); the enforce strategy re-baselines its
// regression detector; the static strategy only records the event.
func (b *Balancer) noteCapacity(s Target, cs CapacitySensor) (r Report) {
	ep, c := cs.NearFieldCapacity()
	if !b.capSeen {
		b.capSeen, b.capEpoch, b.capVal = true, ep, c
		return r
	}
	if ep == b.capEpoch {
		return r
	}
	old := b.capVal
	b.capEpoch, b.capVal = ep, c
	b.rec().EmitEvent(telemetry.EventCapacity, ep, 0, c, old)
	r.Events = append(r.Events, fmt.Sprintf("capacity shift: %.4g -> %.4g (epoch %d)", old, c, ep))
	var frac float64
	if old > 0 {
		frac = math.Abs(c-old) / old
	}
	if frac <= regressionFrac {
		return r
	}
	switch b.Cfg.Strategy {
	case StrategyStatic:
		// Strategy 1 never re-balances; the event is still recorded so
		// trajectories show what it ignored.
	case StrategyEnforce:
		b.haveBest = false
		r.Events = append(r.Events, "capacity: reset best")
	default:
		cur := s.S()
		if c < old {
			b.loS, b.hiS = b.Cfg.MinS, cur
		} else {
			b.loS, b.hiS = cur, b.Cfg.MaxS
		}
		b.bestS, b.bestSComp = -1, 0
		b.haveBest = false
		b.setState(Search)
		r.Events = append(r.Events, fmt.Sprintf("capacity: re-search S in [%d,%d]", b.loS, b.hiS))
	}
	return r
}

// Snapshot is the balancer's serializable FSM state, captured for
// checkpoints so a restored simulation resumes in the state it was in
// (e.g. Observation with its best-time baseline) instead of re-running
// the whole search.
type Snapshot struct {
	State     State
	Best      float64
	HaveBest  bool
	LoS, HiS  int
	BestS     int
	BestSComp float64
	Dir       int
	PrevDom   int
	CapSeen   bool
	CapEpoch  int64
	CapVal    float64
}

// Export captures the balancer's current FSM state.
func (b *Balancer) Export() Snapshot {
	return Snapshot{
		State: b.State, Best: b.best, HaveBest: b.haveBest,
		LoS: b.loS, HiS: b.hiS, BestS: b.bestS, BestSComp: b.bestSComp,
		Dir: b.dir, PrevDom: b.prevDom,
		CapSeen: b.capSeen, CapEpoch: b.capEpoch, CapVal: b.capVal,
	}
}

// Import restores a previously exported FSM state.
func (b *Balancer) Import(sn Snapshot) {
	b.State = sn.State
	b.best, b.haveBest = sn.Best, sn.HaveBest
	b.loS, b.hiS = sn.LoS, sn.HiS
	b.bestS, b.bestSComp = sn.BestS, sn.BestSComp
	b.dir, b.prevDom = sn.Dir, sn.PrevDom
	b.capSeen, b.capEpoch, b.capVal = sn.CapSeen, sn.CapEpoch, sn.CapVal
}
