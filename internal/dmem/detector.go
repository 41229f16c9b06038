package dmem

import (
	"sync"
	"sync/atomic"
	"time"

	"afmm/internal/fault"
)

// detector is the heartbeat-based failure detector that replaces the
// oracle node-loss detection of the priced path: a heartbeat goroutine
// stamps every node's last-seen clock each interval, and a node's
// suspicion level is its heartbeat age behind the freshest beat, measured
// in intervals and normalized so that suspicion >= 1 declares it dead
// (SuspectAfter consecutive silent intervals). One goroutine beats for
// every node, so a process-wide stall delays all beats alike and ages no
// node against its peers.
//
// A fail-stop fault does not tell the solver the node died — it only
// silences the node's heartbeat (the injected failure). Detection is
// then earned the production way: the step loop blocks until the dead
// node's suspicion crosses the threshold, and the measured wall-clock
// latency — not the priced path's modeled oracle delay — is what the
// run report records. Heartbeats cross the same lossy links as data
// frames: each beat survives with the link schedule's worst outgoing
// drop rate for the node, drawn deterministically per beat, so
// within-budget loss schedules widen detection latency without causing
// false positives (SuspectAfter consecutive losses of a < 1.0-rate link
// is vanishingly unlikely at the default threshold).
type detector struct {
	interval     time.Duration
	suspectAfter int
	sch          *fault.LinkSchedule
	seed         int64

	lastBeat []atomic.Int64 // unixnano of each node's last received beat
	silenced []atomic.Bool
	step     atomic.Int64 // current run step, for the link schedule

	done chan struct{}
	wg   sync.WaitGroup
}

// newDetector starts the heartbeat goroutine. Callers must stop() it.
func newDetector(nodes int, cfg linkConfig, sch *fault.LinkSchedule, seed int64) *detector {
	cfg = cfg.withDefaults()
	d := &detector{
		interval:     cfg.HeartbeatInterval,
		suspectAfter: cfg.SuspectAfter,
		sch:          sch,
		seed:         seed,
		lastBeat:     make([]atomic.Int64, nodes),
		silenced:     make([]atomic.Bool, nodes),
		done:         make(chan struct{}),
	}
	now := time.Now().UnixNano()
	for k := range d.lastBeat {
		d.lastBeat[k].Store(now)
	}
	d.wg.Add(1)
	go d.heartbeats()
	return d
}

func (d *detector) stop() {
	close(d.done)
	d.wg.Wait()
}

// heartbeats stamps the last-seen clock of every node that is not
// silenced (its fail-stop) each interval until the run ends. Beats are
// subject to the node's worst outgoing link drop rate, drawn
// deterministically per beat index.
func (d *detector) heartbeats() {
	defer d.wg.Done()
	ticker := time.NewTicker(d.interval)
	defer ticker.Stop()
	for beat := int64(1); ; beat++ {
		select {
		case <-d.done:
			return
		case <-ticker.C:
		}
		now := time.Now().UnixNano()
		for k := range d.lastBeat {
			if d.silenced[k].Load() {
				continue
			}
			if p := d.sch.MaxDropFrom(k, int(d.step.Load())); p > 0 &&
				fault.Hash01(d.seed, int64(saltAck)<<8, int64(k), beat) < p {
				continue // beat lost on the wire
			}
			d.lastBeat[k].Store(now)
		}
	}
}

// setStep tells the detector which run step is current (the link
// schedule is step-indexed).
func (d *detector) setStep(step int) { d.step.Store(int64(step)) }

// silence injects node k's fail-stop: its heartbeat falls silent at the
// next tick. The detector itself is not informed of the death. The
// last-seen clock re-stamps to the injection instant so the measured
// detection latency is the genuine silent window — not leftover staleness
// from beats lost on the wire.
func (d *detector) silence(k int) {
	d.silenced[k].Store(true)
	d.lastBeat[k].Store(time.Now().UnixNano())
}

// suspicion reports node k's current suspicion level: heartbeat age over
// the declare-dead window. >= 1 means the detector considers it dead.
// The age is measured against the freshest beat of any node, not the
// wall clock: a stall of the heartbeat goroutine ages no node, while a
// silent node ages as soon as its live peers beat again (the run never
// kills its last node, so a peer is always beating).
func (d *detector) suspicion(k int) float64 {
	var freshest int64
	for j := range d.lastBeat {
		freshest = max(freshest, d.lastBeat[j].Load())
	}
	age := time.Duration(freshest - d.lastBeat[k].Load())
	return float64(age) / float64(d.interval*time.Duration(d.suspectAfter))
}

// waitDead blocks until node k's suspicion crosses 1 and returns the
// measured wall-clock detection latency. The cap bounds a pathological
// stall (it is far beyond any reachable suspicion window).
func (d *detector) waitDead(k int) time.Duration {
	start := time.Now()
	limit := 1000 * d.interval * time.Duration(d.suspectAfter)
	for d.suspicion(k) < 1 {
		if time.Since(start) > limit {
			break
		}
		time.Sleep(d.interval / 2)
	}
	return time.Since(start)
}
