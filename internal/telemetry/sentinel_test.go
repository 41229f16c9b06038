package telemetry

import (
	"testing"
	"time"
)

func stepRec(wallMs int64, phases map[SpanKind]int64) *StepRecord {
	rec := &StepRecord{WallNs: wallMs * 1e6}
	for k, ms := range phases {
		rec.Spans = append(rec.Spans, Span{Kind: k, DurNs: ms * 1e6})
	}
	return rec
}

func TestSentinelFlagsWallRegression(t *testing.T) {
	s := NewSentinel(SentinelConfig{Warmup: 4, K: 4})
	for i := 0; i < 10; i++ {
		if as := s.Observe(stepRec(10, nil)); len(as) != 0 {
			t.Fatalf("steady steps alarmed: %v", as)
		}
	}
	as := s.Observe(stepRec(200, nil))
	if len(as) != 1 || as[0].Kind != SpanSolve {
		t.Fatalf("spike anomalies = %v, want one SpanSolve", as)
	}
	if as[0].Observed != 200*time.Millisecond {
		t.Fatalf("observed = %v", as[0].Observed)
	}
	if as[0].Baseline > 15*time.Millisecond {
		t.Fatalf("baseline = %v, want ~10ms", as[0].Baseline)
	}
	if s.Anomalies() != 1 {
		t.Fatalf("anomaly count = %d", s.Anomalies())
	}
}

func TestSentinelFlagsPhaseNotWall(t *testing.T) {
	s := NewSentinel(SentinelConfig{Warmup: 4, K: 4})
	// Steady wall; the far.up phase spikes while another phase shrinks.
	for i := 0; i < 10; i++ {
		s.Observe(stepRec(20, map[SpanKind]int64{SpanUpSweep: 10, SpanNearCPU: 10}))
	}
	as := s.Observe(stepRec(20, map[SpanKind]int64{SpanUpSweep: 18, SpanNearCPU: 2}))
	if len(as) != 1 || as[0].Kind != SpanUpSweep {
		t.Fatalf("anomalies = %v, want one far.up", as)
	}
}

func TestSentinelWarmupAndFloors(t *testing.T) {
	s := NewSentinel(SentinelConfig{Warmup: 8, K: 4})
	// A spike inside the warmup window must not alarm.
	s.Observe(stepRec(10, nil))
	if as := s.Observe(stepRec(500, nil)); len(as) != 0 {
		t.Fatalf("warmup spike alarmed: %v", as)
	}
	// Sub-MinWall phases are ignored outright even after warmup.
	s2 := NewSentinel(SentinelConfig{Warmup: 2, K: 2, MinWall: time.Millisecond})
	for i := 0; i < 10; i++ {
		s2.Observe(&StepRecord{WallNs: 100}) // 100ns wall
	}
	if as := s2.Observe(&StepRecord{WallNs: 900}); len(as) != 0 {
		t.Fatalf("sub-MinWall step alarmed: %v", as)
	}
}

func TestSentinelSpikeCannotAlarmTwice(t *testing.T) {
	s := NewSentinel(SentinelConfig{Warmup: 4, K: 4, Alpha: 0.5})
	for i := 0; i < 8; i++ {
		s.Observe(stepRec(10, nil))
	}
	if as := s.Observe(stepRec(300, nil)); len(as) != 1 {
		t.Fatalf("first spike = %v", as)
	}
	// The fold absorbed the spike (alpha 0.5 → mean ~155ms, dev huge), so
	// a second identical step sits inside the widened band.
	if as := s.Observe(stepRec(300, nil)); len(as) != 0 {
		t.Fatalf("repeat spike re-alarmed: %v", as)
	}
}

func TestNilSentinel(t *testing.T) {
	var s *Sentinel
	if s.Observe(stepRec(10, nil)) != nil || s.Anomalies() != 0 {
		t.Fatal("nil sentinel not inert")
	}
}

// TestRecorderSentinelIntegration: a regression surfaces as EventAnomaly
// in the step's own record and triggers a flight dump. The recorder times
// steps by the wall clock, and on a shared vCPU a 200µs warm-up sleep can
// take milliseconds: the 5ms deviation floor puts the alarm band 20ms
// above the baseline, which only the 100ms spike can leave.
func TestRecorderSentinelIntegration(t *testing.T) {
	dir := t.TempDir()
	fr := NewFlightRecorder(8, dir)
	rec := New(Options{
		Flight:   fr,
		Sentinel: &SentinelConfig{Warmup: 3, K: 4, MinWall: time.Microsecond, MinDev: 5 * time.Millisecond},
	})
	for i := 0; i < 8; i++ {
		rec.StartStep(i)
		time.Sleep(200 * time.Microsecond)
		rec.EndStep()
	}
	rec.StartStep(8)
	time.Sleep(100 * time.Millisecond)
	rec.EndStep()
	last, ok := rec.Last()
	if !ok {
		t.Fatal("no last record")
	}
	found := false
	for _, ev := range last.Events {
		if ev.Kind == EventAnomaly && SpanKind(ev.A) == SpanSolve {
			found = true
			if ev.FA <= ev.FB {
				t.Fatalf("anomaly observed %g <= baseline %g", ev.FA, ev.FB)
			}
		}
	}
	if !found {
		t.Fatalf("no EventAnomaly in spiked step: %+v", last.Events)
	}
	if rec.Anomalies() == 0 {
		t.Fatal("recorder anomaly count zero")
	}
	if fr.Dumps() != 1 {
		t.Fatalf("flight dumps = %d, want 1 on sentinel alarm", fr.Dumps())
	}
}
