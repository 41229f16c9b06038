package telemetry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"afmm/internal/metrics"
)

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(4, "")
	for i := 0; i < 6; i++ {
		f.Add(StepRecord{Step: i})
	}
	recs := f.Records()
	if len(recs) != 4 {
		t.Fatalf("ring holds %d records, want 4", len(recs))
	}
	for i, r := range recs {
		if r.Step != i+2 {
			t.Fatalf("record %d = step %d, want %d (oldest-first)", i, r.Step, i+2)
		}
	}
	// Dump without a directory is a no-op, not an error.
	if path, err := f.Dump("fault"); err != nil || path != "" {
		t.Fatalf("dirless dump = (%q, %v)", path, err)
	}
	if f.Dumps() != 0 {
		t.Fatal("dirless dump counted")
	}
}

func TestFlightRecorderDump(t *testing.T) {
	dir := t.TempDir()
	f := NewFlightRecorder(3, dir)
	for i := 10; i < 13; i++ {
		f.Add(StepRecord{Step: i, WallNs: int64(i) * 1000})
	}
	path, err := f.Dump("watchdog")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(filepath.Base(path), "watchdog") {
		t.Fatalf("dump name %q missing reason", path)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d FlightDump
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	if d.Reason != "watchdog" || d.Steps != 3 || len(d.Records) != 3 {
		t.Fatalf("dump = %+v", d)
	}
	if d.Records[0].Step != 10 || d.Records[2].Step != 12 {
		t.Fatal("dump records not oldest-first")
	}
	if f.Dumps() != 1 || f.LastDump() != path {
		t.Fatalf("dump bookkeeping: %d %q", f.Dumps(), f.LastDump())
	}
	// A second dump gets a fresh sequence number.
	path2, err := f.Dump("anomaly")
	if err != nil {
		t.Fatal(err)
	}
	if path2 == path {
		t.Fatal("dump paths collide")
	}
}

func TestSanitizeReason(t *testing.T) {
	if got := sanitizeReason("gpu0:failstop at t=3"); strings.ContainsAny(got, ": =") {
		t.Fatalf("unsafe dump name %q", got)
	}
	if sanitizeReason("") != "dump" {
		t.Fatal("empty reason not defaulted")
	}
}

// TestRecorderFlightIntegration drives the full path: a recorder with a
// flight ring sees a fault event in a step, and the dump appears on disk
// after the step is finalized.
func TestRecorderFlightIntegration(t *testing.T) {
	dir := t.TempDir()
	fr := NewFlightRecorder(8, dir)
	rec := New(Options{Flight: fr})
	for i := 0; i < 3; i++ {
		rec.StartStep(i)
		rec.EndStep()
	}
	rec.StartStep(3)
	rec.EmitEvent(EventFault, 0, 1, 0, 0)
	rec.EndStep()
	if fr.Dumps() != 1 {
		t.Fatalf("dumps = %d, want 1 after fault event", fr.Dumps())
	}
	b, err := os.ReadFile(fr.LastDump())
	if err != nil {
		t.Fatal(err)
	}
	var d FlightDump
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	if d.Reason != "fault" || d.Steps != 4 {
		t.Fatalf("dump = reason %q steps %d, want fault/4", d.Reason, d.Steps)
	}
	// The faulting step itself is the newest record in the ring.
	if last := d.Records[len(d.Records)-1]; last.Step != 3 || len(last.Events) == 0 {
		t.Fatal("faulting step missing from dump")
	}
}

// TestRecorderPublishesMetrics checks the EndStep → registry path end to
// end: counters, the step-wall histogram, per-phase series, class busy.
func TestRecorderPublishesMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	rec := New(Options{Metrics: reg})
	for i := 0; i < 3; i++ {
		rec.StartStep(i)
		rec.AddSpan(SpanUpSweep, 0, time.Now(), 2*time.Millisecond)
		rec.Update(func(sr *StepRecord) {
			sr.Step, sr.S, sr.State = i, 64, "steady"
			sr.ClassBusyNs = append(sr.ClassBusyNs, 1000, 2000, 3000)
			sr.Lists = ListDelta{Skips: 1, Pairs: 50}
		})
		rec.EmitEvent(EventSChange, 48, 64, 0, 0)
		rec.EndStep()
	}
	if v := reg.Counter("afmm_steps_total", "").Value(); v != 3 {
		t.Fatalf("steps_total = %d, want 3", v)
	}
	h := reg.Histogram("afmm_step_wall_seconds", "", metrics.DefBuckets())
	if h.Count() != 3 {
		t.Fatalf("step wall observations = %d, want 3", h.Count())
	}
	ph := reg.Histogram("afmm_phase_seconds", "", metrics.DefBuckets(), "phase", "far.up")
	if ph.Count() != 3 {
		t.Fatalf("far.up phase observations = %d, want 3", ph.Count())
	}
	if v := reg.Counter("afmm_worker_busy_ns_total", "", "class", "near").Value(); v != 9000 {
		t.Fatalf("near class busy = %d, want 9000", v)
	}
	if v := reg.Counter("afmm_events_total", "", "kind", "s_change").Value(); v != 3 {
		t.Fatalf("s_change events = %d, want 3", v)
	}
	if v := reg.Counter("afmm_list_pairs_total", "").Value(); v != 150 {
		t.Fatalf("list pairs = %d, want 150", v)
	}
	if v := reg.Gauge("afmm_s_value", "").Value(); v != 64 {
		t.Fatalf("s gauge = %g, want 64", v)
	}
	// The prom rendering carries the histogram acceptance series.
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE afmm_step_wall_seconds histogram",
		`afmm_phase_seconds_bucket{phase="far.up"`,
		`afmm_worker_busy_ns_total{class="general"}`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("prom output missing %q", want)
		}
	}
}
