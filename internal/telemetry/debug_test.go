package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"afmm/internal/metrics"
)

// TestStartDebugEndpoints exercises the full endpoint surface of one
// DebugServer: /metrics (Prometheus text), /status (JSON), /flightrec,
// the HTML dashboard, /debug/vars (the afmm_telemetry snapshot), the pprof
// index, and graceful Shutdown.
func TestStartDebugEndpoints(t *testing.T) {
	reg := metrics.NewRegistry()
	fr := NewFlightRecorder(4, "")
	r := New(Options{Metrics: reg, Flight: fr})
	r.StartStep(0)
	r.Update(func(sr *StepRecord) { sr.Step, sr.S, sr.State = 0, 32, "steady" })
	r.EndStep()

	d, err := StartDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatalf("StartDebug: %v", err)
	}
	defer d.Close()
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + d.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "# TYPE afmm_step_wall_seconds histogram") ||
		!strings.Contains(body, "afmm_steps_total 1") {
		t.Fatalf("/metrics = %d:\n%s", code, body)
	}
	code, body := get("/status")
	if code != http.StatusOK {
		t.Fatalf("/status = %d", code)
	}
	var status struct {
		Telemetry struct {
			StepsDone  int   `json:"steps_done"`
			LastWallNs int64 `json:"last_wall_ns"`
		} `json:"telemetry"`
		Flight struct {
			Retained int `json:"retained"`
		} `json:"flight"`
		Metrics map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatalf("/status not JSON: %v", err)
	}
	if status.Telemetry.StepsDone != 1 || status.Telemetry.LastWallNs <= 0 ||
		status.Flight.Retained != 1 || status.Metrics["afmm_steps_total"] == nil {
		t.Fatalf("/status content: %s", body)
	}
	if code, body := get("/flightrec"); code != http.StatusOK || !strings.Contains(body, `"records"`) {
		t.Fatalf("/flightrec = %d: %s", code, body)
	}
	if code, body := get("/"); code != http.StatusOK || !strings.Contains(body, "afmm live") {
		t.Fatalf("dashboard = %d", code)
	}
	code, body = get("/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars = %d", code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	var snap struct {
		Enabled   bool `json:"enabled"`
		StepsDone int  `json:"steps_done"`
		LastStep  struct {
			S int `json:"s"`
		} `json:"last_step"`
	}
	if err := json.Unmarshal(vars["afmm_telemetry"], &snap); err != nil {
		t.Fatalf("afmm_telemetry var missing or not JSON (%v): %s", err, body)
	}
	if !snap.Enabled || snap.StepsDone != 1 || snap.LastStep.S != 32 {
		t.Fatalf("afmm_telemetry snapshot wrong: %s", vars["afmm_telemetry"])
	}
	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("pprof index = %d", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := http.Get("http://" + d.Addr() + "/status"); err == nil {
		t.Fatal("server still answering after Shutdown")
	}
}

// TestDebugServersAreIsolated: two live servers bound to different
// recorders must each serve their own snapshot under the same
// "afmm_telemetry" name — the regression the per-mux var fixes (the old
// process-global pointer made every server serve whichever recorder
// registered last).
func TestDebugServersAreIsolated(t *testing.T) {
	r1 := New(Options{})
	r2 := New(Options{})
	for i := 0; i < 3; i++ {
		r1.StartStep(i)
		r1.EndStep()
	}
	r2.StartStep(0)
	r2.EndStep()

	d1, err := StartDebug("127.0.0.1:0", r1)
	if err != nil {
		t.Fatal(err)
	}
	defer d1.Close()
	d2, err := StartDebug("127.0.0.1:0", r2)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()

	steps := func(addr string) int {
		resp, err := http.Get("http://" + addr + "/debug/vars")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var vars struct {
			Telemetry struct {
				StepsDone int `json:"steps_done"`
			} `json:"afmm_telemetry"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
			t.Fatalf("vars decode: %v", err)
		}
		return vars.Telemetry.StepsDone
	}
	if got := steps(d1.Addr()); got != 3 {
		t.Fatalf("server 1 steps = %d, want 3", got)
	}
	if got := steps(d2.Addr()); got != 1 {
		t.Fatalf("server 2 steps = %d, want 1 (aliased to the other recorder?)", got)
	}
}

// TestDebugNoMetricsConfigured: endpoints degrade to 404 with a hint,
// not a panic, when the recorder has no registry or flight ring.
func TestDebugNoMetricsConfigured(t *testing.T) {
	d, err := StartDebug("127.0.0.1:0", New(Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, path := range []string{"/metrics", "/flightrec"} {
		resp, err := http.Get("http://" + d.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestDebugSnapshotNil(t *testing.T) {
	var r *Recorder
	snap := r.DebugSnapshot()
	if snap["enabled"] != false {
		t.Fatalf("nil snapshot = %v", snap)
	}
}
