package dmem

import (
	"strings"
	"testing"

	"afmm/internal/distrib"
	"afmm/internal/metrics"
	"afmm/internal/telemetry"
)

// TestMetricsPublished: an executed dmem run reaches /metrics through its
// step records alone — the recorder publishes them, dmem registers nothing.
func TestMetricsPublished(t *testing.T) {
	sys := distrib.Plummer(800, 1, 1, 5)
	d, err := NewSolver(sys, execClusterConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	rec := telemetry.New(telemetry.Options{Metrics: reg})
	d.SetRecorder(rec)
	d.RunWith(RunConfig{Steps: 2, Dt: 1e-4})
	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"afmm_steps_total 2", `afmm_phase_seconds_count{phase="vm.observe"}`} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in exposition:\n%s", want, out)
		}
	}
	if strings.Contains(out, "afmm_dmem_") {
		t.Fatalf("dmem publishes a family of its own:\n%s", out)
	}
}
