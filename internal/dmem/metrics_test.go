package dmem

import (
	"slices"
	"strings"
	"testing"

	"afmm/internal/distrib"
	"afmm/internal/fault"
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

// TestNodeSpansOnDmemTrack: with a recorder on, each alive node gets one
// dmem.node span per step — the union of its step-graph nodes' intervals,
// inside the step's wall time — and a lost node gets none.
func TestNodeSpansOnDmemTrack(t *testing.T) {
	events, err := fault.ParseNodeEvents("node1:failstop@step1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := execClusterConfig(3)
	cfg.NodeFaults = events
	d, err := NewSolver(distrib.Plummer(800, 1, 1, 5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.New(telemetry.Options{Keep: true})
	d.SetRecorder(rec)
	d.RunWith(RunConfig{Steps: 2, Dt: 1e-4})
	want := [][]int32{{0, 1, 2}, {0, 2}}
	for step, r := range rec.Steps() {
		var got []int32
		for _, sp := range r.Spans {
			if sp.Kind != telemetry.SpanDmemNode {
				continue
			}
			if sp.DurNs <= 0 || sp.DurNs > r.WallNs {
				t.Errorf("step %d: node %d span lasts %d ns of a %d ns step", step, sp.Arg, sp.DurNs, r.WallNs)
			}
			got = append(got, sp.Arg)
		}
		if !slices.Equal(got, want[step]) {
			t.Errorf("step %d: dmem.node spans for nodes %v, want %v", step, got, want[step])
		}
	}
}
