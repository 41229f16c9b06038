package telemetry_test

import (
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"afmm/internal/core"
	"afmm/internal/distrib"
	"afmm/internal/dmem"
	"afmm/internal/fault"
	"afmm/internal/metrics"
	"afmm/internal/sim"
	"afmm/internal/telemetry"
	"afmm/internal/vcpu"
)

// catalogRow matches a family row of docs/OBSERVABILITY.md's metric table:
// the first cell is the family name in backticks, labels optional.
var catalogRow = regexp.MustCompile("^\\| `(afmm_[a-z_]+)[{`]")

// docCatalog returns the family names the metric table lists.
func docCatalog(t *testing.T) []string {
	t.Helper()
	b, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(b), "## Metrics catalog (/metrics)")
	if !ok {
		t.Fatal("docs/OBSERVABILITY.md has no metrics catalog section")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	var names []string
	for _, line := range strings.Split(sec, "\n") {
		if m := catalogRow.FindStringSubmatch(line); m != nil {
			names = append(names, m[1])
		}
	}
	slices.Sort(names)
	return names
}

// TestMetricCatalog: every family on /metrics comes from the step-record
// publisher, and the documented table is exactly what it registers. A
// gravity run with two GPUs and an injected fail-stop (device, fallback
// and flight-dump families) and an executed dmem run share one registry;
// one anomaly event stands in for a sentinel alarm, which needs a timing
// outlier.
func TestMetricCatalog(t *testing.T) {
	reg := metrics.NewRegistry()
	flight := telemetry.NewFlightRecorder(8, t.TempDir())
	rec := telemetry.New(telemetry.Options{Metrics: reg, Flight: flight})

	sch, err := fault.Parse("gpu0:failstop@step2")
	if err != nil {
		t.Fatal(err)
	}
	grav := core.NewSolver(distrib.Plummer(1500, 1, 1, 3), core.Config{
		P: 4, S: 32, NumGPUs: 2, Faults: fault.NewInjector(sch),
	})
	if res := sim.RunGravity(grav, sim.Config{Dt: 1e-4, Steps: 4, Rec: rec}); res.Err != nil {
		t.Fatal(res.Err)
	}

	d, err := dmem.NewSolver(distrib.Plummer(800, 1, 1, 5), dmem.Config{
		Core:  core.Config{P: 4, S: 32},
		Nodes: dmem.HomogeneousNodes(3, dmem.NodeSpec{CPU: vcpu.Spec{Cores: 4}.Normalized()}),
	})
	if err != nil {
		t.Fatal(err)
	}
	d.SetRecorder(rec)
	d.RunWith(dmem.RunConfig{StartStep: 4, Steps: 2, Dt: 1e-4})

	rec.StartStep(6)
	rec.EmitEvent(telemetry.EventAnomaly, int64(telemetry.SpanSolve), 6, 1, 0)
	rec.EndStep()

	var got []string
	for name := range reg.Snapshot() {
		got = append(got, name)
	}
	slices.Sort(got)
	if want := docCatalog(t); !slices.Equal(got, want) {
		t.Fatalf("registered families differ from docs/OBSERVABILITY.md's table\nregistered: %v\ndocumented: %v", got, want)
	}

	if flight.Dumps() == 0 {
		t.Fatal("the fail-stop wrote no flight dump")
	}
	var prom strings.Builder
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"afmm_steps_total 7",
		`afmm_events_total{kind="fault"} 1`,
		fmt.Sprintf("afmm_flightrec_dumps_total %d", flight.Dumps()),
	} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("missing %q in exposition:\n%s", want, prom.String())
		}
	}
}
