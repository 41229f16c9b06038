package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"afmm/internal/geom"
	"afmm/internal/sched"
)

// benchmarkJSON mirrors the driver's BENCHMARK.json schema: exactly these
// keys.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func specFromTables() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads() {
		b.Workloads = append(b.Workloads, workloadJSON{w.name, w.why})
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON holds ../BENCHMARK.json to the tables in spec.go and
// workloads.go and to the driver's limits. UPDATE_BENCHMARK_JSON=1 rewrites
// the file from the tables.
func TestBenchmarkJSON(t *testing.T) {
	want := specFromTables()
	const path = "../BENCHMARK.json"
	if os.Getenv("UPDATE_BENCHMARK_JSON") != "" {
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly 6", len(keys))
	}
	var got benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Command, want.Command) || !reflect.DeepEqual(got.Paths, want.Paths) ||
		got.RunSeconds != want.RunSeconds || !reflect.DeepEqual(got.Workloads, want.Workloads) {
		t.Errorf("command, paths, run_seconds or workloads differ from the tables; run with UPDATE_BENCHMARK_JSON=1")
	}
	sameMetrics := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
			return
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, spec.go %+v", kind, i, g, w)
			}
		}
	}
	sameMetrics("end_to_end", got.EndToEnd, want.EndToEnd)
	sameMetrics("per_layer", got.PerLayer, want.PerLayer)

	// The driver's limits.
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(got.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", got.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range got.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range got.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == lower
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range got.PerLayer {
		name(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	for _, m := range append(append([]metricSpec{}, got.EndToEnd...), got.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unitRE)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		if m.moves == "" {
			t.Errorf("%s: spec.go names no end-to-end metric it should move", m.Name)
		}
	}
}

// TestSeedKeepsCube checks what workload.bodies promises: another seed moves
// the bodies but not the bounding cube the tree is built in, and the same
// seed gives the same bodies.
func TestSeedKeepsCube(t *testing.T) {
	for _, w := range workloads() {
		base := w.draw(w)
		for seed := int64(1); seed <= 3; seed++ {
			got := w.bodies(seed)
			if geom.BoundingCube(got.Pos) != geom.BoundingCube(base.Pos) {
				t.Errorf("%s seed %d: bounding cube moved", w.name, seed)
			}
			if !reflect.DeepEqual(got.Pos, w.bodies(seed).Pos) {
				t.Errorf("%s seed %d: not reproducible", w.name, seed)
			}
			if moved := !reflect.DeepEqual(got.Pos, base.Pos); moved != (w.jitter > 0) {
				t.Errorf("%s seed %d: bodies moved = %v, jitter %g", w.name, seed, moved, w.jitter)
			}
		}
	}
}

// TestSmoke runs all five workloads at N <= 1500 for two timed steps
// through both passes and validates the result lines. It is -short-safe:
// the whole test takes a few seconds.
func TestSmoke(t *testing.T) {
	pool := sched.NewPool(min(runtime.NumCPU(), 4))
	for _, w := range workloads() {
		w.n = min(w.n, 1500)
		w.steps = 2
		w.errCeil = 0.1 // the ceilings belong to the full-size workloads
		rd, err := runRound(w, 42, pool, true)
		if err != nil {
			t.Fatal(err)
		}
		e := poolRounds(w, []round{rd, rd})
		l, err := measureLayers(w, 42, pool)
		if err != nil {
			t.Fatal(err)
		}
		if l.posHash != e.posHash {
			t.Errorf("%s: traced and untraced passes end at different positions", w.name)
		}
		for kind, r := range map[string]result{
			"end_to_end": newResult(endToEnd, e.metrics, e.attempted, e.failed, e.problems),
			"per_layer":  newResult(perLayer, l.metrics, l.attempted, l.failed, l.problems),
		} {
			for _, p := range r.problems {
				t.Errorf("%s %s: %s", w.name, kind, p)
			}
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			var back struct {
				Correct   *bool                  `json:"correct"`
				Attempted *int                   `json:"attempted"`
				Failed    *int                   `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(string(line)))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&back); err != nil {
				t.Fatalf("%s %s: %v", w.name, kind, err)
			}
			if back.Correct == nil || back.Attempted == nil || back.Failed == nil {
				t.Fatalf("%s %s: result line lacks a key: %s", w.name, kind, line)
			}
			if !*back.Correct || *back.Attempted < 1 || *back.Failed != 0 {
				t.Errorf("%s %s: correct=%v attempted=%d failed=%d", w.name, kind, *back.Correct, *back.Attempted, *back.Failed)
			}
			want := endToEnd
			if kind == "per_layer" {
				want = perLayer
			}
			if len(back.Metrics) != len(want) {
				t.Errorf("%s %s: %d metrics, want %d", w.name, kind, len(back.Metrics), len(want))
			}
			for _, s := range want {
				mv, ok := back.Metrics[s.Name]
				if !ok || mv.Unit != s.Unit {
					t.Errorf("%s %s: metric %s missing or in unit %q", w.name, kind, s.Name, mv.Unit)
				}
				if kind == "end_to_end" && !(mv.Value > 0) {
					t.Errorf("%s: end-to-end metric %s is %v; they are chosen never to be 0", w.name, s.Name, mv.Value)
				}
			}
		}
	}
}

// TestAtNominal checks the sampler's arithmetic on hand-made samples: an
// interval is scaled by the mean speed of the probes inside it and the one
// on either side.
func TestAtNominal(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	s := &speedSampler{
		at:    []time.Time{at(0), at(25), at(50), at(75), at(100), at(125)},
		speed: []float64{1, 1, 0.5, 0.5, 1, 1},
	}
	for _, c := range []struct {
		a, b int
		want time.Duration
	}{
		{40, 85, 45 * time.Millisecond * 3 / 4},  // probes at 50 and 75 inside, 25 and 100 beside: mean speed 0.75
		{51, 74, 23 * time.Millisecond / 2},      // none inside: the neighbours at 50 and 75
		{0, 125, 125 * time.Millisecond * 5 / 6}, // all six
	} {
		if got := s.atNominal(at(c.a), at(c.b)); got != c.want {
			t.Errorf("atNominal(%d ms, %d ms) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
