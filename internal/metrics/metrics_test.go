package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "")
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter counted")
	}
	g := r.Gauge("g", "")
	g.Set(3)
	if g.Value() != 0 {
		t.Fatal("nil gauge stored")
	}
	h := r.Histogram("h", "", nil)
	h.Observe(1)
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram observed")
	}
	if err := r.WriteProm(&strings.Builder{}); err != nil {
		t.Fatalf("nil WriteProm: %v", err)
	}
	if len(r.Snapshot()) != 0 {
		t.Fatal("nil snapshot non-empty")
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("afmm_steps_total", "steps")
	c.Add(3)
	c.Inc()
	c.Add(-5) // dropped: counters are monotonic
	if c.Value() != 4 {
		t.Fatalf("counter = %d, want 4", c.Value())
	}
	// Same (name, labels) returns the same series.
	if v := r.Counter("afmm_steps_total", "steps").Value(); v != 4 {
		t.Fatalf("re-registered counter = %d, want 4", v)
	}
	g := r.Gauge("afmm_s", "leaf capacity")
	g.Set(64)
	g.Set(48)
	if g.Value() != 48 {
		t.Fatalf("gauge = %g, want 48", g.Value())
	}
}

func TestLabelCanonicalization(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x", "", "b", "2", "a", "1")
	b := r.Counter("x", "", "a", "1", "b", "2")
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("label order created distinct series")
	}
}

func TestKindMismatchYieldsDeadHandle(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	g := r.Gauge("m", "") // same name, different kind
	g.Set(7)              // must not panic, must not corrupt the counter
	if g.Value() != 0 {
		t.Fatal("mismatched handle is live")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{1, 2, 4, 8})
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // all in the (1,2] bucket
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	p50 := h.Quantile(0.5)
	if p50 < 1 || p50 > 2 {
		t.Fatalf("p50 = %g, want within (1,2]", p50)
	}
	// Heavier tail moves p99 into a higher bucket than p50.
	for i := 0; i < 5; i++ {
		h.Observe(7)
	}
	if p99 := h.Quantile(0.99); p99 <= 2 {
		t.Fatalf("p99 = %g, want > 2 after tail samples", p99)
	}
	// Overflow lands in +Inf and reports the last finite bound.
	h2 := r.Histogram("lat2", "", []float64{1})
	h2.Observe(100)
	if q := h2.Quantile(0.5); q != 1 {
		t.Fatalf("+Inf bucket quantile = %g, want 1", q)
	}
}

func TestPromTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("afmm_events_total", "events by kind", "kind", "fault").Add(2)
	r.Gauge("afmm_capacity", "aggregate capacity").Set(1.5e9)
	h := r.Histogram("afmm_step_wall_seconds", "step wall", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE afmm_events_total counter",
		`afmm_events_total{kind="fault"} 2`,
		"# TYPE afmm_capacity gauge",
		"afmm_capacity 1500000000",
		"# TYPE afmm_step_wall_seconds histogram",
		`afmm_step_wall_seconds_bucket{le="0.1"} 1`,
		`afmm_step_wall_seconds_bucket{le="1"} 2`,
		`afmm_step_wall_seconds_bucket{le="+Inf"} 3`,
		"afmm_step_wall_seconds_sum 5.55",
		"afmm_step_wall_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
	// Bucket lines with labels keep the original labels plus le.
	r.Histogram("p", "", []float64{1}, "phase", "far.up").Observe(0.5)
	b.Reset()
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `p_bucket{phase="far.up",le="1"} 1`) {
		t.Fatalf("labeled bucket line wrong:\n%s", b.String())
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "help c").Inc()
	h := r.Histogram("h", "", []float64{1, 2})
	h.Observe(0.5)
	snap := r.Snapshot()
	cFam, ok := snap["c"].(map[string]any)
	if !ok || cFam["type"] != "counter" {
		t.Fatalf("counter family: %v", snap["c"])
	}
	hFam := snap["h"].(map[string]any)
	rows := hFam["series"].([]map[string]any)
	if rows[0]["count"].(int64) != 1 {
		t.Fatalf("histogram snapshot: %v", rows[0])
	}
	if p50 := rows[0]["p50"].(float64); p50 <= 0 || p50 > 1 {
		t.Fatalf("p50 = %v", p50)
	}
}

func TestConcurrentHotPath(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i%10) * 1e-3)
				// Concurrent registration of the same family must be safe.
				r.Counter("c2", "", "w", "0").Inc()
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("hist count = %d, want 8000", h.Count())
	}
	if v := r.Counter("c2", "", "w", "0").Value(); v != 8000 {
		t.Fatalf("c2 = %d, want 8000", v)
	}
	sum := 0.0
	_, _, sum = hSum(h)
	if math.IsNaN(sum) {
		t.Fatal("sum NaN")
	}
}

func hSum(h Histogram) ([]int64, int64, float64) { return h.s.h.snapshot() }

func TestDefBucketsCoverStepScales(t *testing.T) {
	b := DefBuckets()
	if b[0] > 1e-3 {
		t.Fatalf("first bucket %g too coarse for microsecond phases", b[0])
	}
	if last := b[len(b)-1]; last < 60 {
		t.Fatalf("last bucket %g too small for long steps", last)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatal("buckets not ascending")
		}
	}
}
