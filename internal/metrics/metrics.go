// Package metrics is the live monitoring registry of the reproduction:
// named counters, gauges, and fixed-bucket histograms that the telemetry
// recorder fills from each finalized step record, and that the debug
// server exposes as a Prometheus text-format endpoint, a JSON snapshot,
// and a minimal live dashboard.
//
// The hot paths are lock-free: a Counter.Add is one atomic add, a
// Gauge.Set one atomic store, a Histogram.Observe a binary search over
// a fixed bound slice plus three atomic updates. Registration (the only
// mutex-guarded path) happens once per series; call sites hold the
// returned handle. A nil *Registry is valid everywhere: registration on
// it returns nil handles, and every handle method is a no-op on a nil
// receiver, so the instrumented layers carry no monitoring cost when no
// registry is attached — the same discipline as telemetry's nil
// *Recorder.
//
// Series of one name form a family sharing a type and help string;
// label variants ("phase", "device", ...) are distinct series within
// the family. Families render in registration order, series in label
// registration order, so scrapes are stable across the run.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is the series type, mirroring the Prometheus metric types the
// text exposition format distinguishes.
type Kind uint8

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a fixed-bucket distribution.
	KindHistogram
)

var kindNames = [...]string{"counter", "gauge", "histogram"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "untyped"
}

// series is one (name, labels) line. Exactly one of the value fields is
// active, selected by the family kind.
type series struct {
	labels string // rendered {k="v",...} suffix, "" for the bare series
	ival   atomic.Int64
	fbits  atomic.Uint64 // float64 bits (gauges)
	h      *histData
}

type family struct {
	name, help string
	kind       Kind
	buckets    []float64 // histogram families only
	mu         sync.Mutex
	byLabel    map[string]*series
	order      []*series
}

// Registry holds the metric families. Create with NewRegistry; the zero
// value is not usable, but a nil *Registry is a valid no-op sink.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// Enabled reports whether the registry is non-nil, for call sites that
// want to skip snapshot assembly entirely when monitoring is off.
func (r *Registry) Enabled() bool { return r != nil }

// formatLabels renders variadic key, value pairs as a canonical
// {k="v",...} suffix. Pairs are sorted by key so the same label set
// always maps to the same series regardless of argument order. An odd
// trailing key is ignored.
func formatLabels(kv []string) string {
	n := len(kv) / 2
	if n == 0 {
		return ""
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, n)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// getFamily returns (creating if needed) the family for name. A name
// re-registered with a different kind returns nil — the caller gets a
// dead handle instead of corrupting the exposition — since that is a
// programming error no production path should pay a panic for.
func (r *Registry) getFamily(name, help string, kind Kind, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, buckets: buckets,
			byLabel: make(map[string]*series)}
		r.fams[name] = f
		r.order = append(r.order, f)
		return f
	}
	if f.kind != kind {
		return nil
	}
	return f
}

func (f *family) getSeries(labels string) *series {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.byLabel[labels]
	if !ok {
		s = &series{labels: labels}
		if f.kind == KindHistogram {
			s.h = newHistData(f.buckets)
		}
		f.byLabel[labels] = s
		f.order = append(f.order, s)
	}
	return s
}

// Counter is a monotonically increasing series handle. Nil-safe.
type Counter struct{ s *series }

// Counter registers (or fetches) a counter series. labels are variadic
// key, value pairs.
func (r *Registry) Counter(name, help string, labels ...string) Counter {
	if r == nil {
		return Counter{}
	}
	f := r.getFamily(name, help, KindCounter, nil)
	return Counter{s: f.getSeries(formatLabels(labels))}
}

// Add increments the counter by n (negative deltas are dropped —
// counters are monotonic).
func (c Counter) Add(n int64) {
	if c.s == nil || n <= 0 {
		return
	}
	c.s.ival.Add(n)
}

// Inc increments the counter by one.
func (c Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c Counter) Value() int64 {
	if c.s == nil {
		return 0
	}
	return c.s.ival.Load()
}

// Gauge is a settable series handle. Nil-safe.
type Gauge struct{ s *series }

// Gauge registers (or fetches) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...string) Gauge {
	if r == nil {
		return Gauge{}
	}
	f := r.getFamily(name, help, KindGauge, nil)
	return Gauge{s: f.getSeries(formatLabels(labels))}
}

// Set stores the gauge value.
func (g Gauge) Set(v float64) {
	if g.s == nil {
		return
	}
	g.s.fbits.Store(math.Float64bits(v))
}

// Value returns the current gauge value.
func (g Gauge) Value() float64 {
	if g.s == nil {
		return 0
	}
	return math.Float64frombits(g.s.fbits.Load())
}

// DefBuckets are the default histogram bounds for host durations in
// seconds: exponential from 250µs to ~2000s, wide enough that a step
// wall at N=1e5 on one core and a microsecond phase both land inside
// the range.
func DefBuckets() []float64 {
	b := make([]float64, 0, 24)
	for v := 250e-6; v < 2500; v *= 2 {
		b = append(b, v)
	}
	return b
}

// histData is the lock-free histogram state: cumulative bucket counts
// are derived at read time from the per-bucket increments, so Observe
// touches exactly one bucket slot.
type histData struct {
	bounds []float64      // ascending upper bounds; +Inf is implicit
	counts []atomic.Int64 // len(bounds)+1, last is the +Inf bucket
	count  atomic.Int64
	sumBit atomic.Uint64 // float64 bits of the running sum, CAS-updated
}

func newHistData(bounds []float64) *histData {
	if len(bounds) == 0 {
		bounds = DefBuckets()
	}
	return &histData{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

func (h *histData) observe(v float64) {
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBit.Load()
		s := math.Float64frombits(old) + v
		if h.sumBit.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// snapshot returns the per-bucket counts, total count and sum as seen
// now. Concurrent observes may tear between buckets and the total; the
// skew is at most the handful of in-flight samples.
func (h *histData) snapshot() (counts []int64, count int64, sum float64) {
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, h.count.Load(), math.Float64frombits(h.sumBit.Load())
}

// quantile estimates the q-quantile (0..1) by linear interpolation
// within the bucket holding the target rank, the same estimate
// Prometheus's histogram_quantile computes server-side.
func (h *histData) quantile(q float64) float64 {
	counts, total, _ := h.snapshot()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		var lo float64
		if i > 0 {
			lo = h.bounds[i-1]
		}
		if i == len(h.bounds) {
			return lo // +Inf bucket: report its lower bound
		}
		hi := h.bounds[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-float64(prev))/float64(c)
	}
	return h.bounds[len(h.bounds)-1]
}

// Histogram is a fixed-bucket distribution handle. Nil-safe.
type Histogram struct{ s *series }

// Histogram registers (or fetches) a histogram series. buckets are the
// ascending upper bounds (nil selects DefBuckets); the bounds of the
// first registration win for the whole family.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) Histogram {
	if r == nil {
		return Histogram{}
	}
	f := r.getFamily(name, help, KindHistogram, buckets)
	return Histogram{s: f.getSeries(formatLabels(labels))}
}

// Observe records one sample.
func (h Histogram) Observe(v float64) {
	if h.s == nil || h.s.h == nil {
		return
	}
	h.s.h.observe(v)
}

// Quantile estimates the q-quantile of the recorded distribution.
func (h Histogram) Quantile(q float64) float64 {
	if h.s == nil || h.s.h == nil {
		return 0
	}
	return h.s.h.quantile(q)
}

// Count returns the number of recorded samples.
func (h Histogram) Count() int64 {
	if h.s == nil || h.s.h == nil {
		return 0
	}
	return h.s.h.count.Load()
}

// value reads a scalar series (counter or gauge).
func (s *series) value(kind Kind) float64 {
	if kind == KindCounter {
		return float64(s.ival.Load())
	}
	return math.Float64frombits(s.fbits.Load())
}

// families returns a stable copy of the family list for rendering.
func (r *Registry) families() []*family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*family(nil), r.order...)
}

func (f *family) seriesList() []*series {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*series(nil), f.order...)
}

// Snapshot returns the registry's current state as a JSON-ready map:
// family name -> {type, help, series: [{labels, value}]} for scalars,
// with histograms carrying count, sum, and the p50/p95/p99 estimates.
// It is what the debug server's /status endpoint serves.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	for _, f := range r.families() {
		var rows []map[string]any
		for _, s := range f.seriesList() {
			row := map[string]any{}
			if s.labels != "" {
				row["labels"] = s.labels
			}
			if f.kind == KindHistogram {
				_, count, sum := s.h.snapshot()
				row["count"] = count
				row["sum"] = sum
				row["p50"] = s.h.quantile(0.50)
				row["p95"] = s.h.quantile(0.95)
				row["p99"] = s.h.quantile(0.99)
			} else {
				row["value"] = s.value(f.kind)
			}
			rows = append(rows, row)
		}
		out[f.name] = map[string]any{
			"type":   f.kind.String(),
			"help":   f.help,
			"series": rows,
		}
	}
	return out
}

// formatValue renders a sample the way the Prometheus text format
// expects: shortest float representation, +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
