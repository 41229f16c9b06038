package experiments

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// Golden tests freeze the deterministic headline numbers of the
// reproduction (EXPERIMENTS.md) so refactors cannot silently change the
// recorded results. Tolerances are tight but not bit-exact, to allow
// floating-point-neutral reorderings.

// The figures both a golden test and a shape test read, computed once per
// test binary. Fig6 and Table1 raise the default N = 20,000 to 50,000, and
// Fig7 defaults to it.
var (
	fig6   = sync.OnceValue(func() []ScalePoint { return Fig6(Params{Seed: 42}) })
	table1 = sync.OnceValue(func() []GPUPoint { return Table1(Params{Seed: 42}) })
	fig7   = sync.OnceValues(func() (HeteroCurve, []HeteroCurve) { return Fig7(Params{Seed: 42}) })
)

func approx(t *testing.T, name string, got, want, rtol float64) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Errorf("%s: got %v want 0", name, got)
		}
		return
	}
	if r := (got - want) / want; r > rtol || r < -rtol {
		t.Errorf("%s: got %v want %v (rel %+.3f)", name, got, want, r)
	}
}

func TestGoldenFig6(t *testing.T) {
	pts := fig6()
	by := map[int]ScalePoint{}
	for _, pt := range pts {
		by[pt.Cores] = pt
	}
	approx(t, "speedup@2", by[2].Speedup, 2.01, 0.02)
	approx(t, "speedup@16", by[16].Speedup, 16.99, 0.02)
	approx(t, "speedup@32", by[32].Speedup, 25.06, 0.02)
}

func TestGoldenTable1(t *testing.T) {
	pts := table1()
	approx(t, "gpu2", pts[1].Speedup, 1.98, 0.03)
	approx(t, "gpu3", pts[2].Speedup, 2.93, 0.03)
	approx(t, "gpu4", pts[3].Speedup, 3.68, 0.03)
}

func TestGoldenFig4Regimes(t *testing.T) {
	pts := Fig4(Params{N: 20000, Seed: 42})
	r := AnalyzeUniformGap(pts)
	if want := []int{5, 4, 3, 2}; fmt.Sprint(r.Depths) != fmt.Sprint(want) {
		t.Errorf("regime depths %v, want %v", r.Depths, want)
	}
	if r.MaxSmooth != 0 {
		t.Errorf("within-regime variation %v, want 0", r.MaxSmooth)
	}
	approx(t, "gap jump", r.MaxJump, 2.21, 0.05)
}

func TestGoldenFig7(t *testing.T) {
	if testing.Short() {
		t.Skip("N=50000 sweep; skipped with -short")
	}
	serial, curves := fig7()
	approx(t, "serial best", serial.BestTime, 2.1011, 0.02)
	want := map[string]float64{
		"4C_1G": 16.0, "10C_1G": 22.2, "4C_2G": 25.0,
		"10C_2G": 36.8, "4C_4G": 37.5, "10C_4G": 48.9,
	}
	for _, c := range curves {
		approx(t, "speedup "+c.Label, c.BestSpeedup, want[c.Label], 0.03)
	}
}

func TestGoldenSweepRendersStably(t *testing.T) {
	// A textual spot check: the fig3 sweep at the default seed keeps its
	// leaf counts (pure tree structure, no timing involved).
	pts := Fig3(Params{N: 20000, Seed: 42})
	var b strings.Builder
	for _, pt := range pts {
		fmt.Fprintf(&b, "%d:%d ", pt.S, pt.Leaves)
	}
	got := strings.TrimSpace(b.String())
	const want = "4:11414 6:8961 8:7305 12:5196 16:4078 24:2924 32:2262 " +
		"48:1591 64:1207 96:822 128:676 192:557 256:466 384:329 512:271 " +
		"768:190 1024:148 1536:110 2048:96"
	if got != want {
		t.Errorf("fig3 leaf counts changed:\ngot  %s\nwant %s", got, want)
	}
}
