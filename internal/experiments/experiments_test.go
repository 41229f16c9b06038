package experiments

import (
	"testing"
)

// Small-N smoke versions of every experiment asserting the paper's shape
// claims. The benchmarks and cmd/afmm-bench run the full-size versions.

func smallParams() Params {
	return Params{N: 4000, Seed: 42, Steps: 40, Dt: 2e-4, GPUs: 2}
}

func TestFig3Gradual(t *testing.T) {
	pts := Fig3(Params{N: 8000, Seed: 42})
	if len(pts) < 10 {
		t.Fatalf("only %d sweep points", len(pts))
	}
	// CPU cost must decrease monotonically (within tolerance) with S.
	for i := 1; i < len(pts); i++ {
		if pts[i].CPU > pts[i-1].CPU*1.10 {
			t.Fatalf("CPU cost rose sharply at S=%d: %v -> %v",
				pts[i].S, pts[i-1].CPU, pts[i].CPU)
		}
	}
	// There must be a regime change: CPU dominates at small S, GPU at
	// large S.
	if pts[0].CPU < pts[0].GPU {
		t.Fatalf("expected CPU-bound at S=%d", pts[0].S)
	}
	last := pts[len(pts)-1]
	if last.GPU < last.CPU {
		t.Fatalf("expected GPU-bound at S=%d", last.S)
	}
}

func TestFig4ShowsRegimes(t *testing.T) {
	pts := Fig4(Params{N: 8000, Seed: 42})
	r := AnalyzeUniformGap(pts)
	if len(r.Depths) < 2 {
		t.Fatalf("uniform sweep saw depths %v, want >= 2 regimes", r.Depths)
	}
	// The regime-boundary jump must dwarf the within-regime steps (the
	// Uniform Gap).
	if r.MaxJump < 0.3 {
		t.Fatalf("regime jump only %.0f%%", 100*r.MaxJump)
	}
}

func TestFig6Shape(t *testing.T) {
	pts := fig6()
	byCores := map[int]ScalePoint{}
	for _, pt := range pts {
		byCores[pt.Cores] = pt
	}
	if byCores[1].Speedup != 1 {
		t.Fatalf("speedup(1) = %v", byCores[1].Speedup)
	}
	if s := byCores[16].Speedup; s < 12 || s > 18 {
		t.Fatalf("speedup(16) = %v, want near-linear", s)
	}
	if byCores[32].Speedup < byCores[16].Speedup {
		t.Fatal("speedup regressed from 16 to 32 cores")
	}
	// Diminishing returns: the 16->32 gain is clearly sublinear.
	if byCores[32].Speedup > byCores[16].Speedup*1.8 {
		t.Fatalf("no saturation: s16=%v s32=%v",
			byCores[16].Speedup, byCores[32].Speedup)
	}
}

func TestTable1NearLinear(t *testing.T) {
	pts := table1()
	if len(pts) != 4 {
		t.Fatalf("%d rows", len(pts))
	}
	if pts[0].Speedup != 1 {
		t.Fatalf("1-GPU speedup %v", pts[0].Speedup)
	}
	if s := pts[1].Speedup; s < 1.6 || s > 2.05 {
		t.Fatalf("2-GPU speedup %v, want ~2", s)
	}
	if s := pts[3].Speedup; s < 2.8 || s > 4.1 {
		t.Fatalf("4-GPU speedup %v, want ~4", s)
	}
}

func TestFig7Ordering(t *testing.T) {
	// Basic shape at small N: substantial heterogeneous speedups, the
	// 10C_4G configuration on top, and more cores never hurting. The
	// starved-CPU effect (10C_2G keeping up with 4C_4G despite half the
	// GPUs) requires the linear interaction regime, i.e. the default
	// N = 50,000 (see DESIGN.md scaling note).
	var curves []HeteroCurve
	if testing.Short() {
		_, curves = Fig7(Params{N: 8000, Seed: 42})
	} else {
		_, curves = fig7()
	}
	best := map[string]float64{}
	for _, c := range curves {
		best[c.Label] = c.BestSpeedup
		if c.BestSpeedup <= 1 {
			t.Fatalf("%s: speedup %v not above serial", c.Label, c.BestSpeedup)
		}
	}
	if best["10C_4G"] < best["10C_2G"] || best["10C_4G"] < best["4C_4G"] {
		t.Fatalf("10C_4G (%.1f) is not the peak: %v", best["10C_4G"], best)
	}
	if best["10C_1G"] < best["4C_1G"] || best["10C_2G"] < best["4C_2G"] {
		t.Fatalf("more cores hurt: %v", best)
	}
	if !testing.Short() {
		// The paper's §VIII.E comparison: ten cores with two GPUs keep
		// up with (paper: beat) four cores with four GPUs.
		if best["10C_2G"] < best["4C_4G"]*0.9 {
			t.Fatalf("10C_2G (%.1f) far behind 4C_4G (%.1f)",
				best["10C_2G"], best["4C_4G"])
		}
		// And the peak heterogeneous speedup is in the tens.
		if best["10C_4G"] < 20 {
			t.Fatalf("peak speedup only %.1f", best["10C_4G"])
		}
	}
}

func TestFig8StrategiesProduceRecords(t *testing.T) {
	p := smallParams()
	runs := Fig8(p)
	if len(runs) != 3 {
		t.Fatalf("%d strategy runs", len(runs))
	}
	for _, r := range runs {
		if len(r.Result.Records) != p.Steps {
			t.Fatalf("%s: %d records", r.Name, len(r.Result.Records))
		}
	}
	rows := Table2(runs)
	var fullLB float64
	for _, row := range rows {
		if row.Strategy == "strategy3-full" {
			if row.RelCostPerStep != 1 {
				t.Fatalf("full strategy rel cost %v, want 1", row.RelCostPerStep)
			}
			fullLB = row.LBPercent
		}
	}
	if fullLB <= 0 || fullLB > 30 {
		t.Fatalf("full strategy LB%% = %v", fullLB)
	}
}

func TestFig10ProducesRatios(t *testing.T) {
	p := Params{N: 3000, Seed: 42, Steps: 30, Dt: 1e-3, GPUs: 1}
	pts, mean := Fig10(p)
	if len(pts) != 30 {
		t.Fatalf("%d ratio points", len(pts))
	}
	if mean <= 0.5 || mean > 3 {
		t.Fatalf("mean ratio %v implausible", mean)
	}
}

func TestDynamicWorkloadCompressed(t *testing.T) {
	p := Params{N: 1000, Seed: 1}
	p.setDefaults()
	sys := DynamicWorkload(p)
	var maxR float64
	for i := range sys.Pos {
		if r := sys.Pos[i].Norm(); r > maxR {
			maxR = r
		}
	}
	if maxR > 10 {
		t.Fatalf("dynamic workload not compressed: rmax=%v", maxR)
	}
}
