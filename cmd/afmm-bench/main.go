// Command afmm-bench regenerates the tables and figures of the paper's
// evaluation on the simulated heterogeneous machine and prints the same
// rows/series the paper reports.
//
// Usage:
//
//	afmm-bench [flags] <experiment>
//
// where experiment is one of: fig3 fig4 fig6 table1 fig7 fig8 fig9 table2
// fig10 all, or cluster (the distributed-memory extension, not part of
// all). Absolute times are virtual-machine seconds; the reproduction target
// is the shape of each result (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"afmm/internal/experiments"
	"afmm/internal/sphharm"
	"afmm/internal/telemetry"
)

func main() {
	var p experiments.Params
	flag.IntVar(&p.N, "n", 0, "body count (0 = experiment default)")
	flag.Int64Var(&p.Seed, "seed", 42, "random seed")
	flag.IntVar(&p.P, "p", 4, "expansion order for timing experiments")
	flag.IntVar(&p.Cores, "cores", 10, "virtual CPU cores")
	flag.IntVar(&p.GPUs, "gpus", 0, "simulated GPUs (0 = experiment default)")
	flag.Float64Var(&p.GPUScale, "gpuscale", 0, "device throughput derating (0 = default 1/64)")
	flag.IntVar(&p.Steps, "steps", 0, "time steps for dynamic experiments (0 = default)")
	flag.Float64Var(&p.Dt, "dt", 0, "time step size (0 = default)")
	csv := flag.Bool("csv", false, "emit raw CSV instead of tables")
	tel := telemetry.RegisterFlags(flag.CommandLine, "one line per step of the dynamic experiments' headline run")
	flag.Parse()
	if p.P < 1 || p.P > sphharm.MaxOrder {
		fmt.Fprintf(os.Stderr, "-p %d: the expansion order must be in [1, %d]\n", p.P, sphharm.MaxOrder)
		os.Exit(2)
	}
	rec, err := tel.Open(false)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer tel.Close()
	p.Rec = rec

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: afmm-bench [flags] fig3|fig4|fig6|table1|fig7|fig8|fig9|table2|fig10|all|cluster")
		os.Exit(2)
	}
	which := strings.ToLower(flag.Arg(0))
	run := func(name string, f func(experiments.Params, bool)) {
		if which == name || which == "all" {
			fmt.Printf("==== %s ====\n", strings.ToUpper(name))
			f(p, *csv)
			fmt.Println()
		}
	}
	known := map[string]bool{"fig3": true, "fig4": true, "fig6": true,
		"table1": true, "fig7": true, "fig8": true, "fig9": true,
		"table2": true, "fig10": true, "cluster": true, "all": true}
	if !known[which] {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", which)
		os.Exit(2)
	}

	run("fig3", runFig3)
	run("fig4", runFig4)
	run("fig6", runFig6)
	run("table1", runTable1)
	run("fig7", runFig7)
	// fig8/fig9/table2 share one simulation set.
	if which == "fig8" || which == "fig9" || which == "table2" || which == "all" {
		runs := experiments.Fig8(p)
		if which == "fig8" || which == "all" {
			fmt.Println("==== FIG8 (per-step total time, three strategies) ====")
			printFig8(runs, *csv)
			fmt.Println()
		}
		if which == "fig9" || which == "all" {
			fmt.Println("==== FIG9 (S value per step, three strategies) ====")
			printFig9(runs, *csv)
			fmt.Println()
		}
		if which == "table2" || which == "all" {
			fmt.Println("==== TABLE II (strategy summary) ====")
			printTable2(runs)
			fmt.Println()
		}
	}
	run("fig10", runFig10)
	if which == "cluster" { // extension experiment; not part of "all"
		fmt.Println("==== CLUSTER (distributed-memory extension, strong scaling) ====")
		runCluster(p)
	}
}

func runCluster(p experiments.Params) {
	pts := experiments.Cluster(p, 16)
	fmt.Printf("%6s %12s %12s %12s %12s %10s"+"\n",
		"nodes", "step[s]", "compute[s]", "comm[s]", "KiB", "imbalance")
	for _, pt := range pts {
		fmt.Printf("%6d %12.6f %12.6f %12.6f %12.1f %10.2f"+"\n",
			pt.Nodes, pt.StepTime, pt.MaxCompute, pt.CommTime,
			float64(pt.Bytes)/1024, pt.Imbalance)
	}
}

func runFig3(p experiments.Params, csv bool) {
	pts := experiments.Fig3(p)
	fmt.Println("Adaptive decomposition: CPU/GPU virtual cost vs S (gradual)")
	printSweep(pts, csv)
}

func runFig4(p experiments.Params, csv bool) {
	pts := experiments.Fig4(p)
	fmt.Println("Uniform decomposition: cost vs S (discrete regimes = Uniform Gap)")
	printSweep(pts, csv)
	r := experiments.AnalyzeUniformGap(pts)
	fmt.Printf("regimes (tree depths): %v\n", r.Depths)
	fmt.Printf("largest relative jump at a regime boundary: %.0f%%\n", 100*r.MaxJump)
	fmt.Printf("largest relative step within a regime:      %.0f%%\n", 100*r.MaxSmooth)
}

func printSweep(pts []experiments.SweepPoint, csv bool) {
	if csv {
		fmt.Println("S,cpu,gpu,compute,gpueff,leaves,depth")
		for _, pt := range pts {
			fmt.Printf("%d,%.6g,%.6g,%.6g,%.4f,%d,%d\n",
				pt.S, pt.CPU, pt.GPU, pt.Compute, pt.GPUEff, pt.Leaves, pt.Depth)
		}
		return
	}
	fmt.Printf("%6s %12s %12s %12s %8s %8s %6s\n",
		"S", "CPU[s]", "GPU[s]", "compute[s]", "GPUeff", "leaves", "depth")
	for _, pt := range pts {
		fmt.Printf("%6d %12.6f %12.6f %12.6f %8.3f %8d %6d\n",
			pt.S, pt.CPU, pt.GPU, pt.Compute, pt.GPUEff, pt.Leaves, pt.Depth)
	}
}

func runFig6(p experiments.Params, csv bool) {
	pts := experiments.Fig6(p)
	fmt.Println("CPU speedup vs cores (Plummer, fixed S, task-schedule replay)")
	if csv {
		fmt.Println("cores,time,speedup,eff")
	} else {
		fmt.Printf("%6s %12s %10s %8s\n", "cores", "time[s]", "speedup", "taskeff")
	}
	for _, pt := range pts {
		if csv {
			fmt.Printf("%d,%.6g,%.3f,%.3f\n", pt.Cores, pt.Time, pt.Speedup, pt.TaskEff)
		} else {
			fmt.Printf("%6d %12.6f %10.2f %8.3f\n", pt.Cores, pt.Time, pt.Speedup, pt.TaskEff)
		}
	}
}

func runTable1(p experiments.Params, csv bool) {
	pts := experiments.Table1(p)
	fmt.Println("GPU scaling for a fixed workload (S fixed at the 10C+1G optimum)")
	fmt.Printf("%6s %14s %10s %12s\n", "GPUs", "GPU time[s]", "speedup", "imbalance")
	for _, pt := range pts {
		fmt.Printf("%6d %14.6f %10.2f %12.3f\n", pt.GPUs, pt.GPUTime, pt.Speedup, pt.Imbalance)
	}
}

func runFig7(p experiments.Params, csv bool) {
	serial, curves := experiments.Fig7(p)
	fmt.Printf("Heterogeneous speedup vs S (baseline: %s, best %.4fs at S=%d)\n",
		serial.Label, serial.BestTime, serial.BestS)
	fmt.Printf("%-8s %8s %10s %12s\n", "config", "bestS", "best[s]", "speedup")
	for _, c := range curves {
		fmt.Printf("%-8s %8d %10.5f %12.1fx\n", c.Label, c.BestS, c.BestTime, c.BestSpeedup)
	}
	if csv {
		fmt.Println("config,S,cpu,gpu,compute,speedup")
		for _, c := range curves {
			for _, pt := range c.Points {
				fmt.Printf("%s,%d,%.6g,%.6g,%.6g,%.3f\n",
					c.Label, pt.S, pt.CPU, pt.GPU, pt.Compute, serial.BestTime/pt.Compute)
			}
		}
	}
}

func printFig8(runs []experiments.StrategyRun, csv bool) {
	if csv {
		fmt.Println("step,strategy,total,compute,lb")
		for _, r := range runs {
			for _, rec := range r.Result.Records {
				fmt.Printf("%d,%s,%.6g,%.6g,%.6g\n", rec.Step, r.Name, rec.Total, rec.Compute, rec.LBTime)
			}
		}
		return
	}
	// Compact text rendering: per-strategy mean over windows of steps.
	const cols = 10
	n := len(runs[0].Result.Records)
	w := (n + cols - 1) / cols
	fmt.Printf("%-18s", "steps:")
	for lo := 0; lo < n; lo += w {
		hi := lo + w
		if hi > n {
			hi = n
		}
		fmt.Printf(" %9s", fmt.Sprintf("%d-%d", lo, hi-1))
	}
	fmt.Println()
	for _, r := range runs {
		fmt.Printf("%-18s", r.Name)
		for lo := 0; lo < n; lo += w {
			hi := lo + w
			if hi > n {
				hi = n
			}
			var sum float64
			for i := lo; i < hi; i++ {
				sum += r.Result.Records[i].Total
			}
			fmt.Printf(" %9.5f", sum/float64(hi-lo))
		}
		fmt.Println()
	}
}

func printFig9(runs []experiments.StrategyRun, csv bool) {
	if csv {
		fmt.Println("step,strategy,S")
		for _, r := range runs {
			for _, rec := range r.Result.Records {
				fmt.Printf("%d,%s,%d\n", rec.Step, r.Name, rec.S)
			}
		}
		return
	}
	const cols = 10
	n := len(runs[0].Result.Records)
	w := (n + cols - 1) / cols
	fmt.Printf("%-18s", "steps:")
	for lo := 0; lo < n; lo += w {
		hi := lo + w
		if hi > n {
			hi = n
		}
		fmt.Printf(" %7s", fmt.Sprintf("%d-%d", lo, hi-1))
	}
	fmt.Println()
	for _, r := range runs {
		fmt.Printf("%-18s", r.Name)
		for lo := 0; lo < n; lo += w {
			hi := lo + w
			if hi > n {
				hi = n
			}
			var sum int
			for i := lo; i < hi; i++ {
				sum += r.Result.Records[i].S
			}
			fmt.Printf(" %7d", sum/(hi-lo))
		}
		fmt.Println()
	}
}

func printTable2(runs []experiments.StrategyRun) {
	rows := experiments.Table2(runs)
	fmt.Printf("%-18s %14s %12s %10s %10s\n",
		"strategy", "total compute", "total LB", "LB%", "rel/step")
	for _, r := range rows {
		fmt.Printf("%-18s %14.4f %12.4f %9.2f%% %10.2f\n",
			r.Strategy, r.TotalCompute, r.TotalLB, r.LBPercent, r.RelCostPerStep)
	}
	// The paper's spike statistic: how many of strategy 3's steps exceed
	// strategy 2's per-step average (paper: 34 of 2000).
	var s2avg float64
	var s3 experiments.StrategyRun
	for _, r := range runs {
		switch r.Name {
		case "strategy2-enforce":
			s2avg = r.Result.MeanTotalPerStep()
		case "strategy3-full":
			s3 = r
		}
	}
	if s2avg > 0 && len(s3.Result.Records) > 0 {
		fmt.Printf("strategy-3 steps above strategy-2 average: %d of %d\n",
			experiments.SpikeCount(s3.Result, s2avg), len(s3.Result.Records))
	}
}

func runFig10(p experiments.Params, csv bool) {
	pts, mean := experiments.Fig10(p)
	fmt.Println("Stokes problem, uniform sources: total(no FGO)/total(FGO) per step")
	if csv {
		fmt.Println("step,ratio")
		for _, pt := range pts {
			fmt.Printf("%d,%.4f\n", pt.Step, pt.Ratio)
		}
	} else {
		const cols = 10
		n := len(pts)
		w := (n + cols - 1) / cols
		for lo := 0; lo < n; lo += w {
			hi := lo + w
			if hi > n {
				hi = n
			}
			var sum float64
			for i := lo; i < hi; i++ {
				sum += pts[i].Ratio
			}
			fmt.Printf("steps %4d-%4d: mean ratio %.4f\n", lo, hi-1, sum/float64(hi-lo))
		}
	}
	fmt.Printf("mean advantage after step 15: %.2f%% (paper: ~3%%)\n", 100*(mean-1))
}
