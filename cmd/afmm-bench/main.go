// Command afmm-bench regenerates the tables and figures of the paper's
// evaluation on the simulated heterogeneous machine and prints the same
// rows/series the paper reports.
//
// Usage:
//
//	afmm-bench [flags] <experiment>
//
// where experiment is one of: fig3 fig4 fig6 table1 fig7 fig8 fig9 table2
// fig10 all. Absolute times are virtual-machine seconds; the reproduction
// target is the shape of each result (see EXPERIMENTS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"afmm/internal/experiments"
	"afmm/internal/metrics"
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
	traceFile := flag.String("trace", "", "write the telemetry JSONL trace of the dynamic experiments' headline run to this file")
	metricsAddr := flag.String("metrics-addr", "", "serve the live dashboard, Prometheus /metrics and /status on this address while the dynamic experiments run")
	flightDir := flag.String("flightrec", "", "keep a flight-recorder ring of the headline run's last 32 steps and dump it into this directory on faults and sentinel anomalies")
	flag.Parse()
	if *traceFile != "" {
		tf, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer tf.Close()
		p.Trace = tf
	}
	if *metricsAddr != "" || *flightDir != "" {
		opts := telemetry.Options{JSONL: p.Trace, Sentinel: &telemetry.SentinelConfig{}}
		p.Trace = nil // the recorder owns the JSONL sink now
		if *metricsAddr != "" {
			opts.Metrics = metrics.NewRegistry()
		}
		opts.Flight = telemetry.NewFlightRecorder(0, *flightDir)
		p.Rec = telemetry.New(opts)
		if *metricsAddr != "" {
			d, err := telemetry.StartDebug(*metricsAddr, p.Rec)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "debug server (dashboard, /metrics, /status, pprof) on http://%s/\n", d.Addr())
		}
	}
	pSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "p" {
			pSet = true
		}
	})

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: afmm-bench [flags] fig3|fig4|fig6|table1|fig7|fig8|fig9|table2|fig10|all|cluster|lists|telemetry|faults|kernels|dmem|netfaults")
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
		"table2": true, "fig10": true, "cluster": true,
		"lists": true, "telemetry": true, "faults": true,
		"kernels": true, "dmem": true, "netfaults": true,
		"all": true}
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
	if which == "lists" { // host wall-clock benchmark; not part of "all"
		fmt.Println("==== LISTS (persistent interaction lists, cached vs from-scratch) ====")
		runLists(p)
	}
	if which == "telemetry" { // host wall-clock benchmark; not part of "all"
		fmt.Println("==== TELEMETRY (step-trace recorder overhead and coverage) ====")
		runTelemetry(p)
	}
	if which == "faults" { // resilience benchmark; not part of "all"
		fmt.Println("==== FAULTS (device fault injection: detection, recovery, degradation) ====")
		runFaults(p)
	}
	if which == "kernels" { // host wall-clock benchmark; not part of "all"
		fmt.Println("==== KERNELS (M2L class table, packed P2P) ====")
		runKernels(p, pSet)
	}
	if which == "dmem" { // distributed-runtime benchmark; not part of "all"
		fmt.Println("==== DMEM (virtual-node scaling, cost-driven repartitioning, executed runtime) ====")
		runDmem(p)
	}
	if which == "netfaults" { // resilience benchmark; not part of "all"
		fmt.Println("==== NETFAULTS (lossy links: delivery rate, retry overhead, failure detection) ====")
		runNetFaults(p)
	}
}

// runNetFaults drives the executed runtime through escalating link-fault
// schedules and both failure detectors, and writes the machine-readable
// BENCH_netfaults.json. The acceptance targets are bit-identity on every
// scenario (faults cost throughput, never values) and a measured
// heartbeat detection latency at the same order as its suspicion window.
func runNetFaults(p experiments.Params) {
	res := experiments.NetFaults(p)
	fmt.Printf("cluster: Plummer N=%d, P=%d, %d nodes, %d steps (host cores: %d)\n",
		res.N, res.P, res.Nodes, res.Steps, res.HostCores)
	fmt.Printf("%-16s %9s %9s %9s %9s %9s %10s %8s %5s\n",
		"scenario", "frames", "dropped", "delivrate", "retries", "timeouts", "recoveries", "slowdown", "exact")
	for _, sc := range res.Scenarios {
		fmt.Printf("%-16s %9d %9d %9.3f %9d %9d %10d %7.2fx %5v\n",
			sc.Name, sc.FramesSent, sc.FramesDropped, sc.DeliveredRate,
			sc.Retries, sc.Timeouts, sc.Recoveries, sc.Slowdown, sc.BitIdentical)
	}
	fmt.Printf("detection: oracle (modeled) %.3f ms, heartbeat (measured) %.3f ms over a %.3f ms suspicion window, exact=%v\n",
		1e3*res.Detection.OracleSec, 1e3*res.Detection.HeartbeatSec,
		1e3*res.Detection.WindowSec, res.Detection.BitIdentical)
	b, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		err = os.WriteFile("BENCH_netfaults.json", b, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "BENCH_netfaults.json: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("wrote BENCH_netfaults.json")
}

// runKernels benchmarks the raw translation and P2P kernels on the host
// (single core) and writes the machine-readable BENCH_kernels.json: the
// class table against its uncached reference form and the per-pair
// rotated operator, and the packed P2P against the scalar reference.
func runKernels(p experiments.Params, pSet bool) {
	if !pSet {
		// The kernels under test are the accuracy-grade rotation path, so
		// default to order 8 rather than the cost-model default.
		p.P = 8
	}
	res := experiments.Kernels(p)
	fmt.Printf("workload: Plummer N=%d, S=%d, P=%d — %d M2L pairs, %d classes, %d Wigner stacks (%.1f%% pair coverage), table build %.1f ms\n",
		res.N, res.S, res.P, res.M2LPairs, res.M2LClasses, res.M2LRotations,
		100*res.M2LRotCoverage, float64(res.TableBuildNs)/1e6)
	fmt.Printf("%-34s %12.1f ns/translation\n", "M2L class table", res.M2LNsTable)
	fmt.Printf("%-34s %12.1f ns/translation\n", "M2L uncached reference (M2LBatch)", res.M2LNsReference)
	fmt.Printf("%-34s %12.1f ns/translation\n", "M2L per-pair rotation", res.M2LNsDirect)
	fmt.Printf("%-34s %12.2fx vs reference, %.2fx vs per-pair rotation\n",
		"M2L table speedup", res.M2LSpeedupVsReference, res.M2LSpeedupVsDirect)
	fmt.Printf("P2P call shape: %d targets x %d sources\n", res.P2PTargets, res.P2PSources)
	fmt.Printf("%-34s %12.1f Mpairs/s (packed) %10.1f (scalar): %.2fx packed\n",
		"gravity", res.GravPairRatePacked/1e6, res.GravPairRateScalar/1e6, res.GravPackedSpeedup)
	fmt.Printf("%-34s %12.1f Mpairs/s (packed) %10.1f (scalar): %.2fx packed\n",
		"stokeslet", res.StokesPairRatePacked/1e6, res.StokesPairRateScalar/1e6, res.StokesPackedSpeedup)
	fmt.Printf("%-34s %12.3f ms/step (table) vs %.3f ms/step (no table): %.3fx over %d steps\n",
		"end-to-end step, 1 worker", float64(res.StepNsTable)/1e6,
		float64(res.StepNsNoTable)/1e6, res.EndToEndSpeedup, res.EndToEndSteps)
	b, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		err = os.WriteFile("BENCH_kernels.json", b, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "BENCH_kernels.json: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("wrote BENCH_kernels.json")
}

// runFaults drives every fault class through a paired fault-free/faulted
// simulation and writes the machine-readable BENCH_faults.json: per-class
// detection latency, recovery overhead and degraded throughput, the
// checkpoint-restore path, and the balancer's reaction to a device loss.
func runFaults(p experiments.Params) {
	res := experiments.Faults(p)
	fmt.Printf("trajectory: Plummer N=%d, S=%d, P=%d, %d GPUs, %d steps, fault at step %d\n",
		res.N, res.S, res.P, res.GPUs, res.Steps, res.FaultStep)
	fmt.Printf("%-10s %5s %9s %11s %11s %10s %6s %8s %8s\n",
		"class", "ident", "detect", "recov-over", "throughput", "fallback", "dead", "retries", "recov")
	for _, c := range res.Cases {
		ident := "yes"
		if !c.BitIdentical {
			ident = "NO"
		}
		fmt.Printf("%-10s %5s %7.1fms %9.1fms %11.3f %7drow %6d %8d %8d\n",
			c.Name, ident, float64(c.DetectNs)/1e6, float64(c.RecoveryOverheadNs)/1e6,
			c.DegradedThroughput, c.FallbackRows, c.DeadDevices,
			c.TransientRetries, c.Recoveries)
	}
	fmt.Printf("restore path (%s): %d recoveries, %d checkpoints, bit-identical=%v, overhead %.1fms\n",
		res.Recovery.Spec, res.Recovery.Recoveries, res.Recovery.Checkpoints,
		res.Recovery.BitIdentical, float64(res.Recovery.OverheadNs)/1e6)
	fmt.Printf("balancer (full strategy): S %d -> %d, capacity drop %.0f%%, search re-entered=%v, alive devices %d\n",
		res.Balancer.SPreFault, res.Balancer.SFinal, 100*res.Balancer.CapacityDropFrac,
		res.Balancer.SearchReentered, res.Balancer.AliveDevices)
	b, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		err = os.WriteFile("BENCH_faults.json", b, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "BENCH_faults.json: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("wrote BENCH_faults.json")
}

// runTelemetry benchmarks the enabled step tracer against untraced solver
// steps (host wall clock) and writes the machine-readable
// BENCH_telemetry.json. The acceptance target is overhead < 2%.
func runTelemetry(p experiments.Params) {
	res := experiments.Telemetry(p)
	fmt.Printf("trajectory: Plummer N=%d, S=%d, %d steps each variant\n", res.N, res.S, res.Steps)
	fmt.Printf("%-34s %12.3f ms/step\n", "solver step (tracing off)", float64(res.StepNsOff)/1e6)
	fmt.Printf("%-34s %12.3f ms/step\n", "solver step (tracing on)", float64(res.StepNsOn)/1e6)
	fmt.Printf("%-34s %12.3f ms/step\n", "solver step (metrics+flight)", float64(res.StepNsMetrics)/1e6)
	fmt.Printf("%-34s %+12.3f%% (target < 2%%)\n", "tracing overhead", 100*res.OverheadFrac)
	fmt.Printf("%-34s %+12.3f%% (target < 2%%)\n", "metrics+flight overhead", 100*res.MetricsOverheadFrac)
	fmt.Printf("%-34s %12.1f ns/sample\n", "histogram observe", res.HistObserveNs)
	fmt.Printf("%-34s %12.1f%% of step wall clock\n", "phase-span coverage", 100*res.PhaseCoverage)
	fmt.Printf("%-34s %12.1f spans, %d JSONL bytes\n", "per step", res.SpansPerStep, res.BytesPerStep)
	b, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		err = os.WriteFile("BENCH_telemetry.json", b, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "BENCH_telemetry.json: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("wrote BENCH_telemetry.json")
}

// runLists benchmarks interaction-list maintenance and end-to-end solver
// steps on the host (wall clock, not the virtual machine) and writes the
// machine-readable BENCH_lists.json.
func runLists(p experiments.Params) {
	res := experiments.Lists(p)
	fmt.Printf("trajectory: Plummer N=%d, S=%d, %d steps\n", res.N, res.S, res.Steps)
	fmt.Printf("%-34s %12.3f ms/step\n", "list maintenance (cached)",
		float64(res.EnsureNsPerStep)/1e6)
	fmt.Printf("%-34s %12.3f ms/step\n", "list build (from scratch)",
		float64(res.ScratchNsPerStep)/1e6)
	fmt.Printf("%-34s %12.4f (target <= 0.10)\n", "maintenance ratio", res.MaintenanceRatio)
	fmt.Printf("cache activity: %d full builds, %d repairs, %d skips; "+
		"pair visits %d vs %d from scratch\n",
		res.FullBuilds, res.Repairs, res.Skips, res.CachedPairs, res.ScratchPairs)
	fmt.Printf("%-34s %12.3f ms/step\n", "solver step (cached lists)",
		float64(res.StepNsCached)/1e6)
	fmt.Printf("%-34s %12.3f ms/step\n", "solver step (from-scratch lists)",
		float64(res.StepNsScratch)/1e6)
	fmt.Printf("end-to-end speedup: %.3fx over %d steps "+
		"(list build is %.1f%% of a from-scratch step)\n",
		res.EndToEndSpeedup, res.EndToEndSteps, 100*res.ListShareScratch)
	b, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		err = os.WriteFile("BENCH_lists.json", b, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "BENCH_lists.json: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("wrote BENCH_lists.json")
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

// runDmem benchmarks the distributed-memory layer: strong/weak scaling
// of the priced decomposition over 1-64 virtual nodes, cost-driven
// repartitioning vs static equal-count ranges on a skewed distribution,
// and a bit-identity acceptance run of the executing goroutine-node
// runtime under an injected node loss. Writes BENCH_dmem.json.
func runDmem(p experiments.Params) {
	res := experiments.Dmem(p)
	fmt.Printf("Plummer N=%d, P=%d, weak scaling at %d bodies/node (host cores: %d)\n",
		res.N, res.P, res.NPerNode, res.HostCores)
	scale := func(title string, pts []experiments.DmemScalePoint) {
		fmt.Printf("---- %s ----\n", title)
		fmt.Printf("%6s %9s %12s %9s %10s %12s %8s\n",
			"nodes", "N", "step (s)", "speedup", "imbalance", "comm bytes", "hidden")
		for _, pt := range pts {
			fmt.Printf("%6d %9d %12.4e %9.2f %10.3f %12d %7.1f%%\n",
				pt.Nodes, pt.NTotal, pt.StepTime, pt.Speedup,
				pt.Imbalance, pt.CommBytes, 100*pt.HiddenFrac)
		}
	}
	scale("strong scaling (fixed total N)", res.Strong)
	scale("weak scaling (fixed N per node)", res.Weak)
	sk := res.Skew
	fmt.Printf("---- skewed two-cluster run (N=%d, %d nodes, %d steps) ----\n",
		sk.N, sk.Nodes, sk.Steps)
	fmt.Printf("%-34s %12.4e s (final imbalance %.3f)\n", "static equal-count ranges", sk.StaticTime, sk.StaticImbalance)
	fmt.Printf("%-34s %12.4e s (final imbalance %.3f, %d repartitions)\n",
		"cost-driven repartitioning", sk.CostTime, sk.CostImbalance, sk.Repartitions)
	fmt.Printf("%-34s %12.2fx (target > 1)\n", "static/cost margin", sk.Margin)
	ex := res.Exec
	status := "FAIL"
	if ex.BitIdentical {
		status = "ok"
	}
	fmt.Printf("executed runtime: N=%d over %d nodes, %d steps, %d node loss(es): "+
		"%d bytes, %d msgs on the wire; bit-identical to single-node: %s\n",
		ex.N, ex.Nodes, ex.Steps, ex.NodeLosses, ex.TotalBytes, ex.TotalMsgs, status)
	b, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		err = os.WriteFile("BENCH_dmem.json", b, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "BENCH_dmem.json: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("wrote BENCH_dmem.json")
}
