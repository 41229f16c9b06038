// Command afmm-tune selects the FMM parameters (expansion order p and leaf
// capacity S) for a target accuracy on a described machine, using the cost
// model only (no numeric solves) — the automatic-tuning idea of the
// paper's reference [8].
package main

import (
	"flag"
	"fmt"
	"os"

	"afmm"
)

func main() {
	n := flag.Int("n", 20000, "number of bodies")
	dist := flag.String("dist", "plummer", "distribution: plummer | uniform | shell | disk")
	seed := flag.Int64("seed", 42, "random seed")
	target := flag.Float64("target", 1e-4, "target relative RMS acceleration error")
	cores := flag.Int("cores", 10, "virtual CPU cores")
	gpus := flag.Int("gpus", 2, "simulated GPUs")
	gpuscale := flag.Float64("gpuscale", 1.0/64, "device throughput derating")
	traceFile := flag.String("trace", "", "write a JSONL trace of the tuning sweep (one record per S candidate) to this file")
	metricsAddr := flag.String("metrics-addr", "", "serve the live dashboard, Prometheus /metrics and /status on this address during the sweep")
	flightDir := flag.String("flightrec", "", "keep a flight-recorder ring of the last 32 candidate records and dump it into this directory on sentinel anomalies")
	flag.Parse()

	var sys *afmm.System
	switch *dist {
	case "plummer":
		sys = afmm.Plummer(*n, 1, 1, *seed)
	case "uniform":
		sys = afmm.UniformCube(*n, 1, *seed)
	case "shell":
		sys = afmm.UniformShell(*n, 1, *seed)
	case "disk":
		sys = afmm.SpiralDisk(*n, 1, 1, *seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown distribution %q\n", *dist)
		os.Exit(2)
	}

	machine := afmm.GravityConfig{
		NumGPUs: *gpus,
		GPUSpec: afmm.ScaledGPU(*gpuscale),
	}
	machine.CPU = afmm.DefaultCPU()
	machine.CPU.Cores = *cores

	var rec *afmm.Recorder
	if *traceFile != "" || *metricsAddr != "" || *flightDir != "" {
		var opts afmm.RecorderOptions
		if *traceFile != "" {
			tf, err := os.Create(*traceFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer tf.Close()
			opts.JSONL = tf
		}
		if *metricsAddr != "" {
			opts.Metrics = afmm.NewMetricsRegistry()
		}
		if *flightDir != "" || *metricsAddr != "" {
			opts.Flight = afmm.NewFlightRecorder(0, *flightDir)
		}
		opts.Sentinel = &afmm.SentinelConfig{}
		rec = afmm.NewRecorder(opts)
		machine.Rec = rec
	}
	if *metricsAddr != "" {
		d, err := afmm.StartTelemetryDebug(*metricsAddr, rec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "debug server (dashboard, /metrics, /status, pprof) on http://%s/\n", d.Addr())
	}

	choice := afmm.Tune(sys, afmm.TuneRequest{
		TargetRMSError: *target,
		Machine:        machine,
	})
	if err := rec.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "trace sink: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("target error %.1e on %s N=%d, %dC+%dG (scale %.4f)\n",
		*target, *dist, *n, *cores, *gpus, *gpuscale)
	fmt.Printf("chosen: p = %d (modeled %.1f digits), S = %d\n",
		choice.P, choice.PredictedDigits, choice.S)
	fmt.Printf("predicted compute time per solve: %.6f s\n\n", choice.PredictedCompute)
	fmt.Printf("%8s %14s\n", "S", "predicted[s]")
	for _, pt := range choice.Sweep {
		marker := " "
		if pt.S == choice.S {
			marker = "*"
		}
		fmt.Printf("%8d %14.6f %s\n", pt.S, pt.Compute, marker)
	}
}
