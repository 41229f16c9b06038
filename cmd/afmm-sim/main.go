// Command afmm-sim runs a configurable time-dependent AFMM simulation on
// the simulated heterogeneous machine and emits per-step records as CSV —
// the general-purpose driver behind the paper's §IX experiments.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"

	"afmm"
	"afmm/internal/sphharm"
	"afmm/internal/telemetry"
)

func main() {
	n := flag.Int("n", 5000, "number of bodies")
	dist := flag.String("dist", "plummer-compressed",
		"distribution: plummer | plummer-compressed | uniform | shell | twocluster | disk")
	seed := flag.Int64("seed", 42, "random seed")
	p := flag.Int("p", 4, "expansion order")
	s := flag.Int("s", 64, "initial leaf capacity S")
	cores := flag.Int("cores", 10, "virtual CPU cores")
	gpus := flag.Int("gpus", 2, "simulated GPUs")
	gpuscale := flag.Float64("gpuscale", 1.0/64, "device throughput derating")
	steps := flag.Int("steps", 200, "time steps")
	dt := flag.Float64("dt", 1e-4, "time step size")
	soft := flag.Float64("soften", 0.01, "gravitational softening")
	strategy := flag.Int("strategy", 3, "balancing strategy 1..3")
	out := flag.String("o", "", "CSV output file (default stdout)")
	tel := telemetry.RegisterFlags(flag.CommandLine, "one line per step")
	chromeFile := flag.String("chrome-trace", "", "write a Chrome trace_event JSON timeline (open in Perfetto) to this file")
	faults := flag.String("faults", "", "fault-injection schedule, e.g. gpu1:failstop@step12,gpu0:straggle2.5@step20")
	pinS := flag.Bool("pin-s", false, "hold S fixed at its initial value (no balancer-driven rebuilds) so paired runs can be compared for bit-identity")
	validate := flag.Bool("validate", false, "check accumulators for NaN/Inf after every solve (fails the step, triggering checkpoint recovery)")
	ckEvery := flag.Int("checkpoint-every", 0, "auto-checkpoint after every N completed steps (0 = keep only the initial state for recovery)")
	ckDir := flag.String("checkpoint-dir", "", "persist the rolling auto-checkpoint atomically in this directory")
	resume := flag.String("resume", "", "resume from this checkpoint file (overrides -dist/-n/-s with the snapshot's bodies and leaf capacity)")
	finalHash := flag.Bool("final-hash", false, "print an FNV-64a hash of the final accelerations and potentials (input order) for bit-identity checks")
	dmemNodes := flag.Int("dmem-nodes", 0, "execute on the distributed goroutine-per-node runtime over this many virtual nodes (0 = single-node machine path)")
	clusterFaults := flag.String("cluster-faults", "", "cluster fault schedule mixing node and link events, e.g. node2:failstop@step3,link0-1:drop0.1@step2 (requires -dmem-nodes)")
	linkSeed := flag.Int64("link-seed", 1, "seed for the deterministic per-frame link-fault verdicts")
	flag.Parse()
	if *p < 1 || *p > sphharm.MaxOrder {
		fmt.Fprintf(os.Stderr, "-p %d: the expansion order must be in [1, %d]\n", *p, sphharm.MaxOrder)
		os.Exit(2)
	}

	var resumeSnap *afmm.Snapshot
	if *resume != "" {
		sn, err := afmm.ReadSnapshotFile(*resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		resumeSnap = &sn
		*s = sn.S
	}

	var sys *afmm.System
	if resumeSnap != nil {
		restored, err := resumeSnap.Restore()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sys = restored
	} else {
		sys = makeSystem(*dist, *n, *seed)
	}

	rec, err := tel.Open(*chromeFile != "")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer tel.Close()

	if *dmemNodes > 0 {
		runClusterSim(clusterSimArgs{
			sys: sys, resume: resumeSnap, rec: rec,
			nodes: *dmemNodes, p: *p, s: *s, cores: *cores,
			steps: *steps, dt: *dt, soften: *soft,
			faults: *clusterFaults, linkSeed: *linkSeed,
			ckEvery: *ckEvery, ckDir: *ckDir, finalHash: *finalHash,
		})
		return
	}
	if *clusterFaults != "" {
		fmt.Fprintln(os.Stderr, "-cluster-faults requires -dmem-nodes")
		os.Exit(2)
	}

	cfg := afmm.GravityConfig{
		P:        *p,
		S:        *s,
		NumGPUs:  *gpus,
		Kernel:   afmm.GravityKernel{G: 1, Softening: *soft},
		Validate: *validate,
	}
	if *faults != "" {
		sch, err := afmm.ParseFaultSchedule(*faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg.Faults = afmm.NewFaultInjector(sch)
	}
	cfg.CPU = afmm.DefaultCPU()
	cfg.CPU.Cores = *cores
	cfg.GPUSpec = afmm.DefaultGPU()
	cfg.GPUSpec.InteractionsPerSecPerSM *= *gpuscale
	if *gpuscale < 1 {
		cfg.GPUSpec.BlockSize = 64
	}
	solver := afmm.NewGravitySolver(sys, cfg)

	var strat afmm.Strategy
	switch *strategy {
	case 1:
		strat = afmm.StrategyStatic
	case 2:
		strat = afmm.StrategyEnforce
	default:
		strat = afmm.StrategyFull
	}
	balCfg := afmm.BalanceConfig{Strategy: strat}
	if *pinS {
		// A single-point search space settles immediately without a
		// rebuild: even strategy 1's initial search is suppressed, which
		// timing-perturbing faults would otherwise steer to a different S.
		balCfg.Strategy = afmm.StrategyStatic
		balCfg.MinS, balCfg.MaxS = *s, *s
	}

	simCfg := afmm.SimConfig{
		Dt:              *dt,
		Steps:           *steps,
		Balance:         balCfg,
		CheckpointEvery: *ckEvery,
		CheckpointDir:   *ckDir,
		Resume:          resumeSnap,
	}
	simCfg.Rec = rec
	res := afmm.RunGravity(solver, simCfg)
	if res.Err != nil {
		fmt.Fprintf(os.Stderr, "run aborted after %d recoveries: %v\n", res.Recoveries, res.Err)
		os.Exit(1)
	}
	if res.Recoveries > 0 || res.Checkpoints > 0 {
		fmt.Fprintf(os.Stderr, "resilience: %d recoveries, %d checkpoints\n",
			res.Recoveries, res.Checkpoints)
	}
	if err := rec.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "trace sink: %v\n", err)
		os.Exit(1)
	}
	if *chromeFile != "" {
		cf, err := os.Create(*chromeFile)
		if err == nil {
			err = rec.WriteChrome(cf)
			if cerr := cf.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := res.WriteCSV(w); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr,
		"total compute %.4fs, LB %.4fs (%.2f%%), refill %.4fs, mean/step %.6fs\n",
		res.TotalCompute, res.TotalLB, res.LBPercent(), res.TotalRefill,
		res.MeanTotalPerStep())
	if *finalHash {
		fmt.Printf("final-hash: %016x\n", stateHash(sys))
	}
}

type clusterSimArgs struct {
	sys       *afmm.System
	resume    *afmm.Snapshot
	rec       *afmm.Recorder
	nodes     int
	p, s      int
	cores     int
	steps     int
	dt        float64
	soften    float64
	faults    string
	linkSeed  int64
	ckEvery   int
	ckDir     string
	finalHash bool
}

// runClusterSim executes the run on the distributed goroutine-per-node
// runtime: real per-node execution of the partitioned tree, the framed
// link layer (with any -cluster-faults link chaos), and heartbeat-based
// node-loss detection. Results are bit-identical to the single-node
// float64 path regardless of the fault schedule.
func runClusterSim(a clusterSimArgs) {
	var nodeEvents []afmm.NodeFaultEvent
	var linkSch *afmm.LinkSchedule
	if a.faults != "" {
		var err error
		nodeEvents, linkSch, err = afmm.ParseClusterEvents(a.faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	cpu := afmm.DefaultCPU()
	cpu.Cores = a.cores
	d, err := afmm.NewClusterSolver(a.sys, afmm.ClusterConfig{
		Core: afmm.GravityConfig{
			P: a.p, S: a.s,
			Kernel: afmm.GravityKernel{G: 1, Softening: a.soften},
			CPU:    cpu,
		},
		Nodes:      afmm.HomogeneousNodes(a.nodes, afmm.ClusterNodeSpec{CPU: cpu}),
		NodeFaults: nodeEvents,
		LinkFaults: linkSch,
		LinkSeed:   a.linkSeed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	d.SetRecorder(a.rec)

	startStep := 0
	if a.resume != nil {
		startStep = a.resume.Step
	}
	if startStep >= a.steps {
		fmt.Fprintf(os.Stderr, "resume snapshot is at step %d, nothing to run\n", startStep)
		os.Exit(2)
	}
	rc := afmm.ClusterRunConfig{
		Steps: a.steps - startStep, Dt: a.dt, StartStep: startStep,
	}
	if a.ckEvery > 0 && a.ckDir != "" {
		rc.OnStep = func(step int) {
			done := step + 1
			if (done-startStep)%a.ckEvery != 0 {
				return
			}
			sn := afmm.CaptureSnapshot(a.sys, a.s, done, float64(done)*a.dt)
			path := a.ckDir + string(os.PathSeparator) + afmm.SimCheckpointFile
			if err := afmm.WriteSnapshotFile(path, sn); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	res := d.RunWith(rc)
	fmt.Fprintf(os.Stderr,
		"dmem: %d nodes, steps %d..%d, modeled total %.4fs, %d repartitions, %d node losses\n",
		a.nodes, startStep, a.steps-1, res.TotalTime, res.Rebalances, res.NodeLosses)
	if res.Net.FramesSent > 0 {
		fmt.Fprintf(os.Stderr,
			"link layer: %d frames (%d dropped, %d retries, %d corrupt rejects), %d timeouts, %d recoveries\n",
			res.Net.FramesSent, res.Net.FramesDropped, res.Net.Retries,
			res.Net.CorruptRejects, res.Net.Timeouts,
			res.Net.Rerequests+res.Net.DegradedGhostFlows)
	}
	for _, lat := range res.DetectLatencies {
		fmt.Fprintf(os.Stderr, "heartbeat detection latency: %.3f ms\n", 1e3*lat)
	}
	if a.finalHash {
		fmt.Printf("final-hash: %016x\n", stateHash(a.sys))
	}
}

// makeSystem builds the initial body distribution.
func makeSystem(dist string, n int, seed int64) *afmm.System {
	switch dist {
	case "plummer":
		return afmm.Plummer(n, 1, 1, seed)
	case "plummer-compressed":
		sys := afmm.Plummer(n, 1, 1, seed)
		for i := range sys.Pos {
			sys.Pos[i] = sys.Pos[i].Scale(0.25)
		}
		return sys
	case "uniform":
		return afmm.UniformCube(n, 1, seed)
	case "shell":
		return afmm.UniformShell(n, 1, seed)
	case "twocluster":
		return afmm.TwoClusters(n, 1, 1, 6, 0.5, seed)
	case "disk":
		return afmm.SpiralDisk(n, 1, 1, seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown distribution %q\n", dist)
		os.Exit(2)
		return nil
	}
}

// stateHash digests the final accelerations and potentials in input
// order (FNV-64a over the raw float bits), so two runs can be compared
// for bit-identity from the command line.
func stateHash(sys *afmm.System) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	acc := sys.AccInInputOrder()
	phi := sys.PhiInInputOrder()
	for i := range acc {
		put(acc[i].X)
		put(acc[i].Y)
		put(acc[i].Z)
		put(phi[i])
	}
	return h.Sum64()
}
