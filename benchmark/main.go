// Command benchmark is the repository's one benchmark: five named
// workloads, each advanced through the program's public run loops, measured
// end to end with tracing off and layer by layer in a separate traced pass.
// It measures the program from outside — nothing under internal/ knows it
// exists. README.md in this directory says what every number means.
//
//	benchmark/run.sh                       every workload, both passes, a table
//	benchmark/run.sh -json out.json        ... and the results as JSON
//	benchmark/run.sh --workload grav-far-p8 --seed 7 --seconds 15 --trace 0
//
// The last form is the driver's: one workload, one pass, and as the last
// line of standard output one JSON object {correct, attempted, failed,
// metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"afmm/internal/sched"
)

// minRounds is the least number of untraced rounds behind the end-to-end
// metrics: each round is a fresh solver, so set-up is sampled that many
// times and the step samples straddle that many moments of the host's
// drift.
const minRounds = 3

func main() {
	name := flag.String("workload", "", "run this one workload and print the driver's result line (default: all five, as a table)")
	seed := flag.Int64("seed", 42, "workload seed, the only workload argument: it displaces the bodies of each workload's base draw")
	seconds := flag.Float64("seconds", runSeconds, "with -workload: keep starting untraced rounds until this much time has been measured (never fewer than 3 rounds)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
	spansDir := flag.String("spans", "", "directory to write the traced pass's spans into, as <workload>.jsonl")
	jsonOut := flag.String("json", "", "write the full results, with the host block, to this file (all-workloads mode)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	workers := min(runtime.NumCPU(), 4)
	pool := sched.NewPool(workers)

	if *name == "" {
		os.Exit(runAll(*seed, pool, *spansDir, *jsonOut))
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var out result
	if *trace == 0 {
		e, err := measureEndToEnd(w, *seed, *seconds, pool)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "%s: %d rounds, %d timed steps; step wall by the clock %.1f ms (median) at host speed %.3f of nominal\n",
			w.name, e.rounds, e.samples, e.rawMs, e.hostSpeed)
		out = newResult(endToEnd, e.metrics, e.attempted, e.failed, e.problems)
	} else {
		l, err := measureLayers(w, *seed, pool)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := saveSpans(*spansDir, w, l.spans); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		out = newResult(perLayer, l.metrics, l.attempted, l.failed, l.problems)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// measureEndToEnd runs untraced rounds of w until seconds have been
// measured and pools them.
func measureEndToEnd(w *workload, seed int64, seconds float64, pool *sched.Pool) (endToEndResult, error) {
	var rounds []round
	t0 := time.Now()
	for r := 0; r < minRounds || time.Since(t0).Seconds() < seconds; r++ {
		rd, err := runRound(w, seed, pool, r == 0)
		if err != nil {
			return endToEndResult{}, err
		}
		rounds = append(rounds, rd)
	}
	return poolRounds(w, rounds), nil
}

func saveSpans(dir string, w *workload, spans []span) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeSpans(filepath.Join(dir, w.name+".jsonl"), spans)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver's result line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	problems  []string
}

// newResult keeps exactly the metrics spec lists. A value that is missing
// or not finite cannot be reported as measured: it reads -1 and the run is
// marked incorrect.
func newResult(spec []metricSpec, values map[string]float64, attempted, failed int, problems []string) result {
	r := result{Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}, problems: problems}
	for _, s := range spec {
		v, ok := values[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.problems = append(r.problems, fmt.Sprintf("metric %s has no finite value", s.Name))
			v = -1
		}
		r.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	r.Correct = len(r.problems) == 0 && failed == 0
	return r
}

// hostBlock records where a results file was measured; it is filled at run
// time and never committed.
type hostBlock struct {
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	PoolWorkers int    `json:"pool_workers"`
	GoVersion   string `json:"go_version"`
	Seed        int64  `json:"seed"`
}

type workloadReport struct {
	Name     string `json:"name"`
	EndToEnd result `json:"end_to_end"`
	PerLayer result `json:"per_layer"`
	// Samples is the number of timed steps pooled into step_wall_ms.
	Samples int `json:"step_samples"`
	Rounds  int `json:"rounds"`
	// RoundSpread is (max-min)/median of the per-round step-wall medians.
	RoundSpread float64 `json:"sim.round_spread"`
	// RawStepWallMs is the median step wall as the clock read it and
	// HostSpeed the mean speed sample: what step_wall_ms was computed from.
	RawStepWallMs float64  `json:"raw_step_wall_ms"`
	HostSpeed     float64  `json:"host_speed"`
	Problems      []string `json:"problems,omitempty"`
}

type report struct {
	Host      hostBlock        `json:"host"`
	Workloads []workloadReport `json:"workloads"`
	Correct   bool             `json:"correct"`
}

// runAll is the all-workloads mode: untraced rounds that visit the
// workloads in rotated order, so that every workload is sampled at several
// moments of the host's drift, then one traced pass per workload, then the
// checks that need both.
func runAll(seed int64, pool *sched.Pool, spansDir, jsonOut string) int {
	ws := workloads()
	rounds := make([][]round, len(ws))
	for r := 0; r < minRounds; r++ {
		for k := range ws {
			i := (k + r) % len(ws)
			rd, err := runRound(ws[i], seed, pool, r == 0)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			rounds[i] = append(rounds[i], rd)
		}
	}
	rep := report{
		Host: hostBlock{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			PoolWorkers: pool.Workers(), GoVersion: runtime.Version(), Seed: seed,
		},
		Correct: true,
	}
	for i, w := range ws {
		e := poolRounds(w, rounds[i])
		l, err := measureLayers(w, seed, pool)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := saveSpans(spansDir, w, l.spans); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		wr := workloadReport{
			Name:          w.name,
			EndToEnd:      newResult(endToEnd, e.metrics, e.attempted, e.failed, e.problems),
			PerLayer:      newResult(perLayer, l.metrics, l.attempted, l.failed, l.problems),
			Samples:       e.samples,
			Rounds:        e.rounds,
			RoundSpread:   e.roundSpread,
			RawStepWallMs: e.rawMs,
			HostSpeed:     e.hostSpeed,
		}
		// The two passes ran the same program on the same bodies.
		if l.posHash != e.posHash {
			wr.Problems = append(wr.Problems, fmt.Sprintf("traced pass ends at other positions than the untraced pass (%016x vs %016x)", l.posHash, e.posHash))
		}
		if l.modelStepMs != e.modelStepMs {
			wr.Problems = append(wr.Problems, fmt.Sprintf("traced pass models %v ms per step, untraced %v", l.modelStepMs, e.modelStepMs))
		}
		wr.Problems = append(wr.Problems, wr.EndToEnd.problems...)
		wr.Problems = append(wr.Problems, wr.PerLayer.problems...)
		if len(wr.Problems) > 0 {
			rep.Correct = false
		}
		rep.Workloads = append(rep.Workloads, wr)
		printWorkload(wr, e)
	}
	if jsonOut != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(jsonOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if !rep.Correct {
		fmt.Println("FAILED: see the checks above")
		return 1
	}
	fmt.Println("all checks passed")
	return 0
}

func printWorkload(wr workloadReport, e endToEndResult) {
	fmt.Printf("\n== %s ==\n", wr.Name)
	fmt.Printf("end to end (tracing off, one thread, at nominal host speed; %d rounds, %d timed steps; step wall p10 %.1f ms, p90 %.1f ms; round spread %.1f%%; by the clock %.1f ms at host speed %.3f)\n",
		wr.Rounds, wr.Samples, e.p10, e.p90, 100*wr.RoundSpread, e.rawMs, e.hostSpeed)
	for _, s := range endToEnd {
		fmt.Printf("  %-32s %14.6g %-6s (%s is better, bound %.0f%%)\n", s.Name, wr.EndToEnd.Metrics[s.Name].Value, s.Unit, s.Better, 100*s.Bound)
	}
	fmt.Printf("  %-32s %14d of %d\n", "steps failed", wr.EndToEnd.Failed+wr.PerLayer.Failed, wr.EndToEnd.Attempted+wr.PerLayer.Attempted)
	fmt.Println("per layer (traced pass, all workers, times by the clock)")
	for _, s := range perLayer {
		fmt.Printf("  %-32s %14.6g %-6s -> %s\n", s.Name, wr.PerLayer.Metrics[s.Name].Value, s.Unit, s.moves)
	}
	for _, p := range wr.Problems {
		fmt.Println("  CHECK FAILED:", p)
	}
}
