package dmem

import (
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"afmm/internal/core"
	"afmm/internal/distrib"
	"afmm/internal/fault"
	"afmm/internal/metrics"
	"afmm/internal/particle"
	"afmm/internal/telemetry"
)

// The chaos suite is the repo's network-fault property: for ANY seeded
// drop/dup/reorder/corrupt/delay schedule, the distributed trajectory is
// exactly (==) the fault-free single-node trajectory. Within-budget
// schedules recover by retransmission; budget-exceeding schedules fall
// back to the degradation paths — either way faults cost time, never
// values.

func mustCluster(t *testing.T, spec string) *fault.LinkSchedule {
	t.Helper()
	sch, err := fault.ParseLinkEvents(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

// twinDt is the step of every twin trajectory.
const twinDt = 5e-4

// singleTwin runs the fault-free single-node reference trajectory of a
// Plummer sphere of n bodies.
func singleTwin(n, steps int, seed int64) *particle.System {
	sys := distrib.Plummer(n, 1.0, 1.0, seed)
	sv := core.NewSolver(sys, execCoreConfig())
	for step := 0; step < steps; step++ {
		sv.Solve()
		for i := range sys.Pos {
			sys.Vel[i] = sys.Vel[i].Add(sys.Acc[i].Scale(twinDt))
			sys.Pos[i] = sys.Pos[i].Add(sys.Vel[i].Scale(twinDt))
		}
		sv.Refill()
	}
	return sys
}

// twinRun is the harness of the dmem contract: it runs a cluster of the
// given nodes, configured by mod (link schedule, node faults), for steps
// over the same Plummer sphere and demands every position, velocity and
// potential == the single-node trajectory want (singleTwin(n, steps,
// seed)). It returns the solver and the run for the caller's checks on
// what the faults cost.
func twinRun(t *testing.T, want *particle.System, seed int64, steps, nodes int, mod func(*Config)) (*Solver, RunResult) {
	t.Helper()
	cfg := execClusterConfig(nodes)
	mod(&cfg)
	got := distrib.Plummer(len(want.Pos), 1.0, 1.0, seed)
	d, err := NewSolver(got, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := d.RunWith(RunConfig{Steps: steps, Dt: twinDt})
	for i := range want.Pos {
		if got.Pos[i] != want.Pos[i] || got.Vel[i] != want.Vel[i] || got.Phi[i] != want.Phi[i] {
			t.Fatalf("%v / %v: body %d diverged: pos %v vs %v, vel %v vs %v, phi %v vs %v",
				cfg.LinkFaults, cfg.NodeFaults, i, got.Pos[i], want.Pos[i], got.Vel[i], want.Vel[i],
				got.Phi[i], want.Phi[i])
		}
	}
	return d, res
}

// TestChaosWithinBudgetBitIdentical: a mixed drop/dup/reorder/corrupt/
// delay schedule whose rates the retry budget absorbs. Every value must
// stay exactly the fault-free single-node value; the stats must show the
// protocol actually fought the schedule.
func TestChaosWithinBudgetBitIdentical(t *testing.T) {
	sch := mustCluster(t,
		"link0-1:drop0.4@step0,link1-0:drop0.3@step0,link0-2:dup@step0,"+
			"link2-0:corrupt0.4@step0,link1-2:reorder@step1,link2-1:delay0.2ms@step0,"+
			"link0-3:drop0.3@step1,link3-0:corrupt0.3@step2")
	_, res := twinRun(t, singleTwin(1200, 3, 23), 23, 3, 4, func(cfg *Config) {
		cfg.LinkFaults, cfg.LinkSeed = sch, 42
	})
	if res.Net.FramesDropped == 0 || res.Net.Retries == 0 {
		t.Fatalf("schedule injected no observable faults: %+v", res.Net)
	}
	if res.Net.CorruptRejects == 0 {
		t.Fatalf("corrupt0.4 produced no checksum rejects: %+v", res.Net)
	}
	if res.Net.Timeouts != 0 {
		t.Fatalf("within-budget schedule must not exhaust a retry budget, got %d timeouts",
			res.Net.Timeouts)
	}
}

// TestChaosBeyondBudgetDegradesValuesExact: drop1.0 on every link out of
// node 0 defeats retransmission entirely; once a flow's retry budget runs
// out the degradation paths (host-side ghost re-pack, reliable re-request)
// take over and the values are STILL exactly the single-node values —
// degradation costs modeled time only.
func TestChaosBeyondBudgetDegradesValuesExact(t *testing.T) {
	sch := mustCluster(t, "link0-1:drop1.0@step0,link0-2:drop1.0@step0")
	_, res := twinRun(t, singleTwin(900, 2, 31), 31, 2, 3, func(cfg *Config) {
		cfg.LinkFaults, cfg.LinkSeed = sch, 7
	})
	if res.Net.Timeouts == 0 {
		t.Fatalf("drop1.0 links must exhaust the retry budget: %+v", res.Net)
	}
	if res.Net.Rerequests+res.Net.DegradedGhostFlows == 0 {
		t.Fatalf("timeouts without degraded recoveries: %+v", res.Net)
	}
}

// TestChaosRandomSchedulesProperty: the property under randomly generated
// schedules. AFMM_CHAOS_SEED pins the base seed (the CI matrix varies
// it); each derived schedule must reproduce the single-node trajectory
// exactly.
func TestChaosRandomSchedulesProperty(t *testing.T) {
	base := int64(1)
	if v := os.Getenv("AFMM_CHAOS_SEED"); v != "" {
		p, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("AFMM_CHAOS_SEED %q: %v", v, err)
		}
		base = p
	}
	want := singleTwin(800, 2, 47)
	for trial := int64(0); trial < 3; trial++ {
		seed := base*100 + trial
		_, res := twinRun(t, want, 47, 2, 3, func(cfg *Config) {
			cfg.LinkFaults, cfg.LinkSeed = fault.RandomLinks(seed, 3, 2, 6), seed
		})
		if res.Net.FramesSent == 0 {
			t.Fatalf("seed %d: no traffic executed", seed)
		}
	}
}

// TestChaosStokesClusterBitIdentical: the Stokes engine shares the
// transport; a lossy schedule must not move a single velocity bit.
func TestChaosStokesClusterBitIdentical(t *testing.T) {
	const n = 900
	svS := stokesTwin(n, 19)
	svD := stokesTwin(n, 19)
	svS.Solve()

	cl := stokesCluster(svD, func(cfg *Config) {
		cfg.LinkFaults = mustCluster(t,
			"link0-1:drop0.4@step0,link1-2:corrupt0.5@step0,link2-0:dup@step0")
		cfg.LinkSeed = 9
	})
	net := cl.Solve().Net
	if net.FramesDropped == 0 && net.CorruptRejects == 0 {
		t.Fatalf("schedule injected nothing: %+v", net)
	}
	for i := 0; i < n; i++ {
		if svD.Sys.Acc[i] != svS.Sys.Acc[i] {
			t.Fatalf("vel[%d]: chaotic distributed %v != single %v",
				i, svD.Sys.Acc[i], svS.Sys.Acc[i])
		}
	}
}

// TestHeartbeatDetectorRecovery: a fail-stop under lossy links is
// detected by heartbeat age — exactly 25 ms, since peers 0 and 3 beat over
// clean links — and the run still matches the single-node trajectory
// exactly.
func TestHeartbeatDetectorRecovery(t *testing.T) {
	events, err := fault.ParseNodeEvents("node2:failstop@step1")
	if err != nil {
		t.Fatal(err)
	}
	d, res := twinRun(t, singleTwin(1000, 4, 53), 53, 4, 4, func(cfg *Config) {
		cfg.NodeFaults = events
		cfg.LinkFaults, cfg.LinkSeed = mustCluster(t, "link1-3:drop0.3@step0"), 13
	})
	if res.NodeLosses != 1 {
		t.Fatalf("node losses = %d, want 1", res.NodeLosses)
	}
	if len(res.DetectLatencies) != 1 || res.DetectLatencies[0] != 0.025 {
		t.Fatalf("heartbeat detection latencies = %v, want exactly [0.025]",
			res.DetectLatencies)
	}
	if got := d.Alive(); got[2] {
		t.Fatal("node 2 should be dead")
	}
}

// TestNetTimeoutFlightDump: a flow whose retry budget runs out emits the
// net-timeout event, which triggers a flight dump carrying the per-link
// retry breakdown of the recorded steps.
func TestNetTimeoutFlightDump(t *testing.T) {
	const n = 700
	fr := telemetry.NewFlightRecorder(32, t.TempDir())
	reg := metrics.NewRegistry()
	rec := telemetry.New(telemetry.Options{Flight: fr, Metrics: reg})

	// Three nodes: the dead link's flows exhaust their retry budget while
	// the healthy links keep delivering (and earning RTT observations).
	cfg := execClusterConfig(3)
	cfg.LinkFaults = mustCluster(t, "link0-1:drop1.0@step0")
	cfg.LinkSeed = 3
	sysD := distrib.Plummer(n, 1.0, 1.0, 61)
	d, err := NewSolver(sysD, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.SetRecorder(rec)
	d.RunWith(RunConfig{Steps: 1, Dt: 1e-4})

	if fr.Dumps() == 0 {
		t.Fatal("an exhausted retry budget did not trigger a flight dump")
	}
	if path := fr.LastDump(); !strings.Contains(path, "net-timeout") {
		t.Fatalf("dump reason path = %q, want a net-timeout dump", path)
	}
	recs := fr.Records()
	last := recs[len(recs)-1]
	if last.Net == nil || last.Net.Timeouts == 0 {
		t.Fatalf("flight record carries no net sample: %+v", last.Net)
	}
	if len(last.Net.Links) == 0 {
		t.Fatal("flight record net sample has no per-link breakdown")
	}

	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if want := `afmm_events_total{kind="net-timeout"} 1`; !strings.Contains(out, want) {
		t.Fatalf("missing %q in metrics exposition:\n%s", want, out)
	}
}

// TestLinkClockReplays: the link layer and the heartbeat detector run on
// the modeled clock, so two runs of one chaotic schedule with a node loss
// report the same counters, per-link RTTs, detection latencies and
// modeled times. The 3 ms delay on link 1-3 puts that link's round trip
// past the 2 ms retransmit timer: its retransmissions race the acks.
func TestLinkClockReplays(t *testing.T) {
	events, links, err := fault.ParseClusterEvents("node2:failstop@step1," +
		"link0-1:drop0.3@step0,link1-0:dup@step0,link0-3:reorder@step0," +
		"link3-0:corrupt0.4@step0,link1-3:delay3ms@step0")
	if err != nil {
		t.Fatal(err)
	}
	run := func() RunResult {
		cfg := execClusterConfig(4)
		cfg.NodeFaults = events
		cfg.LinkFaults = links
		cfg.LinkSeed = 5
		d, err := NewSolver(distrib.Plummer(800, 1, 1, 29), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d.RunWith(RunConfig{Steps: 3, Dt: 5e-4})
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Net, b.Net) || !reflect.DeepEqual(a.DetectLatencies, b.DetectLatencies) ||
		a.RecoveryTime != b.RecoveryTime || a.TotalTime != b.TotalTime {
		t.Fatalf("replay diverged:\n  net %+v\n      %+v\n  detect %v / %v, recovery %v / %v, total %v / %v",
			a.Net, b.Net, a.DetectLatencies, b.DetectLatencies, a.RecoveryTime, b.RecoveryTime, a.TotalTime, b.TotalTime)
	}
	if a.Net.FramesDropped == 0 || a.Net.DupFrames == 0 || a.Net.CorruptRejects == 0 || a.NodeLosses != 1 {
		t.Fatalf("the schedule injected too little: %d losses, %+v", a.NodeLosses, a.Net)
	}
	i := slices.IndexFunc(a.Net.Links, func(l telemetry.LinkSample) bool { return l.From == 1 && l.To == 3 })
	if i < 0 || a.Net.Links[i].Retries == 0 || a.Net.Links[i].RTTNs <= int64(3*time.Millisecond) {
		t.Fatalf("link 1-3 under delay3ms: %+v, want retries and an RTT above 3ms", a.Net.Links)
	}
}
