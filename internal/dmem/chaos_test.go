package dmem

import (
	"os"
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

// singleTwin runs the fault-free single-node reference trajectory.
func singleTwin(n, steps int, dt float64, seed int64) *particle.System {
	sys := distrib.Plummer(n, 1.0, 1.0, seed)
	sv := core.NewSolver(sys, execCoreConfig())
	for step := 0; step < steps; step++ {
		sv.Solve()
		for i := range sys.Pos {
			sys.Vel[i] = sys.Vel[i].Add(sys.Acc[i].Scale(dt))
			sys.Pos[i] = sys.Pos[i].Add(sys.Vel[i].Scale(dt))
		}
		sv.Refill()
	}
	return sys
}

func requireIdentical(t *testing.T, got, want *particle.System, what string) {
	t.Helper()
	for i := range want.Pos {
		if got.Pos[i] != want.Pos[i] || got.Vel[i] != want.Vel[i] || got.Phi[i] != want.Phi[i] {
			t.Fatalf("%s: body %d diverged: pos %v vs %v, vel %v vs %v, phi %v vs %v",
				what, i, got.Pos[i], want.Pos[i], got.Vel[i], want.Vel[i],
				got.Phi[i], want.Phi[i])
		}
	}
}

// chaosLink keeps multi-step chaos runs fast without starving the retry
// budget.
func chaosLink() linkConfig {
	return linkConfig{
		RetransmitTimeout: 200 * time.Microsecond,
		MaxRetries:        10,
		NearDeadline:      5 * time.Second,
		FarDeadline:       5 * time.Second,
	}
}

// TestChaosWithinBudgetBitIdentical: a mixed drop/dup/reorder/corrupt/
// delay schedule whose rates the retry budget absorbs. Every value must
// stay exactly the fault-free single-node value; the stats must show the
// protocol actually fought the schedule.
func TestChaosWithinBudgetBitIdentical(t *testing.T) {
	const (
		n     = 1200
		steps = 3
		dt    = 5e-4
	)
	sch := mustCluster(t,
		"link0-1:drop0.4@step0,link1-0:drop0.3@step0,link0-2:dup@step0,"+
			"link2-0:corrupt0.4@step0,link1-2:reorder@step1,link2-1:delay0.2ms@step0,"+
			"link0-3:drop0.3@step1,link3-0:corrupt0.3@step2")
	cfg := execClusterConfig(4)
	cfg.LinkFaults = sch
	cfg.LinkSeed = 42
	cfg.link = chaosLink()

	sysD := distrib.Plummer(n, 1.0, 1.0, 23)
	d, err := NewSolver(sysD, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := d.RunWith(RunConfig{Steps: steps, Dt: dt})

	if res.Net.FramesDropped == 0 || res.Net.Retries == 0 {
		t.Fatalf("schedule injected no observable faults: %+v", res.Net)
	}
	if res.Net.CorruptRejects == 0 {
		t.Fatalf("corrupt0.4 produced no checksum rejects: %+v", res.Net)
	}
	if res.Net.Timeouts != 0 {
		t.Fatalf("within-budget schedule must not hit deadlines, got %d timeouts",
			res.Net.Timeouts)
	}
	requireIdentical(t, sysD, singleTwin(n, steps, dt, 23), "within-budget chaos")
}

// TestChaosBeyondBudgetDegradesValuesExact: drop1.0 on every link out of
// node 0 defeats retransmission entirely; the deadline paths (host-side
// ghost re-pack, reliable re-request) take over and the values are STILL
// exactly the single-node values — degradation costs throughput only.
func TestChaosBeyondBudgetDegradesValuesExact(t *testing.T) {
	const (
		n     = 900
		steps = 2
		dt    = 5e-4
	)
	sch := mustCluster(t,
		"link0-1:drop1.0@step0,link0-2:drop1.0@step0")
	cfg := execClusterConfig(3)
	cfg.LinkFaults = sch
	cfg.LinkSeed = 7
	cfg.link = linkConfig{
		RetransmitTimeout: 100 * time.Microsecond,
		MaxRetries:        2,
		NearDeadline:      20 * time.Millisecond,
		FarDeadline:       20 * time.Millisecond,
	}

	sysD := distrib.Plummer(n, 1.0, 1.0, 31)
	d, err := NewSolver(sysD, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := d.RunWith(RunConfig{Steps: steps, Dt: dt})

	if res.Net.Timeouts == 0 {
		t.Fatalf("drop1.0 links must exhaust the retry budget: %+v", res.Net)
	}
	if res.Net.Rerequests+res.Net.DegradedGhostFlows == 0 {
		t.Fatalf("timeouts without degraded recoveries: %+v", res.Net)
	}
	requireIdentical(t, sysD, singleTwin(n, steps, dt, 31), "beyond-budget chaos")
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
	const (
		n     = 800
		steps = 2
		dt    = 5e-4
		nodes = 3
	)
	want := singleTwin(n, steps, dt, 47)
	for trial := int64(0); trial < 3; trial++ {
		seed := base*100 + trial
		sch := fault.RandomLinks(seed, nodes, steps, 6)
		cfg := execClusterConfig(nodes)
		cfg.LinkFaults = sch
		cfg.LinkSeed = seed
		cfg.link = chaosLink()
		sysD := distrib.Plummer(n, 1.0, 1.0, 47)
		d, err := NewSolver(sysD, cfg)
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, sch, err)
		}
		res := d.RunWith(RunConfig{Steps: steps, Dt: dt})
		if res.Net.FramesSent == 0 {
			t.Fatalf("seed %d: no traffic executed", seed)
		}
		requireIdentical(t, sysD, want, "random schedule "+sch.String())
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
		cfg.link = chaosLink()
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
// detected by heartbeat age and the run still matches
// the single-node trajectory exactly.
func TestHeartbeatDetectorRecovery(t *testing.T) {
	const (
		n     = 1000
		steps = 4
		dt    = 5e-4
	)
	events, err := fault.ParseNodeEvents("node2:failstop@step1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := execClusterConfig(4)
	cfg.NodeFaults = events
	cfg.LinkFaults = mustCluster(t, "link1-3:drop0.3@step0")
	cfg.LinkSeed = 13
	cfg.link = chaosLink()
	cfg.link.HeartbeatInterval = 500 * time.Microsecond
	cfg.link.SuspectAfter = 10

	sysD := distrib.Plummer(n, 1.0, 1.0, 53)
	d, err := NewSolver(sysD, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := d.RunWith(RunConfig{Steps: steps, Dt: dt})
	if res.NodeLosses != 1 {
		t.Fatalf("node losses = %d, want 1", res.NodeLosses)
	}
	if len(res.DetectLatencies) != 1 || res.DetectLatencies[0] <= 0 {
		t.Fatalf("heartbeat detection latencies = %v, want one positive entry",
			res.DetectLatencies)
	}
	// The detector needs at least SuspectAfter silent intervals.
	if min := 0.5 * float64(cfg.link.HeartbeatInterval.Seconds()) *
		float64(cfg.link.SuspectAfter); res.DetectLatencies[0] < min {
		t.Fatalf("detection latency %v below the suspicion window floor %v",
			res.DetectLatencies[0], min)
	}
	if got := d.Alive(); got[2] {
		t.Fatal("node 2 should be dead")
	}
	requireIdentical(t, sysD, singleTwin(n, steps, dt, 53), "heartbeat recovery")
}

// TestNetTimeoutFlightDump: a deadline breach emits the net-timeout
// event, which triggers a flight dump carrying the per-link retry
// breakdown of the recorded steps.
func TestNetTimeoutFlightDump(t *testing.T) {
	const n = 700
	fr := telemetry.NewFlightRecorder(32, t.TempDir())
	reg := metrics.NewRegistry()
	rec := telemetry.New(telemetry.Options{Flight: fr, Metrics: reg})

	// Three nodes: the dead link's flows hit the deadline while the
	// healthy links keep delivering (and earning RTT observations).
	cfg := execClusterConfig(3)
	cfg.LinkFaults = mustCluster(t, "link0-1:drop1.0@step0")
	cfg.LinkSeed = 3
	cfg.link = linkConfig{
		RetransmitTimeout: 100 * time.Microsecond,
		MaxRetries:        1,
		NearDeadline:      10 * time.Millisecond,
		FarDeadline:       10 * time.Millisecond,
	}
	sysD := distrib.Plummer(n, 1.0, 1.0, 61)
	d, err := NewSolver(sysD, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.SetRecorder(rec)
	d.RunWith(RunConfig{Steps: 1, Dt: 1e-4})

	if fr.Dumps() == 0 {
		t.Fatal("deadline breach did not trigger a flight dump")
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
