package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"afmm/internal/balance"
	"afmm/internal/core"
	"afmm/internal/distrib"
	"afmm/internal/particle"
)

// kickDrift is sim.KickDrift, inlined: the sim package now imports
// checkpoint (for step-level recovery), so the test can't.
func kickDrift(sys *particle.System, dt float64) {
	for i := range sys.Pos {
		sys.Vel[i] = sys.Vel[i].Add(sys.Acc[i].Scale(dt))
		sys.Pos[i] = sys.Pos[i].Add(sys.Vel[i].Scale(dt))
	}
}

// TestRoundTrip: a snapshot taken by Capture, or by CaptureInto over a
// used one, survives the codec with its metadata and every body exact.
func TestRoundTrip(t *testing.T) {
	sys := distrib.Plummer(500, 1, 1, 42)
	sys.Aux[3].X = 7 // exercise the aux channel
	into := Capture(distrib.Plummer(80, 1, 1, 3), 4, 2, 1)
	CaptureInto(&into, sys, 48, 17, 0.0017)
	for name, sn := range map[string]Snapshot{"Capture": Capture(sys, 48, 17, 0.0017), "CaptureInto": into} {
		var buf bytes.Buffer
		if err := Write(&buf, sn); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.S != 48 || got.Step != 17 || got.Time != 0.0017 {
			t.Fatalf("%s: metadata lost: %+v", name, got)
		}
		restored, err := got.Restore()
		if err != nil {
			t.Fatal(err)
		}
		for i := range sys.Pos {
			if restored.Pos[i] != sys.Pos[i] || restored.Vel[i] != sys.Vel[i] ||
				restored.Mass[i] != sys.Mass[i] || restored.Index[i] != sys.Index[i] ||
				restored.Aux[i] != sys.Aux[i] {
				t.Fatalf("%s: body %d not restored exactly", name, i)
			}
		}
	}
}

func TestRestoreRejectsCorruption(t *testing.T) {
	sys := distrib.Plummer(50, 1, 1, 1)
	for name, corrupt := range map[string]func(sn *Snapshot){
		"truncated snapshot":  func(sn *Snapshot) { sn.Pos = sn.Pos[:10] },
		"wrong version":       func(sn *Snapshot) { sn.Version = 99 },
		"next version":        func(sn *Snapshot) { sn.Version = Version + 1 },
		"corrupt permutation": func(sn *Snapshot) { sn.Index[0] = sn.Index[1] },
	} {
		sn := Capture(sys, 8, 0, 0)
		corrupt(&sn)
		if _, err := sn.Restore(); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// TestResumeDeterminism: advancing A for 5+5 steps with a tree rebuild in
// the middle must equal advancing 5 steps, snapshotting (including the
// load balancer's FSM state), restoring into a fresh solver and a fresh
// balancer, and advancing 5 more. The resumed balancer must pick up in
// the captured state rather than re-running its search.
func TestResumeDeterminism(t *testing.T) {
	const dt = 1e-4
	mk := func() (*core.Solver, *balance.Balancer) {
		sys := distrib.Plummer(400, 1, 1, 9)
		s := core.NewSolver(sys, core.Config{P: 4, S: 16, NumGPUs: 1})
		b := balance.New(balance.Config{Strategy: balance.StrategyFull, MinS: 4, MaxS: 128},
			sys.Len())
		return s, b
	}
	step := func(s *core.Solver, b *balance.Balancer) {
		st := s.Solve()
		b.AfterStep(s, balance.StepTimes{CPU: st.CPUTime, GPU: st.GPUTime})
		kickDrift(s.Sys, dt)
		s.Refill()
	}

	// Continuous run with a mid-run rebuild (aligning the tree with what a
	// resumed run builds from scratch).
	a, ab := mk()
	for i := 0; i < 5; i++ {
		step(a, ab)
	}
	a.Rebuild(a.S())
	for i := 0; i < 5; i++ {
		step(a, ab)
	}

	// Snapshot/resume run.
	b, bb := mk()
	for i := 0; i < 5; i++ {
		step(b, bb)
	}
	var buf bytes.Buffer
	if err := Write(&buf, CaptureState(b.Sys, b.S(), 5, 5*dt, bb)); err != nil {
		t.Fatal(err)
	}
	sn, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sysC, err := sn.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if !sn.HasBal {
		t.Fatal("snapshot lost the balancer state")
	}
	c := core.NewSolver(sysC, core.Config{P: 4, S: sn.S, NumGPUs: 1})
	cb := balance.New(balance.Config{Strategy: balance.StrategyFull, MinS: 4, MaxS: 128},
		sysC.Len())
	cb.Import(sn.Bal)
	if cb.State != bb.State {
		t.Fatalf("restored balancer state %v, want %v", cb.State, bb.State)
	}
	for i := 0; i < 5; i++ {
		step(c, cb)
	}

	if cb.State != ab.State {
		t.Fatalf("balancer states diverged after resume: %v vs %v", cb.State, ab.State)
	}
	accA := a.Sys.AccInInputOrder()
	accC := c.Sys.AccInInputOrder()
	posA := a.Sys.PhiInInputOrder()
	posC := c.Sys.PhiInInputOrder()
	for i := range accA {
		if accA[i] != accC[i] || posA[i] != posC[i] {
			t.Fatalf("resumed run diverged at body %d", i)
		}
	}
	if a.S() != c.S() {
		t.Fatalf("leaf capacity diverged after resume: %d vs %d", a.S(), c.S())
	}
}

// TestVersion1SnapshotStillRestores: pre-balancer snapshots load.
func TestVersion1SnapshotStillRestores(t *testing.T) {
	sys := distrib.Plummer(100, 1, 1, 4)
	sn := Capture(sys, 16, 3, 0.3)
	sn.Version = 1
	var buf bytes.Buffer
	if err := Write(&buf, sn); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.HasBal {
		t.Fatal("v1 snapshot claims balancer state")
	}
	if _, err := got.Restore(); err != nil {
		t.Fatalf("v1 snapshot rejected: %v", err)
	}
}

// TestWriteFileAtomic: WriteFile replaces the destination atomically and
// leaves no temp droppings; ReadFile round-trips.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.gob")
	sys := distrib.Plummer(80, 1, 1, 2)
	if err := WriteFile(path, Capture(sys, 16, 1, 0.1)); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a later snapshot; the old file must be replaced.
	if err := WriteFile(path, Capture(sys, 24, 2, 0.2)); err != nil {
		t.Fatal(err)
	}
	sn, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sn.S != 24 || sn.Step != 2 {
		t.Fatalf("stale snapshot survived: %+v", sn)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp files left behind: %v", ents)
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.gob")); err == nil {
		t.Fatal("missing checkpoint read succeeded")
	}
}
