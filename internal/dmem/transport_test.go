package dmem

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"afmm/internal/core"
	"afmm/internal/distrib"
	"afmm/internal/fault"
	"afmm/internal/geom"
	"afmm/internal/telemetry"
)

// fastLink keeps chaos tests quick: microsecond-scale retransmits, tight
// deadlines where a test wants degradation to trigger.
func fastLink() linkConfig {
	return linkConfig{
		RetransmitTimeout: 200 * time.Microsecond,
		MaxRetries:        8,
		NearDeadline:      2 * time.Second,
		FarDeadline:       2 * time.Second,
	}
}

func expPayload(n int, base float64) payload {
	exp := make([]complex128, n)
	for i := range exp {
		exp[i] = complex(base+float64(i), base-float64(i))
	}
	return payload{exp: exp}
}

func ghostPayload() payload {
	return payload{ghost: []core.GhostLeaf{{
		Pos:  []geom.Vec3{{X: 1, Y: 2, Z: 3}, {X: -4, Y: 5, Z: -6}},
		Mass: []float64{0.5, 0.25},
	}}}
}

func mustLinks(t *testing.T, spec string) *fault.LinkSchedule {
	t.Helper()
	sch, err := fault.ParseLinkEvents(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

func samePayload(a, b payload) bool {
	if len(a.exp) != len(b.exp) || len(a.ghost) != len(b.ghost) {
		return false
	}
	return payloadSum(a) == payloadSum(b)
}

// TestTransportDefaultDelivery: without a fault schedule the transport is
// the framed, checksummed equivalent of the old buffered channels —
// synchronous delivery, one frame per flow.
func TestTransportDefaultDelivery(t *testing.T) {
	flows := []flowID{
		{kind: flowMpole, from: 0, to: 1, level: 2},
		{kind: flowGhost, from: 1, to: 0},
	}
	tp := newTransport(flows, linkConfig{}, nil, 1, 0)
	defer tp.Close()

	want0 := expPayload(8, 1.5)
	want1 := ghostPayload()
	tp.Send(flows[0], want0)
	tp.Send(flows[1], want1)

	got0, ok0 := tp.Recv(flows[0])
	got1, ok1 := tp.Recv(flows[1])
	if !ok0 || !ok1 {
		t.Fatal("fault-free Recv must not time out")
	}
	if !samePayload(got0, want0) || !samePayload(got1, want1) {
		t.Fatal("delivered payload differs from sent payload")
	}
	st := tp.Stats()
	if st.FramesSent != 2 || st.FramesDelivered != 2 {
		t.Fatalf("sent=%d delivered=%d, want 2/2", st.FramesSent, st.FramesDelivered)
	}
	if st.Retries != 0 || st.FramesDropped != 0 || st.Timeouts != 0 {
		t.Fatalf("fault-free stats show protocol activity: %+v", st)
	}
}

// TestNullScheduleOnePath: a schedule whose events all have probability
// zero runs exactly what no schedule runs — every frame delivered and
// acked inside Send, the same counters, the same per-link rows and RTT
// counts, and RTTs that are real round trips.
func TestNullScheduleOnePath(t *testing.T) {
	flows := []flowID{
		{kind: flowMpole, from: 0, to: 1, level: 2},
		{kind: flowLocal, from: 0, to: 1, level: 3},
		{kind: flowGhost, from: 0, to: 1},
		{kind: flowMpole, from: 1, to: 0, level: 2},
		{kind: flowGhost, from: 2, to: 0},
	}
	run := func(sch *fault.LinkSchedule) telemetry.NetSample {
		tp := newTransport(flows, linkConfig{}, sch, 1, 0)
		for i, f := range flows {
			want := expPayload(4+i, float64(i))
			if f.kind == flowGhost {
				want = ghostPayload()
			}
			tp.Send(f, want)
			select {
			case <-tp.flows[f].delivered:
			default:
				t.Fatalf("schedule %q: flow %+v not delivered inside Send", sch, f)
			}
			if got, ok := tp.Recv(f); !ok || !samePayload(got, want) {
				t.Fatalf("schedule %q: flow %+v delivered ok=%v, or other bytes", sch, f, ok)
			}
		}
		tp.Close()
		st := tp.Stats()
		for i, l := range st.Links {
			if l.RTTCount == 0 || l.RTTNs < 0 || l.RTTNs > int64(time.Second) {
				t.Fatalf("schedule %q: link %d-%d RTT %d ns over %d acks", sch, l.From, l.To, l.RTTNs, l.RTTCount)
			}
			st.Links[i].RTTNs = 0 // a clock reading; everything else must match
		}
		return st
	}
	clean, null := run(nil), run(mustLinks(t, "link0-1:drop0@step0"))
	if !reflect.DeepEqual(clean, null) {
		t.Fatalf("stats differ:\n  no schedule   %+v\n  drop0@step0   %+v", clean, null)
	}
	if clean.FramesSent != int64(len(flows)) || clean.FramesDelivered != int64(len(flows)) || len(clean.Links) != 3 {
		t.Fatalf("want %d frames sent and delivered over 3 links, got %+v", len(flows), clean)
	}
}

// TestTransportDropRetransmit: a lossy forward link costs retries, never
// values — the payload that arrives is bit-identical to the one sent.
func TestTransportDropRetransmit(t *testing.T) {
	sch := mustLinks(t, "link0-1:drop0.6@step0")
	f := flowID{kind: flowMpole, from: 0, to: 1, level: 3}
	want := expPayload(32, 7.25)

	var delivered int
	var drops, retries int64
	for seed := int64(1); seed <= 8; seed++ {
		tp := newTransport([]flowID{f}, fastLink(), sch, seed, 0)
		tp.Send(f, want)
		got, ok := tp.Recv(f)
		tp.Close()
		st := tp.Stats()
		drops += st.FramesDropped
		retries += st.Retries
		if ok {
			if !samePayload(got, want) {
				t.Fatalf("seed %d: delivered payload differs from sent", seed)
			}
			delivered++
		}
	}
	if delivered == 0 {
		t.Fatal("no seed delivered through drop0.6 within the retry budget")
	}
	if drops == 0 || retries == 0 {
		t.Fatalf("drop0.6 over 8 seeds produced drops=%d retries=%d, want both > 0",
			drops, retries)
	}
}

// TestTransportCorruptRejectRerequest: corrupt1.0 poisons every attempt;
// the checksum rejects each frame, the deadline expires, and Rerequest
// recovers the sender's original bytes.
func TestTransportCorruptRejectRerequest(t *testing.T) {
	sch := mustLinks(t, "link0-1:corrupt@step0")
	f := flowID{kind: flowLocal, from: 0, to: 1, level: 1}
	cfg := fastLink()
	cfg.FarDeadline = 50 * time.Millisecond
	tp := newTransport([]flowID{f}, cfg, sch, 3, 0)
	defer tp.Close()

	want := expPayload(16, -2.5)
	tp.Send(f, want)
	if _, ok := tp.Recv(f); ok {
		t.Fatal("corrupt1.0 must never deliver a verified frame")
	}
	got := tp.Rerequest(f)
	if !samePayload(got, want) {
		t.Fatal("Rerequest returned different bytes than Send stored")
	}
	st := tp.Stats()
	if st.CorruptRejects == 0 {
		t.Fatalf("expected checksum rejects, got %+v", st)
	}
	if st.Timeouts != 1 || st.Rerequests != 1 {
		t.Fatalf("timeouts=%d rerequests=%d, want 1/1", st.Timeouts, st.Rerequests)
	}
	if st.FramesDelivered != 0 {
		t.Fatalf("no frame should verify under corrupt1.0, got %d", st.FramesDelivered)
	}
}

// TestTransportDupDedup: chaos-injected duplicates are discarded by the
// receiver's dedup guard; the flow still delivers exactly once.
func TestTransportDupDedup(t *testing.T) {
	sch := mustLinks(t, "link0-1:dup@step0")
	f := flowID{kind: flowGhost, from: 0, to: 1}
	tp := newTransport([]flowID{f}, fastLink(), sch, 5, 0)
	defer tp.Close()

	want := ghostPayload()
	tp.Send(f, want)
	got, ok := tp.Recv(f)
	if !ok {
		t.Fatal("dup-only schedule must deliver")
	}
	if !samePayload(got, want) {
		t.Fatal("delivered payload differs from sent")
	}
	// Let the duplicate copy land before snapshotting stats.
	tp.Close()
	st := tp.Stats()
	if st.DupFrames == 0 {
		t.Fatalf("dup1.0 produced no duplicates: %+v", st)
	}
	if st.FramesDelivered != 1 {
		t.Fatalf("delivered %d times, want exactly once", st.FramesDelivered)
	}
}

// TestTransportDeterministicVerdicts: the same seed and schedule replay
// the exact same fault pattern regardless of wall-clock interleaving.
func TestTransportDeterministicVerdicts(t *testing.T) {
	sch := mustLinks(t, "link0-1:drop1.0@step0")
	f := flowID{kind: flowMpole, from: 0, to: 1, level: 2}
	cfg := fastLink()
	// Past the full backoff sum (200µs * (2^9 - 1) ≈ 102ms), so the
	// sender exhausts its whole retry budget before the deadline.
	cfg.FarDeadline = 200 * time.Millisecond

	run := func() telemetry.NetSample {
		tp := newTransport([]flowID{f}, cfg, sch, 11, 0)
		defer tp.Close()
		tp.Send(f, expPayload(4, 1))
		if _, ok := tp.Recv(f); ok {
			t.Fatal("drop1.0 must never deliver")
		}
		tp.Rerequest(f)
		tp.Close()
		return tp.Stats()
	}
	a, b := run(), run()
	if a.FramesSent != b.FramesSent || a.FramesDropped != b.FramesDropped ||
		a.Retries != b.Retries || a.Timeouts != b.Timeouts {
		t.Fatalf("replay diverged: %+v vs %+v", a, b)
	}
	if a.FramesSent != int64(cfg.MaxRetries+1) {
		t.Fatalf("drop1.0 sent %d frames, want MaxRetries+1 = %d",
			a.FramesSent, cfg.MaxRetries+1)
	}
	if a.FramesDropped != a.FramesSent {
		t.Fatalf("drop1.0 dropped %d of %d frames", a.FramesDropped, a.FramesSent)
	}
}

// TestCorruptCopyPreservesOriginal: corruption mutates a private copy —
// the retransmission path keeps the sender's original bytes intact.
func TestCorruptCopyPreservesOriginal(t *testing.T) {
	for _, p := range []payload{expPayload(8, 3), ghostPayload()} {
		sum := payloadSum(p)
		c := corruptCopy(p, 0.4)
		if payloadSum(c) == sum {
			t.Fatal("corruptCopy left the checksum unchanged")
		}
		if payloadSum(p) != sum {
			t.Fatal("corruptCopy mutated the original payload")
		}
	}
}

// TestNetStatsAddMergesLinks: run-level aggregation merges per-link rows
// and RTT means by directed link.
func TestNetStatsAddMergesLinks(t *testing.T) {
	var s telemetry.NetSample
	addNet(&s, &telemetry.NetSample{FramesSent: 2, Links: []telemetry.LinkSample{
		{From: 0, To: 1, Frames: 2, RTTNs: 100, RTTCount: 2},
	}})
	addNet(&s, &telemetry.NetSample{FramesSent: 1, Retries: 1, Links: []telemetry.LinkSample{
		{From: 0, To: 1, Frames: 1, Retries: 1, RTTNs: 400, RTTCount: 1},
		{From: 1, To: 0, Frames: 5},
	}})
	if s.FramesSent != 3 || s.Retries != 1 {
		t.Fatalf("totals wrong: %+v", s)
	}
	if len(s.Links) != 2 {
		t.Fatalf("want 2 merged links, got %d", len(s.Links))
	}
	l01 := s.Links[0]
	if l01.Frames != 3 || l01.Retries != 1 || l01.RTTCount != 3 || l01.RTTNs != 200 {
		t.Fatalf("merged link 0-1 wrong: %+v", l01)
	}
}

// TestPerLinkSorted: every step's link rows, and the run's sum, come out
// sorted by (From, To), so the net.links order of the step records, the
// flight dumps and RunResult.Net does not change from run to run.
func TestPerLinkSorted(t *testing.T) {
	d, err := NewSolver(distrib.Plummer(600, 1, 1, 17), execClusterConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	res := d.RunWith(RunConfig{Steps: 24, Dt: 1e-4})
	for i, rep := range res.Steps {
		if len(rep.Net.Links) < 2 {
			t.Fatalf("step %d: %d link rows, want several to order", i, len(rep.Net.Links))
		}
		if !slices.IsSortedFunc(rep.Net.Links, cmpLink) {
			t.Fatalf("step %d: link rows out of order: %+v", i, rep.Net.Links)
		}
	}
	if !slices.IsSortedFunc(res.Net.Links, cmpLink) {
		t.Fatalf("run link rows out of order: %+v", res.Net.Links)
	}
}

// TestDetectorHeartbeat: silent nodes cross the suspicion threshold; live
// nodes do not.
func TestDetectorHeartbeat(t *testing.T) {
	cfg := linkConfig{HeartbeatInterval: 500 * time.Microsecond, SuspectAfter: 10}
	d := newDetector(3, cfg, nil, 1)
	defer d.stop()

	d.silence(1)
	lat := d.waitDead(1)
	if lat <= 0 {
		t.Fatal("detection latency must be positive")
	}
	if s := d.suspicion(1); s < 1 {
		t.Fatalf("silenced node suspicion = %v, want >= 1", s)
	}
	for _, k := range []int{0, 2} {
		if s := d.suspicion(k); s >= 1 {
			t.Fatalf("live node %d suspicion = %v, want < 1", k, s)
		}
	}
}
