package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Link-level faults extend the spec grammar to the simulated cluster
// interconnect: each event arms a lossy behaviour on one *directed*
// link (sender -> receiver) from a given step onward, at message
// granularity. The dmem transport consults the schedule once per frame
// transmission, with verdicts drawn from Hash01 over (seed, link, step,
// flow, attempt) — never from shared RNG state or the clock — and plays
// the protocol out on its modeled clock, so a chaotic run is exactly
// reproducible: the same schedule and seed give the same frames, retries
// and modeled times.
//
// Like device straggle events, link events persist: an event armed at
// step S shapes the link until a later event of the same kind replaces
// its parameter (drop0@step9 clears a drop).

// LinkKind enumerates the injectable link fault classes.
type LinkKind uint8

const (
	// LinkDrop loses each frame with probability Prob.
	LinkDrop LinkKind = iota
	// LinkDelay adds Delay seconds of one-way latency to every frame.
	LinkDelay
	// LinkDup delivers each frame twice with probability Prob.
	LinkDup
	// LinkReorder jitters each frame's delivery with probability Prob, so
	// frames overtake each other on the link.
	LinkReorder
	// LinkCorrupt flips one payload bit in transit with probability Prob;
	// the frame checksum no longer matches and the receiver rejects it.
	LinkCorrupt
	numLinkKinds
)

var linkKindNames = [numLinkKinds]string{"drop", "delay", "dup", "reorder", "corrupt"}

func (k LinkKind) String() string {
	if int(k) < len(linkKindNames) {
		return linkKindNames[k]
	}
	return fmt.Sprintf("linkkind(%d)", uint8(k))
}

// LinkEvent is one scheduled fault on one directed link.
type LinkEvent struct {
	From, To int // directed link: frames flowing From -> To
	Kind     LinkKind
	Step     int     // step at which the event arms (persists onward)
	Prob     float64 // drop/dup/reorder/corrupt per-frame probability
	Delay    float64 // added one-way latency, seconds (LinkDelay only)
}

// String renders the event in the spec grammar accepted by
// ParseLinkEvents.
func (e LinkEvent) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "link%d-%d:", e.From, e.To)
	switch e.Kind {
	case LinkDrop:
		fmt.Fprintf(&b, "drop%g", e.Prob)
	case LinkDelay:
		fmt.Fprintf(&b, "delay%gms", e.Delay*1e3)
	default:
		b.WriteString(e.Kind.String())
		if e.Prob != 1 {
			fmt.Fprintf(&b, "%g", e.Prob)
		}
	}
	fmt.Fprintf(&b, "@step%d", e.Step)
	return b.String()
}

// LinkSchedule is an ordered set of link fault events. The zero value
// (and nil) is a fault-free schedule.
type LinkSchedule struct {
	Events []LinkEvent
}

// String renders the schedule in the spec grammar accepted by
// ParseLinkEvents.
func (s *LinkSchedule) String() string {
	if s == nil || len(s.Events) == 0 {
		return ""
	}
	parts := make([]string, len(s.Events))
	for i, e := range s.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, ",")
}

// Faulty reports whether the schedule carries any events. Nil-safe.
func (s *LinkSchedule) Faulty() bool { return s != nil && len(s.Events) > 0 }

// LinkState is one directed link's active fault profile at a step: the
// latest armed event of each kind.
type LinkState struct {
	Drop    float64 // per-frame loss probability
	Dup     float64 // per-frame duplication probability
	Reorder float64 // per-frame jitter probability
	Corrupt float64 // per-frame bit-flip probability
	Delay   float64 // added one-way latency, seconds
}

// State resolves the link's profile at a step. Events are sorted by
// step, so the last match of each kind is the latest armed. Nil-safe.
func (s *LinkSchedule) State(from, to, step int) LinkState {
	var st LinkState
	if s == nil {
		return st
	}
	for _, e := range s.Events {
		if e.Step > step || e.From != from || e.To != to {
			continue
		}
		switch e.Kind {
		case LinkDrop:
			st.Drop = e.Prob
		case LinkDelay:
			st.Delay = e.Delay
		case LinkDup:
			st.Dup = e.Prob
		case LinkReorder:
			st.Reorder = e.Prob
		case LinkCorrupt:
			st.Corrupt = e.Prob
		}
	}
	return st
}

// MaxDropFrom reports the worst active drop probability over links
// leaving `node` at a step — the loss rate the failure detector's
// heartbeats from that node are subject to. Nil-safe.
func (s *LinkSchedule) MaxDropFrom(node, step int) float64 {
	if s == nil {
		return 0
	}
	// Per-destination latest event wins, so resolve per link.
	worst := 0.0
	seen := map[int]float64{}
	for _, e := range s.Events {
		if e.Kind == LinkDrop && e.From == node && e.Step <= step {
			seen[e.To] = e.Prob
		}
	}
	for _, p := range seen {
		if p > worst {
			worst = p
		}
	}
	return worst
}

// ParseLinkEvents builds a link-fault schedule from a comma-separated
// spec. Each entry is
//
//	link<A>-<B>:<kind>[<param>]@step<S>
//
// where <kind> is one of
//
//	drop<P>      — lose each frame with probability P (drop0 clears)
//	delay<D>ms   — add D milliseconds of one-way latency (delay0ms clears)
//	dup[<P>]     — duplicate each frame with probability P (default 1)
//	reorder[<P>] — jitter each frame with probability P (default 1)
//	corrupt[<P>] — flip a payload bit with probability P (default 1)
//
// An empty spec yields an empty schedule. Events are returned sorted by
// step (then link), so replay order is deterministic regardless of the
// spec's entry order.
func ParseLinkEvents(spec string) (*LinkSchedule, error) {
	sch := &LinkSchedule{}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return sch, nil
	}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		ev, err := parseLinkEntry(entry)
		if err != nil {
			return nil, fmt.Errorf("link fault spec %q: %w", entry, err)
		}
		sch.Events = append(sch.Events, ev)
	}
	sortLinkEvents(sch.Events)
	return sch, nil
}

func sortLinkEvents(evs []LinkEvent) {
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Step != evs[j].Step {
			return evs[i].Step < evs[j].Step
		}
		if evs[i].From != evs[j].From {
			return evs[i].From < evs[j].From
		}
		return evs[i].To < evs[j].To
	})
}

func parseLinkEntry(entry string) (LinkEvent, error) {
	var ev LinkEvent
	linkPart, rest, ok := strings.Cut(entry, ":")
	if !ok {
		return ev, fmt.Errorf("missing ':' between link and fault")
	}
	fromStr, toStr, _ := strings.Cut(linkPart, "-")
	from, okFrom := wordNum(fromStr, "link")
	to, okTo := wordNum(toStr, "")
	if !okFrom || !okTo {
		return ev, fmt.Errorf("bad link %q (want link<A>-<B>)", linkPart)
	}
	if from == to {
		return ev, fmt.Errorf("bad link %q (a node's loopback cannot fault)", linkPart)
	}
	ev.From, ev.To = from, to

	kindPart, atPart, ok := strings.Cut(rest, "@")
	if !ok {
		return ev, fmt.Errorf("missing '@step<N>'")
	}
	var err error
	prob := func(s, kind string) (float64, error) {
		if s == "" {
			return 1, nil
		}
		p, err := strconv.ParseFloat(s, 64)
		if err != nil || p < 0 || p > 1 {
			return 0, fmt.Errorf("bad %s probability %q (want 0..1)", kind, s)
		}
		return p, nil
	}
	switch {
	case strings.HasPrefix(kindPart, "drop"):
		ev.Kind = LinkDrop
		ps := strings.TrimPrefix(kindPart, "drop")
		if ps == "" {
			return ev, fmt.Errorf("drop needs a probability (e.g. drop0.05)")
		}
		if ev.Prob, err = prob(ps, "drop"); err != nil {
			return ev, err
		}
	case strings.HasPrefix(kindPart, "delay"):
		ev.Kind = LinkDelay
		ds := strings.TrimPrefix(kindPart, "delay")
		unit := 1e-3
		switch {
		case strings.HasSuffix(ds, "ms"):
			ds = strings.TrimSuffix(ds, "ms")
		case strings.HasSuffix(ds, "us"):
			ds, unit = strings.TrimSuffix(ds, "us"), 1e-6
		case strings.HasSuffix(ds, "s"):
			ds, unit = strings.TrimSuffix(ds, "s"), 1
		}
		d, err := strconv.ParseFloat(ds, 64)
		if err != nil || d < 0 || ds == "" {
			return ev, fmt.Errorf("bad delay %q (e.g. delay1.5ms)", strings.TrimPrefix(kindPart, "delay"))
		}
		ev.Delay = d * unit
	case strings.HasPrefix(kindPart, "dup"):
		ev.Kind = LinkDup
		if ev.Prob, err = prob(strings.TrimPrefix(kindPart, "dup"), "dup"); err != nil {
			return ev, err
		}
	case strings.HasPrefix(kindPart, "reorder"):
		ev.Kind = LinkReorder
		if ev.Prob, err = prob(strings.TrimPrefix(kindPart, "reorder"), "reorder"); err != nil {
			return ev, err
		}
	case strings.HasPrefix(kindPart, "corrupt"):
		ev.Kind = LinkCorrupt
		if ev.Prob, err = prob(strings.TrimPrefix(kindPart, "corrupt"), "corrupt"); err != nil {
			return ev, err
		}
	default:
		return ev, fmt.Errorf("unknown link fault %q", kindPart)
	}

	if ev.Step, ok = wordNum(atPart, "step"); !ok {
		return ev, fmt.Errorf("bad step %q (want @step<N>)", atPart)
	}
	return ev, nil
}

// ParseClusterEvents parses a combined cluster fault spec whose entries
// mix node fail-stops and link events:
//
//	node2:failstop@step4,link0-1:drop0.2@step0,link1-0:corrupt0.1@step2
//
// The two schedules overlap freely — a lossy link and a node loss can
// arm at the same step. Unknown prefixes are rejected.
func ParseClusterEvents(spec string) ([]NodeEvent, *LinkSchedule, error) {
	links := &LinkSchedule{}
	var nodeParts []string
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, links, nil
	}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		switch {
		case strings.HasPrefix(entry, "node"):
			nodeParts = append(nodeParts, entry)
		case strings.HasPrefix(entry, "link"):
			ev, err := parseLinkEntry(entry)
			if err != nil {
				return nil, nil, fmt.Errorf("link fault spec %q: %w", entry, err)
			}
			links.Events = append(links.Events, ev)
		default:
			return nil, nil, fmt.Errorf("cluster fault spec %q: want node<K>:... or link<A>-<B>:...", entry)
		}
	}
	nodes, err := ParseNodeEvents(strings.Join(nodeParts, ","))
	if err != nil {
		return nil, nil, err
	}
	sortLinkEvents(links.Events)
	return nodes, links, nil
}

// RandomLinks draws n link fault events over an all-to-all cluster of
// the given node count from a seeded RNG. The same (seed, nodes, steps,
// n) always yields the same schedule. Drop/dup/reorder/corrupt
// probabilities are drawn in (0, 0.35] and delays in [0.1ms, 1ms], all
// within a bounded-retry protocol's recovery budget.
func RandomLinks(seed int64, nodes, steps, n int) *LinkSchedule {
	sch := &LinkSchedule{}
	if nodes < 2 || steps <= 0 {
		return sch
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		from := rng.Intn(nodes)
		to := rng.Intn(nodes - 1)
		if to >= from {
			to++
		}
		ev := LinkEvent{
			From: from, To: to,
			Kind: LinkKind(rng.Intn(int(numLinkKinds))),
			Step: rng.Intn(steps),
		}
		if ev.Kind == LinkDelay {
			ev.Delay = (0.1 + 0.9*rng.Float64()) * 1e-3
		} else {
			ev.Prob = 0.35 * (0.05 + 0.95*rng.Float64())
		}
		sch.Events = append(sch.Events, ev)
	}
	sortLinkEvents(sch.Events)
	return sch
}

// Hash01 maps (seed, parts...) to a deterministic uniform value in
// [0, 1). The dmem transport draws every per-frame fault verdict from it,
// keyed by link, step, flow and attempt, and the heartbeat detector every
// beat's, keyed by node and tick: each verdict is a function of its key
// alone.
func Hash01(seed int64, parts ...int64) float64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
	for _, p := range parts {
		x ^= uint64(p)
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
	}
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return float64(x>>11) / float64(1<<53)
}
