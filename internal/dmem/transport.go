package dmem

import (
	"cmp"
	"math"
	"slices"
	"time"

	"afmm/internal/core"
	"afmm/internal/fault"
	"afmm/internal/geom"
	"afmm/internal/telemetry"
)

// The transport is the link layer between a flow's send and unpack
// nodes. Every cross-node payload — a multipole batch, a local batch, a
// ghost-leaf batch — travels as framed messages carrying its flow
// identity, a sequence (attempt) number, and an FNV-1a checksum over the
// payload's float bits. Every flow runs one delivery protocol,
// whether or not a fault.LinkSchedule is armed, and Send plays all of it
// out on the modeled clock before it returns: each transmission consults
// the (possibly empty) schedule, the receiver verifies the checksum,
// dedups and acks, an unacknowledged frame is retransmitted with
// exponential backoff, and a nack (corrupt frame) triggers a re-send when
// it reaches the sender. A frame's fate and its arrival time are
// functions of the schedule, the seed and the interconnect model alone,
// so no goroutine, timer or deadline takes part, and a chaotic run
// replays exactly.
//
// Bit-identity under chaos holds because a flow's payload is loaded into
// the engine slabs exactly once, and every byte that can be loaded is
// the sender's original: duplicate frames are dropped by the dedup
// guard, corrupt frames fail checksum and are never loaded (corruption
// mutates a private copy, so retransmissions carry the original), and a
// flow whose retry budget runs out, of any kind, is recovered with the
// sender's original bytes over the reliable re-request channel. Faults
// cost frames and modeled time, never values.
//
// Fault verdicts come from fault.Hash01 over (seed, link, step, flow,
// attempt), never from shared RNG state or the clock.

// The delivery protocol's fixed settings.
const (
	// retransmitTimeout is the ack wait after a flow's first
	// transmission; each further attempt doubles it.
	retransmitTimeout = 2 * time.Millisecond
	// maxRetries bounds the retransmissions per flow, the first
	// transmission excluded.
	maxRetries = 8
)

// flowKind distinguishes the three payload classes of the exchange plan.
type flowKind uint8

const (
	flowMpole flowKind = iota
	flowLocal
	flowGhost
)

// flowID names one cross-node flow of the step: the plan's key and the
// transport's frame address. Mpole/local flows are keyed by tree level;
// ghost flows carry level 0.
type flowID struct {
	kind     flowKind
	from, to int
	level    int
}

// link is the directed link the flow crosses, the per-link counters' key.
func (f flowID) link() [2]int { return [2]int{f.from, f.to} }

// payload is the frame body: exactly one of the two slices is set,
// matching the flow's kind.
type payload struct {
	exp   []complex128
	ghost []core.GhostLeaf
}

// payloadBytes is the payload's size on the wire: 16 bytes per expansion
// coefficient, perBody bytes per ghost body.
func payloadBytes(p payload, perBody int) int64 {
	n := int64(len(p.exp)) * 16
	for _, gl := range p.ghost {
		n += int64(len(gl.Pos)) * int64(perBody)
	}
	return n
}

// cmpLink orders link rows by (From, To).
func cmpLink(a, b telemetry.LinkSample) int {
	if c := cmp.Compare(a.From, b.From); c != 0 {
		return c
	}
	return cmp.Compare(a.To, b.To)
}

// addNet folds another step's delivery activity into s (links merged by
// link, kept sorted; RTT means weighted by their counts).
func addNet(s, o *telemetry.NetSample) {
	s.FramesSent += o.FramesSent
	s.FramesDelivered += o.FramesDelivered
	s.FramesDropped += o.FramesDropped
	s.DupFrames += o.DupFrames
	s.CorruptRejects += o.CorruptRejects
	s.Retries += o.Retries
	s.Nacks += o.Nacks
	s.AcksDropped += o.AcksDropped
	s.Timeouts += o.Timeouts
	s.Rerequests += o.Rerequests
	s.DegradedGhostFlows += o.DegradedGhostFlows
	for _, ls := range o.Links {
		i, found := slices.BinarySearchFunc(s.Links, ls, cmpLink)
		if !found {
			s.Links = slices.Insert(s.Links, i, ls)
			continue
		}
		l := &s.Links[i]
		if tot := l.RTTCount + ls.RTTCount; tot > 0 {
			l.RTTNs = (l.RTTNs*l.RTTCount + ls.RTTNs*ls.RTTCount) / tot
		}
		l.Frames += ls.Frames
		l.Retries += ls.Retries
		l.RTTCount += ls.RTTCount
	}
}

// flowState is one flow's outcome, written once by its Send: the
// sender's payload, whether a copy verified at the receiver, and the
// flow's share of the step's delivery counters.
type flowState struct {
	pay payload
	ok  bool
	// net holds the flow's counters (Links stays empty); rttNs sums the
	// modeled round trips of its rtts acks that reached the sender.
	net         telemetry.NetSample
	rttNs, rtts int64
}

// transport carries every flow of one executed step.
type transport struct {
	net   NetworkSpec
	sch   *fault.LinkSchedule
	seed  int64
	step  int
	flows map[flowID]*flowState
}

// newTransport builds the step's transport over the plan's flows.
func newTransport(flows []flowID, net NetworkSpec, sch *fault.LinkSchedule, seed int64, step int) *transport {
	tp := &transport{net: net, sch: sch, seed: seed, step: step,
		flows: make(map[flowID]*flowState, len(flows))}
	for _, f := range flows {
		tp.flows[f] = &flowState{}
	}
	return tp
}

// Stats sums the step's delivery activity over its flows. Callers invoke
// it once every Send returned.
func (tp *transport) Stats() telemetry.NetSample {
	var s telemetry.NetSample
	type linkSum struct {
		telemetry.LinkSample
		rttNs int64
	}
	links := make(map[[2]int]*linkSum)
	for f, fs := range tp.flows {
		if fs.net.FramesSent == 0 {
			continue
		}
		addNet(&s, &fs.net)
		l := links[f.link()]
		if l == nil {
			l = &linkSum{LinkSample: telemetry.LinkSample{From: f.from, To: f.to}}
			links[f.link()] = l
		}
		l.Frames += fs.net.FramesSent
		l.Retries += fs.net.Retries
		l.RTTCount += fs.rtts
		l.rttNs += fs.rttNs
	}
	for _, l := range links {
		if l.RTTCount > 0 {
			l.RTTNs = l.rttNs / l.RTTCount
		}
		s.Links = append(s.Links, l.LinkSample)
	}
	slices.SortFunc(s.Links, cmpLink)
	return s
}

// flowHash folds a flow's identity into the verdict hash key.
func flowHash(f flowID) int64 {
	return int64(f.kind) | int64(f.from)<<8 | int64(f.to)<<24 | int64(f.level)<<40
}

// Verdict salts keep the per-frame draws for independent decisions
// independent.
const (
	saltDrop = iota + 1
	saltDup
	saltReorder
	saltCorrupt
	saltCorruptBit
	saltAck
)

func (tp *transport) verdict(salt int, f flowID, attempt int64) float64 {
	return fault.Hash01(tp.seed, int64(salt), flowHash(f), int64(tp.step), attempt)
}

// reverseDropped draws the reverse-link (receiver -> sender) drop
// verdict for an ack or nack.
func (tp *transport) reverseDropped(f flowID, key int64) bool {
	st := tp.sch.State(f.to, f.from, tp.step)
	return st.Drop > 0 && tp.verdict(saltAck, f, key) < st.Drop
}

// reply is an ack or nack on its way back to the sender.
type reply struct {
	at  int64 // modeled arrival at the sender, ns after the first transmission
	ack bool
}

// ns converts modeled seconds to the protocol clock's nanoseconds.
func ns(seconds float64) int64 { return int64(math.Round(seconds * 1e9)) }

// Send runs the flow's whole delivery protocol on the modeled clock and
// settles what Recv returns. Attempt a leaves at t_a (t_0 = 0); each copy
// arrives one way later — Net.Latency + bytes/Net.Bandwidth plus the
// link's scheduled delay and reorder jitter — unless dropped, and its ack
// or nack crosses the reverse link in Net.Latency plus that link's delay,
// unless dropped there. The sender then waits retransmitTimeout·2^a: the
// first reply to arrive ends the wait — an ack the protocol, a nack with
// a re-send at its arrival — and an empty wait re-sends when it runs out,
// at most maxRetries times. Send never blocks, so the graph's send node
// always finishes.
func (tp *transport) Send(f flowID, p payload) {
	fs := tp.flows[f]
	fs.pay = p
	n := &fs.net
	sum := payloadSum(p)
	st := tp.sch.State(f.from, f.to, tp.step)
	wire := ns(tp.net.Latency + float64(payloadBytes(p, tp.net.BytesPerBody))/tp.net.Bandwidth + st.Delay)
	back := ns(tp.net.Latency + tp.sch.State(f.to, f.from, tp.step).Delay)
	var buf [4]reply
	replies := buf[:0]
	var t int64
	for attempt := int64(0); ; attempt++ {
		copies := int64(1)
		if st.Dup > 0 && tp.verdict(saltDup, f, attempt) < st.Dup {
			copies = 2
		}
		for c := int64(0); c < copies; c++ {
			key := attempt*2 + c
			n.FramesSent++
			if c > 0 {
				n.DupFrames++
			}
			if st.Drop > 0 && tp.verdict(saltDrop, f, key) < st.Drop {
				n.FramesDropped++
				continue
			}
			arrive := t + wire
			if st.Reorder > 0 && tp.verdict(saltReorder, f, key) < st.Reorder {
				// Jitter below the retransmit timeout: enough to let frames
				// overtake each other, not enough to look lost.
				arrive += int64(tp.verdict(saltReorder, f, key+1<<20) * float64(retransmitTimeout) / 4)
			}
			fr := p
			if st.Corrupt > 0 && tp.verdict(saltCorrupt, f, key) < st.Corrupt {
				// Flip one bit in a private copy: the original stays intact for
				// retransmission, and the stale checksum guarantees rejection.
				fr = corruptCopy(p, tp.verdict(saltCorruptBit, f, attempt))
			}
			// The receiver: verify, dedup, ack every verified copy (if the
			// first ack is lost, a retransmission earns another).
			if payloadSum(fr) != sum {
				n.CorruptRejects++
				if !tp.reverseDropped(f, attempt) {
					n.Nacks++
					replies = append(replies, reply{at: arrive + back})
				}
				continue
			}
			if fs.ok {
				n.DupFrames++
			} else {
				fs.ok = true
				n.FramesDelivered++
			}
			if tp.reverseDropped(f, attempt+1<<30) {
				n.AcksDropped++
				continue
			}
			fs.rttNs += arrive + back - t
			fs.rtts++
			replies = append(replies, reply{at: arrive + back, ack: true})
		}
		if attempt == maxRetries {
			break
		}
		wake := t + int64(retransmitTimeout)<<attempt
		slices.SortFunc(replies, func(a, b reply) int { return cmp.Compare(a.at, b.at) })
		if len(replies) > 0 && replies[0].at <= wake {
			if replies[0].ack {
				break
			}
			wake = replies[0].at
			replies = replies[1:]
		}
		t = wake
		n.Retries++
	}
	if !fs.ok {
		n.Timeouts++
		if f.kind == flowGhost {
			n.DegradedGhostFlows++
		} else {
			n.Rerequests++
		}
	}
}

// Recv returns what the flow's Send settled, so it is called after the
// Send (an unpack node runs after its send node): the payload and whether
// a copy verified at the receiver. ok == false means the flow's retry
// budget ran out: the payload is then the sender's original bytes over
// the reliable re-request channel, which the receiver loads as it loads
// a verified copy.
func (tp *transport) Recv(f flowID) (payload, bool) {
	fs := tp.flows[f]
	return fs.pay, fs.ok
}

// payloadSum is the frame's integrity check: the payload's float bits and
// slice lengths folded in one 64-bit word at a time, h = (h ^ w) * prime,
// with FNV's offset and prime. For a fixed word a step is a bijection of
// the state (xor, then a multiply by an odd constant), and for a fixed
// state it is injective in the word, so two payloads of the same shape
// that differ in one bit always sum differently.
func payloadSum(p payload) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	w64 := func(v uint64) { h = (h ^ v) * prime }
	wf := func(f float64) { w64(math.Float64bits(f)) }
	w64(uint64(len(p.exp)))
	for _, c := range p.exp {
		wf(real(c))
		wf(imag(c))
	}
	w64(uint64(len(p.ghost)))
	for _, gl := range p.ghost {
		w64(uint64(len(gl.Pos)))
		for _, v := range gl.Pos {
			wf(v.X)
			wf(v.Y)
			wf(v.Z)
		}
		w64(uint64(len(gl.Mass)))
		for _, m := range gl.Mass {
			wf(m)
		}
		w64(uint64(len(gl.Aux)))
		for _, v := range gl.Aux {
			wf(v.X)
			wf(v.Y)
			wf(v.Z)
		}
	}
	return h
}

// corruptCopy returns a deep copy of the payload with one bit flipped,
// selected by the deterministic draw r in [0,1).
func corruptCopy(p payload, r float64) payload {
	if len(p.exp) > 0 {
		exp := append([]complex128(nil), p.exp...)
		i := int(r * float64(len(exp)))
		if i >= len(exp) {
			i = len(exp) - 1
		}
		re := math.Float64bits(real(exp[i]))
		re ^= 1 << 31
		exp[i] = complex(math.Float64frombits(re), imag(exp[i]))
		return payload{exp: exp}
	}
	if len(p.ghost) > 0 {
		ghost := append([]core.GhostLeaf(nil), p.ghost...)
		i := int(r * float64(len(ghost)))
		if i >= len(ghost) {
			i = len(ghost) - 1
		}
		gl := ghost[i]
		if len(gl.Pos) > 0 {
			pos := append([]geom.Vec3(nil), gl.Pos...)
			b := math.Float64bits(pos[0].X)
			b ^= 1 << 31
			pos[0].X = math.Float64frombits(b)
			gl.Pos = pos
		} else if len(gl.Mass) > 0 {
			mass := append([]float64(nil), gl.Mass...)
			b := math.Float64bits(mass[0])
			b ^= 1 << 31
			mass[0] = math.Float64frombits(b)
			gl.Mass = mass
		}
		ghost[i] = gl
		return payload{ghost: ghost}
	}
	return p
}
