package dmem

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"afmm/internal/core"
	"afmm/internal/fault"
	"afmm/internal/geom"
	"afmm/internal/telemetry"
)

// The transport is the link layer between the exchange plan and the
// node goroutines. Every cross-node payload — a multipole batch, a
// local batch, a ghost-leaf batch — travels as a framed message carrying
// its flow identity, a sequence (attempt) number, and an FNV-1a checksum
// over the payload's float bits. Every flow runs one delivery protocol,
// whether or not a fault.LinkSchedule is armed: each transmission
// consults the (possibly empty) schedule, and the receiver verifies the
// checksum, dedups and acks; an unacknowledged frame is retransmitted
// with exponential backoff, a nack (corrupt frame) triggers an immediate
// re-send, and receives are bounded by per-phase deadlines. On a clean
// link the first frame is delivered and acked inside Send, so no
// protocol goroutine starts.
//
// Bit-identity under chaos holds because a flow's payload is loaded into
// the engine slabs exactly once, and every byte that can be loaded is
// the sender's original: duplicate frames are dropped by the dedup
// guard, corrupt frames fail checksum and are never loaded (corruption
// mutates a private copy, so retransmissions carry the original), and
// the two degradation paths — host-side ghost re-pack and the reliable
// Rerequest — reproduce the original payload by construction. Faults
// cost time, never values.
//
// Fault verdicts come from fault.Hash01 over (seed, link, step, flow,
// attempt), never from shared RNG state or the clock, so a chaotic run
// is exactly reproducible regardless of goroutine interleaving.

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

// linkConfig tunes the delivery protocol and the heartbeat detector.
// Only tests set it (Config.link); the zero value selects defaults chosen
// so that any within-budget fault schedule recovers by retransmission
// long before a deadline, while a hard-failed link (drop 1.0) degrades in
// bounded time.
type linkConfig struct {
	// RetransmitTimeout is the initial ack wait before the first
	// retransmission; each further attempt doubles it (exponential
	// backoff). 0 selects 2ms.
	RetransmitTimeout time.Duration
	// MaxRetries bounds retransmissions per frame (first transmission
	// excluded). 0 selects 8.
	MaxRetries int
	// NearDeadline is the receive budget of the ghost phase; on expiry
	// the receiver re-packs the bodies host-side. 0 selects 10s.
	NearDeadline time.Duration
	// FarDeadline is the receive budget of the expansion phase; on
	// expiry the receiver recovers the payload over the reliable
	// re-request path. 0 selects 10s.
	FarDeadline time.Duration
	// HeartbeatInterval paces the failure detector's per-node
	// heartbeats. 0 selects 1ms.
	HeartbeatInterval time.Duration
	// SuspectAfter is the number of heartbeat intervals of silence after
	// which the detector declares a node dead. 0 selects 25.
	SuspectAfter int
}

func (c linkConfig) withDefaults() linkConfig {
	if c.RetransmitTimeout <= 0 {
		c.RetransmitTimeout = 2 * time.Millisecond
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 8
	}
	if c.NearDeadline <= 0 {
		c.NearDeadline = 10 * time.Second
	}
	if c.FarDeadline <= 0 {
		c.FarDeadline = 10 * time.Second
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 25
	}
	return c
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

// netCounters is the NetSample totals with atomic fields (senders,
// couriers and receivers update concurrently).
type netCounters struct {
	sent, delivered, dropped, dup atomic.Int64
	corrupt, retries, nacks       atomic.Int64
	acksDropped, timeouts         atomic.Int64
	rerequests, degradedGhost     atomic.Int64
}

// linkCounters is a LinkSample with atomic fields.
type linkCounters struct {
	frames, retries    atomic.Int64
	rttSumNs, rttCount atomic.Int64
}

// flowState is one flow's endpoint pair. The sender side stores the
// original payload (immutable after Send) for retransmission and the
// reliable re-request path; the receiver side holds the dedup guard and
// the delivered payload.
type flowState struct {
	id  flowID
	sum uint64

	// sent closes once Send stored the payload; Rerequest waits on it.
	sent  chan struct{}
	pay   payload
	payNs int64 // unixnano of the last transmission (RTT base)

	// ackCh closes when a verified delivery's ack survives the reverse
	// link; the sender stops retransmitting. nackCh wakes the sender for
	// an immediate re-send after a checksum reject.
	ackCh   chan struct{}
	ackOnce sync.Once
	nackCh  chan struct{}

	// delivered closes on the first verified delivery.
	delivered   chan struct{}
	deliverOnce sync.Once
	recvPay     payload
}

// transport carries every flow of one executed step.
type transport struct {
	cfg  linkConfig
	sch  *fault.LinkSchedule
	seed int64
	step int

	flows map[flowID]*flowState
	links map[[2]int]*linkCounters
	nc    netCounters
	// far and near bound the receives of the expansion and ghost flows.
	far, near phaseDeadline

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// phaseDeadline is one phase's receive budget, armed by the phase's first
// receive that has to wait and shared by every later one.
type phaseDeadline struct {
	once    sync.Once
	timer   *time.Timer
	expired chan struct{}
}

// arm starts the budget on first use and returns the channel that closes
// when it runs out.
func (ph *phaseDeadline) arm(budget time.Duration) <-chan struct{} {
	ph.once.Do(func() {
		ph.expired = make(chan struct{})
		ph.timer = time.AfterFunc(budget, func() { close(ph.expired) })
	})
	return ph.expired
}

// newTransport builds the step's transport over the plan's flows.
func newTransport(flows []flowID, cfg linkConfig, sch *fault.LinkSchedule, seed int64, step int) *transport {
	tp := &transport{
		cfg:   cfg.withDefaults(),
		sch:   sch,
		seed:  seed,
		step:  step,
		flows: make(map[flowID]*flowState, len(flows)),
		links: make(map[[2]int]*linkCounters),
		done:  make(chan struct{}),
	}
	for _, f := range flows {
		tp.flows[f] = &flowState{
			id:        f,
			sent:      make(chan struct{}),
			ackCh:     make(chan struct{}),
			nackCh:    make(chan struct{}, 1),
			delivered: make(chan struct{}),
		}
		if tp.links[f.link()] == nil {
			tp.links[f.link()] = &linkCounters{}
		}
	}
	return tp
}

// Close tears the transport down: in-flight senders and couriers exit at
// their next select, and the phase deadlines are disarmed. Callers invoke
// it after every node graph completed, so all deliveries are settled.
func (tp *transport) Close() {
	tp.closeOnce.Do(func() { close(tp.done) })
	tp.wg.Wait()
	for _, ph := range []*phaseDeadline{&tp.far, &tp.near} {
		if ph.timer != nil {
			ph.timer.Stop()
		}
	}
}

// Stats snapshots the step's delivery activity.
func (tp *transport) Stats() telemetry.NetSample {
	s := telemetry.NetSample{
		FramesSent:         tp.nc.sent.Load(),
		FramesDelivered:    tp.nc.delivered.Load(),
		FramesDropped:      tp.nc.dropped.Load(),
		DupFrames:          tp.nc.dup.Load(),
		CorruptRejects:     tp.nc.corrupt.Load(),
		Retries:            tp.nc.retries.Load(),
		Nacks:              tp.nc.nacks.Load(),
		AcksDropped:        tp.nc.acksDropped.Load(),
		Timeouts:           tp.nc.timeouts.Load(),
		Rerequests:         tp.nc.rerequests.Load(),
		DegradedGhostFlows: tp.nc.degradedGhost.Load(),
	}
	for l, lc := range tp.links {
		ls := telemetry.LinkSample{
			From: l[0], To: l[1],
			Frames:   lc.frames.Load(),
			Retries:  lc.retries.Load(),
			RTTCount: lc.rttCount.Load(),
		}
		if ls.RTTCount > 0 {
			ls.RTTNs = lc.rttSumNs.Load() / ls.RTTCount
		}
		if ls.Frames > 0 {
			s.Links = append(s.Links, ls)
		}
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

// Send transmits the flow's payload. It never blocks the graph's send
// task: attempt 0 goes out synchronously, and only a frame still
// unacknowledged after it (lost, corrupt, delayed, or its ack lost) hands
// the flow to a goroutine that runs the retransmission protocol.
func (tp *transport) Send(f flowID, p payload) {
	fs := tp.flows[f]
	fs.pay = p
	fs.sum = payloadSum(p)
	close(fs.sent)
	tp.transmit(fs, 0)
	select {
	case <-fs.ackCh:
		return
	default:
	}
	tp.wg.Add(1)
	go tp.retransmit(fs)
}

// frame is one transmission on the wire, addressed to its flow.
type frame struct {
	seq int64 // attempt number
	sum uint64
	pay payload
}

// retransmit runs the rest of one flow's delivery protocol: wait for the
// ack with exponential backoff, retransmit on timeout or nack, give up
// after MaxRetries (the receiver's deadline degradation then recovers).
func (tp *transport) retransmit(fs *flowState) {
	defer tp.wg.Done()
	backoff := tp.cfg.RetransmitTimeout
	for attempt := int64(1); attempt <= int64(tp.cfg.MaxRetries); attempt++ {
		timer := time.NewTimer(backoff)
		select {
		case <-fs.ackCh:
			timer.Stop()
			return
		case <-fs.nackCh:
			timer.Stop()
			// Checksum reject: re-request means an immediate re-send.
		case <-timer.C:
		case <-tp.done:
			timer.Stop()
			return
		}
		tp.nc.retries.Add(1)
		tp.links[fs.id.link()].retries.Add(1)
		tp.transmit(fs, attempt)
		backoff *= 2
	}
}

// transmit puts one frame (and possibly a duplicate) on the wire,
// consulting the link-fault schedule for drop/delay/reorder/corrupt
// verdicts.
func (tp *transport) transmit(fs *flowState, attempt int64) {
	f := fs.id
	st := tp.sch.State(f.from, f.to, tp.step)
	atomic.StoreInt64(&fs.payNs, time.Now().UnixNano())

	copies := 1
	if st.Dup > 0 && tp.verdict(saltDup, f, attempt) < st.Dup {
		copies = 2
	}
	for c := 0; c < copies; c++ {
		tp.nc.sent.Add(1)
		tp.links[f.link()].frames.Add(1)
		if c > 0 {
			tp.nc.dup.Add(1)
		}
		if st.Drop > 0 && tp.verdict(saltDrop, f, attempt*2+int64(c)) < st.Drop {
			tp.nc.dropped.Add(1)
			continue
		}
		fr := frame{seq: attempt, sum: fs.sum, pay: fs.pay}
		if st.Corrupt > 0 && tp.verdict(saltCorrupt, f, attempt*2+int64(c)) < st.Corrupt {
			// Flip one bit in a private copy: the original stays intact for
			// retransmission, and the stale checksum guarantees rejection.
			fr.pay = corruptCopy(fr.pay, tp.verdict(saltCorruptBit, f, attempt))
		}
		delay := time.Duration(st.Delay * float64(time.Second))
		if st.Reorder > 0 && tp.verdict(saltReorder, f, attempt*2+int64(c)) < st.Reorder {
			// Deterministic jitter below the retransmit timeout: enough to
			// let frames overtake each other, not enough to look lost.
			delay += time.Duration(tp.verdict(saltReorder, f, attempt*2+int64(c)+1<<20) *
				float64(tp.cfg.RetransmitTimeout) / 4)
		}
		if delay <= 0 {
			tp.accept(fs, fr)
			continue
		}
		tp.wg.Add(1)
		go func(fr frame, d time.Duration) {
			defer tp.wg.Done()
			timer := time.NewTimer(d)
			select {
			case <-timer.C:
				tp.accept(fs, fr)
			case <-tp.done:
				timer.Stop()
			}
		}(fr, delay)
	}
}

// accept is the receiver side: verify the checksum, dedup, deliver once,
// acknowledge (the ack itself crosses the reverse link and is subject to
// its drop rate).
func (tp *transport) accept(fs *flowState, fr frame) {
	if payloadSum(fr.pay) != fr.sum {
		tp.nc.corrupt.Add(1)
		// Re-request: signal the sender to re-send without waiting out the
		// backoff. The nack crosses the reverse link.
		if !tp.reverseDropped(fs.id, fr.seq) {
			tp.nc.nacks.Add(1)
			select {
			case fs.nackCh <- struct{}{}:
			default:
			}
		}
		return
	}
	first := false
	fs.deliverOnce.Do(func() {
		first = true
		fs.recvPay = fr.pay
		tp.nc.delivered.Add(1)
		close(fs.delivered)
	})
	if !first {
		tp.nc.dup.Add(1)
	}
	// Ack every verified copy: if the first ack is lost, a retransmission
	// earns another, so the sender eventually stops.
	if tp.reverseDropped(fs.id, fr.seq+1<<30) {
		tp.nc.acksDropped.Add(1)
		return
	}
	if rtt := time.Now().UnixNano() - atomic.LoadInt64(&fs.payNs); rtt >= 0 {
		lc := tp.links[fs.id.link()]
		lc.rttSumNs.Add(rtt)
		lc.rttCount.Add(1)
	}
	fs.ackOnce.Do(func() { close(fs.ackCh) })
}

// reverseDropped draws the reverse-link (receiver -> sender) drop
// verdict for an ack or nack.
func (tp *transport) reverseDropped(f flowID, key int64) bool {
	st := tp.sch.State(f.to, f.from, tp.step)
	return st.Drop > 0 && tp.verdict(saltAck, f, key) < st.Drop
}

// Recv returns the flow's verified payload, waiting for it at most until
// the phase deadline expires. ok == false means the deadline passed: the
// caller must take the flow's degradation path (host-side ghost re-pack
// or Rerequest), which reproduces the payload exactly.
func (tp *transport) Recv(f flowID) (payload, bool) {
	fs := tp.flows[f]
	select {
	case <-fs.delivered:
		return fs.recvPay, true
	default:
	}
	ph, budget := &tp.far, tp.cfg.FarDeadline
	if f.kind == flowGhost {
		ph, budget = &tp.near, tp.cfg.NearDeadline
	}
	select {
	case <-fs.delivered:
		return fs.recvPay, true
	case <-ph.arm(budget):
		tp.nc.timeouts.Add(1)
		return payload{}, false
	}
}

// Rerequest recovers an expansion payload over the reliable re-request
// path after a Recv deadline expiry: it waits for the sender to have
// produced the payload (the send task is scheduled independently of the
// lossy wire) and returns the sender's original bytes. This models the
// separate acknowledged recovery channel a production link layer falls
// back to; it cannot lose data, only time.
func (tp *transport) Rerequest(f flowID) payload {
	fs := tp.flows[f]
	<-fs.sent
	tp.nc.rerequests.Add(1)
	return fs.pay
}

// noteGhostDegrade records a ghost flow recovered host-side.
func (tp *transport) noteGhostDegrade() { tp.nc.degradedGhost.Add(1) }

// payloadSum is an FNV-1a checksum over the payload's float bits (and
// slice structure), the frame's integrity check.
func payloadSum(p payload) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	w64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
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
